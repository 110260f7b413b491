"""Permutation groups generated by transpositions, with exact orders.

Groups are given by their transpositions, each a pair of distinct 0-based
points: :func:`generate_group` raises ``ValueError`` on anything else.
Every group the engine builds is of this kind (admissible swaps,
zero-weight swaps, the symmetric factors of the family table). A
connected set of transpositions generates the full symmetric group on its
support, so the group is the product of the symmetric groups on its
orbits and its order is the product of the orbit sizes' factorials. The
engine never lists elements; the tests check orders against the closure
oracles and the stabilizer chain in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["PermGroup", "generate_group"]

Pair = tuple[int, int]


@dataclass(frozen=True)
class PermGroup:
    """A permutation group on 0..degree-1 with its exact order and the
    orbit partition (fixed points as singletons). ``generators`` are its
    transpositions as sorted pairs ``(i, j)`` with ``i < j``."""

    degree: int
    generators: tuple[Pair, ...]
    order: int
    orbits: tuple[tuple[int, ...], ...]

    def to_one_based_generators(self) -> list[list[int]]:
        """The generators as 1-based one-line image lists, in
        lexicographic order."""
        images = []
        for i, j in self.generators:
            img = list(range(1, self.degree + 1))
            img[i], img[j] = j + 1, i + 1
            images.append(img)
        return sorted(images)


def generate_group(pairs: list[Pair] | tuple[Pair, ...], degree: int) -> PermGroup:
    """The group generated by the transpositions ``pairs``, with canonical
    sorted generators, exact order and orbit partition.

    Each pair must hold two distinct points of 0..degree-1, or
    ``ValueError`` names it; ``(j, i)`` and ``(i, j)`` are one generator.
    The order is the product of the orbit sizes' factorials.
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    swaps: set[Pair] = set()
    for pair in pairs:
        if len(pair) != 2 or pair[0] == pair[1] or not all(0 <= p < degree for p in pair):
            raise ValueError(
                f"{pair!r} is not a pair of distinct points of 0..{degree - 1}"
            )
        swaps.add((min(pair), max(pair)))
    generators = tuple(sorted(swaps))

    parent = list(range(degree))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in generators:
        parent[find(i)] = find(j)
    buckets: dict[int, list[int]] = {}
    for x in range(degree):
        buckets.setdefault(find(x), []).append(x)
    orbits = tuple(sorted(tuple(sorted(b)) for b in buckets.values()))
    order = math.prod(math.factorial(len(orbit)) for orbit in orbits)
    return PermGroup(
        degree=degree, generators=generators, order=order, orbits=orbits
    )
