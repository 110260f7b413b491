"""Permutation groups generated by transpositions, with exact orders.

Groups are given by generators in 0-based one-line image notation, and
every generator must be a transposition: :func:`generate_group` raises
``ValueError`` on any other. Every group the engine builds is of this
kind (admissible swaps, zero-weight swaps, the symmetric factors of the
family table). A connected set of transpositions generates the full
symmetric group on its support, so the group is the product of the
symmetric groups on its orbits and its order is the product of the orbit
sizes' factorials. The engine never lists elements; the tests check
orders against the closure oracles and the stabilizer chain in
``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["PermGroup", "generate_group", "transposition"]

Perm = tuple[int, ...]


def transposition(i: int, j: int, degree: int) -> Perm:
    """The swap of 0-based points i and j."""
    if not (0 <= i < degree and 0 <= j < degree and i != j):
        raise ValueError(f"invalid transposition ({i}, {j}) at degree {degree}")
    img = list(range(degree))
    img[i], img[j] = img[j], img[i]
    return tuple(img)


def _check_perm(p: Perm, degree: int) -> None:
    if len(p) != degree or sorted(p) != list(range(degree)):
        raise ValueError(f"{p!r} is not a permutation of 0..{degree - 1}")


@dataclass(frozen=True)
class PermGroup:
    """A permutation group on 0..degree-1 with its exact order and the
    orbit partition (fixed points as singletons)."""

    degree: int
    generators: tuple[Perm, ...]
    order: int
    orbits: tuple[tuple[int, ...], ...]

    def to_one_based_generators(self) -> list[list[int]]:
        return [[v + 1 for v in g] for g in self.generators]


def generate_group(gens: list[Perm] | tuple[Perm, ...], degree: int) -> PermGroup:
    """The group generated by transpositions, with canonical sorted
    generators, exact order and orbit partition.

    Identity generators are dropped. Every other generator must be a
    transposition (move exactly two points), or ``ValueError`` names it.
    The order is the product of the orbit sizes' factorials.
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    swaps: dict[Perm, list[int]] = {}
    for g in gens:
        g = tuple(g)
        _check_perm(g, degree)
        moved = [x for x in range(degree) if g[x] != x]
        if not moved:
            continue
        if len(moved) != 2:
            raise ValueError(f"generator {g!r} is not a transposition")
        swaps[g] = moved
    generators = tuple(sorted(swaps))

    parent = list(range(degree))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in swaps.values():
        parent[find(i)] = find(j)
    buckets: dict[int, list[int]] = {}
    for x in range(degree):
        buckets.setdefault(find(x), []).append(x)
    orbits = tuple(sorted(tuple(sorted(b)) for b in buckets.values()))
    order = math.prod(math.factorial(len(orbit)) for orbit in orbits)
    return PermGroup(
        degree=degree, generators=generators, order=order, orbits=orbits
    )
