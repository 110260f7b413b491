"""Finite permutation groups with exact order computation.

Groups are given by generators in 0-based one-line image notation. When
every generator is a transposition, the group is the product of the full
symmetric groups on its orbits (a connected set of transpositions
generates the symmetric group on its support), so the order is the
product of the orbit sizes' factorials. Every other group gets its order
from a deterministic stabilizer-chain construction (base and strong
generating set with Schreier generators), which stays exact at sizes
where explicit element listing is hopeless. The engine never lists
elements; the tests' closure oracles in ``tests/oracles.py`` cross-check
both routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["PermGroup", "generate_group", "transposition"]

Perm = tuple[int, ...]


def _mul(p: Perm, q: Perm) -> Perm:
    """Apply p, then q."""
    return tuple(q[p[x]] for x in range(len(p)))


def _inv(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


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


def _stabilizer_chain_order(gens: list[Perm], degree: int) -> int:
    """Product of orbit sizes along a base whose Schreier generators all
    sift to the identity — the group order, exactly."""
    ident = tuple(range(degree))
    if not gens:
        return 1
    base: list[int] = []
    strong: list[list[Perm]] = []
    transv: list[dict[int, Perm]] = []

    def extend_base(p: Perm) -> None:
        x = next(i for i in range(degree) if p[i] != i)
        base.append(x)
        strong.append([])
        transv.append({})

    def rebuild(i: int) -> None:
        b = base[i]
        tr = {b: ident}
        queue = [b]
        qi = 0
        while qi < len(queue):
            x = queue[qi]
            qi += 1
            tx = tr[x]
            for g in strong[i]:
                y = g[x]
                if y not in tr:
                    tr[y] = _mul(tx, g)
                    queue.append(y)
        transv[i] = tr

    def strip(p: Perm, start: int) -> tuple[Perm, int]:
        for i in range(start, len(base)):
            t = transv[i].get(p[base[i]])
            if t is None:
                return p, i
            p = _mul(p, _inv(t))
        return p, len(base)

    extend_base(gens[0])
    strong[0] = list(gens)
    rebuild(0)

    level = len(base) - 1
    while level >= 0:
        rebuild(level)
        dirty = False
        for x in sorted(transv[level]):
            tx = transv[level][x]
            for g in strong[level]:
                rep_back = transv[level][g[x]]
                schreier = _mul(_mul(tx, g), _inv(rep_back))
                if schreier == ident:
                    continue
                residue, stuck = strip(schreier, level + 1)
                if residue == ident:
                    continue
                if stuck == len(base):
                    extend_base(residue)
                for j in range(level + 1, stuck + 1):
                    strong[j].append(residue)
                    rebuild(j)
                level = stuck
                dirty = True
                break
            if dirty:
                break
        if dirty:
            continue
        level -= 1

    order = 1
    for tr in transv:
        order *= len(tr)
    return order


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
    """The group generated, with canonical sorted generators, exact order,
    and orbit partition."""
    if degree < 0:
        raise ValueError("degree must be non-negative")
    ident = tuple(range(degree))
    canon: set[Perm] = set()
    for g in gens:
        g = tuple(g)
        _check_perm(g, degree)
        if g != ident:
            canon.add(g)
    generators = tuple(sorted(canon))

    parent = list(range(degree))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    all_transpositions = True
    for g in generators:
        moved = 0
        for x in range(degree):
            if g[x] != x:
                moved += 1
                parent[find(x)] = find(g[x])
        all_transpositions = all_transpositions and moved == 2
    buckets: dict[int, list[int]] = {}
    for x in range(degree):
        buckets.setdefault(find(x), []).append(x)
    orbits = tuple(sorted(tuple(sorted(b)) for b in buckets.values()))

    if all_transpositions:
        order = math.prod(math.factorial(len(orbit)) for orbit in orbits)
    else:
        order = _stabilizer_chain_order(list(generators), degree)
    if degree <= 20 and math.factorial(degree) % order != 0:
        raise RuntimeError("computed order does not divide degree! — chain bug")
    return PermGroup(
        degree=degree, generators=generators, order=order, orbits=orbits
    )
