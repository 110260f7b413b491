"""Independent brute-force oracles.

Everything here is written against the mathematical definitions directly,
with plain itertools enumeration over Fraction arithmetic, and shares no
code path with the package (which scales to integers and runs pruned
kernels). Tests compare the two routes; a substitution on one side must
never be mirrored on the other. ``brute_window`` is the one oracle over
integers: it states the enumeration kernel's contract on its own inputs,
by filtering every subset.

Group elements are listed here only: ``naive_closure`` multiplies until
stable, and ``close_permutations`` closes breadth-first under a size limit.
The package computes group orders without listing elements.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

ONE = Fraction(1)


def brute_signature(weights: list[Fraction]) -> set[frozenset[int]]:
    """All 1-based index sets of size >= 2 with weight sum <= 1."""
    n = len(weights)
    out: set[frozenset[int]] = set()
    for r in range(2, n + 1):
        for combo in combinations(range(1, n + 1), r):
            if sum(weights[i - 1] for i in combo) <= ONE:
                out.add(frozenset(combo))
    return out


def brute_window(
    values: list[int], lo: int, hi: int, min_size: int, max_size: int
) -> list[tuple[int, ...]]:
    """The 1-based index tuples T with lo < sum(T) <= hi and
    min_size <= |T| <= max_size: every one of the 2^n subsets filtered,
    then sorted by size and then as tuples."""
    n = len(values)
    hits = []
    for mask in range(1 << n):
        t = tuple(i + 1 for i in range(n) if mask >> i & 1)
        if min_size <= len(t) <= max_size and lo < sum(values[i - 1] for i in t) <= hi:
            hits.append(t)
    return sorted(hits, key=lambda t: (len(t), t))


def brute_walls(weights: list[Fraction]) -> list[tuple[int, ...]]:
    """All 1-based index sets of size >= 2 with weight sum exactly 1, as
    sorted tuples, by size and then lexicographically (the order
    combinations yield)."""
    n = len(weights)
    return [
        combo
        for r in range(2, n + 1)
        for combo in combinations(range(1, n + 1), r)
        if sum(weights[i - 1] for i in combo) == ONE
    ]


def witness_order(n: int, i: int, j: int, exclude_ij: bool):
    """Candidate index sets in canonical order: sets avoiding {i, j} first,
    then (unless excluded) sets touching them; size before lexicographic."""
    others = [x for x in range(1, n + 1) if x not in (i, j)]
    for r in range(2, len(others) + 1):
        yield from (frozenset(c) for c in combinations(others, r))
    if exclude_ij:
        return
    for r in range(2, n + 1):
        for combo in combinations(range(1, n + 1), r):
            if i in combo or j in combo:
                yield frozenset(combo)


def brute_admissible(
    weights: list[Fraction], i: int, j: int, exclude_ij: bool = False
) -> tuple[bool, frozenset[int] | None]:
    """Decide admissibility of the transposition (i j) by full enumeration.

    (i j) is admissible when a_i + sum(T) <= 1 and a_j + sum(T) <= 1 agree
    for every index set T of size >= 2 (drawn from all markings, or from
    those away from {i, j} when exclude_ij is set). Returns the decision and
    the first violating T in canonical order.
    """
    ai, aj = weights[i - 1], weights[j - 1]
    for t in witness_order(len(weights), i, j, exclude_ij):
        s = sum(weights[k - 1] for k in t)
        if (ai + s <= ONE) != (aj + s <= ONE):
            return False, t
    return True, None


def naive_closure(gens: list[tuple[int, ...]], degree: int) -> set[tuple[int, ...]]:
    """Group elements by repeated multiplication until stable."""
    elements = {tuple(range(degree))}
    elements.update(gens)
    while True:
        fresh = set()
        for p in elements:
            for q in elements:
                r = tuple(q[p[x]] for x in range(degree))
                if r not in elements:
                    fresh.add(r)
        if not fresh:
            return elements
        elements |= fresh


def close_permutations(
    gens: list[tuple[int, ...]], degree: int, limit: int
) -> list[tuple[int, ...]] | None:
    """All products of the generators, by breadth-first closure.

    Permutations are 0-based image tuples; composition ``p * g`` maps
    ``x -> g[p[x]]``. Returns the sorted element list (identity included),
    or None once the closure exceeds ``limit`` elements.
    """
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(g[p[x]] for x in range(degree))
                if q not in seen:
                    seen.add(q)
                    if len(seen) > limit:
                        return None
                    nxt.append(q)
        frontier = nxt
    return sorted(seen)


def brute_nodal_divisors(
    genus: int, weights: list[Fraction]
) -> set[tuple[int, frozenset[int]]]:
    """Boundary divisors with one node, as (genus of the side, side markings).

    A splitting C_1 cup C_2 with genera g_1 + g_2 = g and markings S on the
    C_1 side is a divisor exactly when each genus-0 side carries weight more
    than 1 in total (counting the node as weight 1); genus >= 1 sides are
    always fine. Canonical key: the side of smaller genus, ties broken by
    the smaller marking set (fewer markings first, then lexicographic).
    """
    n = len(weights)
    out: set[tuple[int, frozenset[int]]] = set()
    full = frozenset(range(1, n + 1))

    def side_ok(g_side: int, members: frozenset[int]) -> bool:
        if g_side >= 1:
            return True
        return sum(weights[i - 1] for i in members) > ONE

    for g1 in range(0, genus // 2 + 1):
        g2 = genus - g1
        for r in range(0, n + 1):
            for combo in combinations(sorted(full), r):
                s = frozenset(combo)
                comp = full - s
                if g1 == g2 and (len(comp), sorted(comp)) < (len(s), sorted(s)):
                    continue
                if side_ok(g1, s) and side_ok(g2, comp):
                    out.add((g1, s))
    return out
