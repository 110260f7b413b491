"""Independent reference implementations: brute force and full searches.

The subset oracles are written against the mathematical definitions
directly, with plain itertools enumeration over Fraction arithmetic, and
share no code path with the package (which scales to integers and runs
pruned kernels). Tests compare the two routes; a substitution on one side
must never be mirrored on the other. ``brute_window`` is the one subset
oracle over integers: it states the enumeration kernel's contract on its
own inputs, by filtering every subset.

Group elements are listed here only: ``naive_closure`` multiplies until
stable, and ``close_permutations`` closes breadth-first under a size limit.
``stabilizer_chain_order`` computes the order of any permutation group,
by a Schreier-Sims chain, without listing it. All three take 0-based
one-line image tuples; ``transposition_image`` spells out the swap of two
points as one, so the oracles never multiply images the package built.
The package takes transpositions as pairs of points and reads the order
off the orbits.

``reference_violations`` and ``reference_scaled`` state validity and the
integer form of a datum over ``Fraction`` values, as the package did
before it scaled each datum once to integers; ``row_holds`` checks one
linear row at a point by ``Fraction`` arithmetic.

``swap_keeps_signature`` tests set by set whether a transposition maps
a datum's small sets of a given least size onto themselves; the package
asks one subset-sum window instead.

``signature_antichains`` lists the maximal small and minimal big sets
that pin a signature; the package lists their types over weight classes.

``brute_chamber_key`` is a signature up to relabeling: the least of its
images under every slot permutation, for n <= 6. The package computes a
key from the weights instead, as class sizes and extremal types.

``backtrack_relabeling`` searches the fingerprint-respecting slot
bijections for one that carries a signature onto another, and
``fingerprint_relabeling`` builds one greedily from the per-slot
fingerprints (how many sets of each size contain the slot). Both read
signature sets. The package works on the weights instead: it sorts both
data by weight, merges the source's runs of interchangeable slots, and
checks the map against the signature sets once.

Nothing here imports ``hassett``; ``tests/test_oracles.py`` checks that.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations
from math import lcm
from operator import itemgetter

ONE = Fraction(1)


def _rational_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def reference_violations(genus: int, weights: list[Fraction]) -> list[str]:
    """The violation messages of a datum, computed on Fraction values."""
    problems: list[str] = []
    if genus < 0:
        problems.append(f"genus must be nonnegative, got {genus}")
    for i, a in enumerate(weights, start=1):
        if not (0 <= a <= 1):
            problems.append(f"weight {i} = {_rational_text(a)} is outside [0, 1]")
    if genus >= 0:
        slack = 2 * genus - 2 + sum(weights, Fraction(0))
        if slack <= 0:
            problems.append(
                f"2g - 2 + sum(weights) = {_rational_text(slack)} must be positive"
            )
        if not weights and genus < 2:
            problems.append("a datum with no markings needs genus >= 2")
    return problems


def reference_scaled(weights: list[Fraction]) -> tuple[list[int], int]:
    """Integers s_i and the lcm d of the denominators, a_i = s_i / d."""
    d = lcm(*(a.denominator for a in weights)) if weights else 1
    return [int(a * d) for a in weights], d


def row_holds(coeffs, rel: str, bound, point) -> bool:
    """Whether sum(coeffs[i] * point[i]) rel bound, rel one of <=, <, =."""
    lhs = sum((c * x for c, x in zip(coeffs, point)), Fraction(0))
    if rel == "<=":
        return lhs <= bound
    if rel == "<":
        return lhs < bound
    return lhs == bound


def canonical_sets(sets) -> list[tuple[int, ...]]:
    """The index sets as sorted tuples, by size and then
    lexicographically."""
    return sorted((tuple(sorted(s)) for s in sets), key=lambda s: (len(s), s))


def brute_signature(weights: list[Fraction]) -> set[frozenset[int]]:
    """All 1-based index sets of size >= 2 with weight sum <= 1."""
    n = len(weights)
    out: set[frozenset[int]] = set()
    for r in range(2, n + 1):
        for combo in combinations(range(1, n + 1), r):
            if sum(weights[i - 1] for i in combo) <= ONE:
                out.add(frozenset(combo))
    return out


def signature_antichains(
    weights: list[Fraction], min_size: int
) -> tuple[list[frozenset[int]], list[frozenset[int]]]:
    """The maximal small sets and the minimal big sets of sizes >= min_size
    of the signature of ``weights``, by testing every set: a small set is
    maximal when adding any slot makes it big; a big set is minimal when it
    has min_size members or removing any slot makes it small."""
    n = len(weights)
    universe = range(1, n + 1)
    smalls = {s for s in brute_signature(weights) if len(s) >= min_size}
    maximal = [
        s
        for s in smalls
        if not any(x not in s and s | {x} in smalls for x in universe)
    ]
    minimal: list[frozenset[int]] = []
    for size in range(min_size, n + 1):
        for combo in combinations(universe, size):
            s = frozenset(combo)
            if s in smalls:
                continue
            if size == min_size or all(s - {x} in smalls for x in s):
                minimal.append(s)
    return maximal, minimal


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
    """Candidate index sets, as ascending tuples, in canonical order: sets
    avoiding {i, j} first, then (unless excluded) sets touching them; size
    before lexicographic."""
    others = [x for x in range(1, n + 1) if x not in (i, j)]
    for r in range(2, len(others) + 1):
        yield from combinations(others, r)
    if exclude_ij:
        return
    for r in range(2, n + 1):
        for combo in combinations(range(1, n + 1), r):
            if i in combo or j in combo:
                yield combo


def brute_admissible(
    weights: list[Fraction], i: int, j: int, exclude_ij: bool = False
) -> tuple[bool, tuple[int, ...] | None]:
    """Decide admissibility of the transposition (i j) by full enumeration.

    (i j) is admissible when a_i + sum(T) <= 1 and a_j + sum(T) <= 1 agree
    for every index set T of size >= 2 (drawn from all markings, or from
    those away from {i, j} when exclude_ij is set). Returns the decision and
    the first violating T in canonical order, as an ascending tuple.
    """
    ai, aj = weights[i - 1], weights[j - 1]
    for t in witness_order(len(weights), i, j, exclude_ij):
        s = sum(weights[k - 1] for k in t)
        if (ai + s <= ONE) != (aj + s <= ONE):
            return False, t
    return True, None


def swap_keeps_signature(
    weights: list[Fraction], i: int, j: int, min_size: int
) -> bool:
    """Whether swapping the 1-based markings i and j maps the small sets
    (weight sum <= 1) of size >= min_size onto themselves: every such set
    is tested against its image."""
    n, swap = len(weights), {i: j, j: i}
    for r in range(min_size, n + 1):
        for combo in combinations(range(1, n + 1), r):
            image = [swap.get(k, k) for k in combo]
            if (sum(weights[k - 1] for k in combo) <= ONE) != (
                sum(weights[k - 1] for k in image) <= ONE
            ):
                return False
    return True


def transposition_image(i: int, j: int, degree: int) -> tuple[int, ...]:
    """The swap of 0-based points i and j as a one-line image tuple."""
    return tuple(j if x == i else i if x == j else x for x in range(degree))


def naive_closure(gens: list[tuple[int, ...]], degree: int) -> set[tuple[int, ...]]:
    """Group elements by repeated multiplication of known elements until
    stable, semi-naively: each round multiplies only the pairs with a
    factor that was new in the previous round, in both orders, since every
    product of two older elements was formed in an earlier round. The
    fixed point is the same set, closed under all products, and no step
    follows the generators the way breadth-first closure does."""
    elements = {tuple(range(degree))}
    elements.update(gens)
    if degree < 2:  # the identity alone; itemgetter needs two indices
        return elements
    new = set(elements)
    while new:
        # itemgetter(*p)(q) is the product x -> q[p[x]]
        fresh = set()
        for p in new:
            fresh.update(map(itemgetter(*p), elements))
        for q in elements:
            fresh.update(map(itemgetter(*q), new))
        new = fresh - elements
        elements |= new
    return elements


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


def brute_contractions(
    a_weights: list[Fraction], b_weights: list[Fraction], genus: int
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Divisors contracted by the reduction from weights a to weights b, as
    (collapsed side, canonical side) sorted tuples, ordered by the size of
    the collapsed side and then lexicographically.

    Every subset I is tried as the genus-0 side of a one-node curve whose
    other side has genus ``genus``. The divisor exists for a when each
    genus-0 side weighs more than 1 (the node counts as weight 1), and the
    reduction collapses I when b_I <= 1 while I keeps at least three
    markings of positive b-weight. The canonical side is the side of
    smaller genus, ties broken by fewer markings, then lexicographically.
    """
    n = len(a_weights)
    full = frozenset(range(1, n + 1))
    out = []
    for r in range(0, n + 1):
        for side in combinations(range(1, n + 1), r):
            comp = tuple(sorted(full - set(side)))
            if sum((a_weights[i - 1] for i in side), Fraction(0)) <= ONE:
                continue
            if genus == 0 and sum((a_weights[i - 1] for i in comp), Fraction(0)) <= ONE:
                continue
            if sum((b_weights[i - 1] for i in side), Fraction(0)) > ONE:
                continue
            if sum(1 for i in side if b_weights[i - 1] > 0) < 3:
                continue
            canonical = side
            if genus == 0 and (len(comp), comp) < (len(side), side):
                canonical = comp
            out.append((side, canonical))
    return out


def _mul(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Apply p, then q."""
    return tuple(q[p[x]] for x in range(len(p)))


def _inv(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def stabilizer_chain_order(gens: list[tuple[int, ...]], degree: int) -> int:
    """Order of the group the 0-based permutations generate, exactly.

    A deterministic Schreier-Sims construction: a base with strong
    generators, extended until every Schreier generator sifts to the
    identity; the order is the product of the basic orbit sizes.
    """
    ident = tuple(range(degree))
    gens = [tuple(g) for g in gens if tuple(g) != ident]
    if not gens:
        return 1
    base: list[int] = []
    strong: list[list[tuple[int, ...]]] = []
    transv: list[dict[int, tuple[int, ...]]] = []

    def extend_base(p: tuple[int, ...]) -> None:
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

    def strip(p: tuple[int, ...], start: int) -> tuple[tuple[int, ...], int]:
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


def brute_chamber_key(weights: list[Fraction]) -> tuple[tuple[int, ...], ...]:
    """The signature of ``weights`` up to relabeling: the lexicographically
    least of its images under the n! slot permutations, each as sorted
    tuples in canonical order. Two data get equal keys exactly when some
    permutation carries one signature onto the other. Meant for n <= 6."""
    n = len(weights)
    if n > 6:
        raise ValueError(f"{n}! relabelings are too many; n <= 6")
    sig = brute_signature(weights)
    return min(
        tuple(canonical_sets({frozenset(p[x - 1] for x in s) for s in sig}))
        for p in permutations(range(1, n + 1))
    )


def _fingerprints(sig, n: int) -> list[tuple[int, ...]]:
    """Per slot 1..n: how many sets of each size in ``sig`` contain it."""
    table = []
    for slot in range(1, n + 1):
        counts = [0] * (n + 1)
        for s in sig:
            if slot in s:
                counts[len(s)] += 1
        table.append(tuple(counts))
    return table


def fingerprint_relabeling(
    target: frozenset[frozenset[int]],
    source: frozenset[frozenset[int]],
    n: int,
) -> tuple[int, ...] | None:
    """The greedy fingerprint-respecting slot map, as a 1-based image tuple,
    if it carries every set of ``source`` onto exactly ``target``; else None.

    Each source slot, in index order, goes to the smallest free target slot
    of equal fingerprint.
    """
    if len(target) != len(source):
        return None
    if Counter(len(s) for s in target) != Counter(len(s) for s in source):
        return None
    fp_target = _fingerprints(target, n)
    fp_source = _fingerprints(source, n)
    if Counter(fp_target) != Counter(fp_source):
        return None
    # free target slots per fingerprint, largest first, so pop() takes the
    # smallest
    free: dict[tuple[int, ...], list[int]] = {}
    for slot in range(n, 0, -1):
        free.setdefault(fp_target[slot - 1], []).append(slot)
    sigma = tuple(free[fp].pop() for fp in fp_source)
    mapped = frozenset(frozenset(sigma[x - 1] for x in s) for s in source)
    return sigma if mapped == target else None


def backtrack_relabeling(
    target: frozenset[frozenset[int]],
    source: frozenset[frozenset[int]],
    n: int,
) -> tuple[int, ...] | None:
    """The first slot permutation, in backtracking order, that maps every
    set of ``source`` onto exactly ``target``, as a 1-based image tuple;
    None if there is none.

    Only bijections that respect the per-slot fingerprints (how many sets
    of each size contain the slot) are tried. Source slots with fewer
    candidates go first; candidates are tried smallest first.
    """
    if len(target) != len(source):
        return None
    if Counter(len(s) for s in target) != Counter(len(s) for s in source):
        return None
    fp_target = _fingerprints(target, n)
    fp_source = _fingerprints(source, n)
    if Counter(fp_target) != Counter(fp_source):
        return None
    candidates = [
        [i for i in range(n) if fp_target[i] == fp_source[j]]
        for j in range(n)
    ]
    order = sorted(range(n), key=lambda j: len(candidates[j]))
    assignment = [0] * n
    used = [False] * n

    def backtrack(pos: int) -> bool:
        if pos == n:
            mapped = frozenset(
                frozenset(assignment[x - 1] for x in s) for s in source
            )
            return mapped == target
        j = order[pos]
        for i in candidates[j]:
            if used[i]:
                continue
            used[i] = True
            assignment[j] = i + 1
            if backtrack(pos + 1):
                return True
            used[i] = False
        return False

    if backtrack(0):
        return tuple(assignment)
    return None
