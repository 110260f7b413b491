"""Automorphism groups of moduli of weighted pointed stable curves.

A transposition of two positive-weight markings extends to the moduli
space exactly when it preserves, for every auxiliary packet of at least
two other markings, which side of the sum-at-most-one wall the combined
weight lands on.  Inadmissible swaps only give birational self-maps: some
rational tail changes its contraction status.  The admissible swaps,
together with arbitrary permutations of zero-weight markings, generate
the finite part of the automorphism group whenever the genus is at least
two, or the genus is one with at least three markings and at least two
positive weights.  Genus zero carries extra continuous symmetries and is
handled through the named-family classification table; the handful of
small special cases (elliptic with one or two markings, unpointed curves,
four points on a line) are dispatched explicitly.

Two readings of the packet quantifier are supported.  The default reads
it literally: packets are sets of at least two distinct markings drawn
from all of them, so a packet may contain the swapped pair's own members
(whose weights then count twice in the compared sums, once inside the
packet and once as the anchor).  The alternative reading
(``exclude_ij``) draws packets strictly away from the swapped pair.
Admissibility is decided through the subset-sum kernel on half-open
violation windows (1 - max(a_i, a_j) - shift, 1 - min(a_i, a_j) - shift],
one window per way a packet can touch the pair; the reported witness
packet is recomputed independently by direct enumeration in canonical
order (packets avoiding the swapped pair first, ordered by size then
lexicographically).  The enumeration skips every packet size whose
smallest and largest possible sums, read off prefix sums of the sorted
other weights and shifted by the touched members, cannot meet the window;
skipped packets never violate, so the first witness is unchanged.

The decision depends only on the two swapped values and the multiset of
the other weights, which is the same for every pair of markings carrying
those two values.  :func:`admissible_generators` therefore decides each
unordered pair of weight values once and lists every marking pair with
that value pair.

For the strictly-away reading the admissibility relation on
positive-weight markings is provably transitive: a violating packet for
the outer pair either already violates an inner pair, or exchanging the
middle marking for an endpoint shifts its sum into an inner violation
window, whose union is the outer window.  For the default reading the
test suite probes transitivity empirically; the implementation never
relies on it and always generates the group from the pairwise swaps.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import (
    accumulate,
    combinations,
    combinations_with_replacement,
    product,
)

from . import kernels
from .families import classify_with_relabeling
from .perms import PermGroup, generate_group, transposition
from .weights import WeightData, coarse_equivalent_genus0, require_valid

__all__ = [
    "NOT_COVERED_MESSAGE",
    "AutDescription",
    "NotCoveredError",
    "admissible_generators",
    "aut_group",
    "is_admissible",
]

NOT_COVERED_MESSAGE = "no theorem in scope covers this weight datum"

ONE = Fraction(1)


class NotCoveredError(Exception):
    """No covered theorem determines the automorphism group.

    A first-class outcome distinct from invalid input: the weight datum is
    perfectly good, but nothing in scope computes its automorphisms and
    the engine refuses to extrapolate.  ``str()`` is always the fixed
    sentence in :data:`NOT_COVERED_MESSAGE`; ``detail`` narrows down which
    dispatch gap was hit.
    """

    def __init__(self, detail: str | None = None):
        super().__init__(NOT_COVERED_MESSAGE)
        self.detail = detail


@dataclass(frozen=True)
class AutDescription:
    """Isomorphism data for the automorphism group of one moduli space.

    ``torus_rank`` counts the continuous factor; ``finite`` is the finite
    part as a concrete permutation group (its generators are isomorphism
    data, not necessarily marking-induced maps).  ``special`` flags the
    exceptional shapes (``"PGL2"``, ``"torus-only"``, ``"trivial"``);
    for ``PGL2`` the rank and finite part are absent.  ``provenance``
    names the dispatch clause that produced the answer.
    """

    torus_rank: int | None
    finite: PermGroup | None
    label: str
    special: str | None
    stack_note: str | None
    provenance: str

    @property
    def finite_order(self) -> int | None:
        return self.finite.order if self.finite is not None else None

    def to_json_dict(self) -> dict:
        return {
            "torus_rank": self.torus_rank,
            "finite_order": self.finite_order,
            "finite_generators": (
                self.finite.to_one_based_generators()
                if self.finite is not None
                else None
            ),
            "label": self.label,
            "special": self.special,
            "stack_note": self.stack_note,
            "provenance": self.provenance,
        }


def _witness_candidates(
    scaled: list[int], i: int, j: int, lo: int, hi: int, exclude_ij: bool
):
    """Packets in canonical reporting order, as sorted index tuples.

    Packets drawn away from {i, j} come first, by size then
    lexicographically; under the default literal reading the packets
    touching i or j follow, in the same order.  A size is skipped when no
    packet of that size can sum into the window (lo, hi]: the smallest
    sum of that many other weights, shifted by the touched members of
    {i, j}, lies above hi, or the largest lies at or below lo.
    """
    n = len(scaled)
    others = [x for x in range(1, n + 1) if x != i and x != j]
    ordered = sorted(scaled[x - 1] for x in others)
    least = list(accumulate(ordered, initial=0))
    most = list(accumulate(reversed(ordered), initial=0))
    s_i, s_j = scaled[i - 1], scaled[j - 1]

    def may_land(size: int, shift: int) -> bool:
        return (
            0 <= size <= len(others)
            and least[size] + shift <= hi
            and most[size] + shift > lo
        )

    for size in range(2, len(others) + 1):
        if may_land(size, 0):
            yield from combinations(others, size)
    if exclude_ij:
        return
    for size in range(2, n + 1):
        if (
            may_land(size - 1, s_i)
            or may_land(size - 1, s_j)
            or may_land(size - 2, s_i + s_j)
        ):
            for combo in combinations(range(1, n + 1), size):
                if i in combo or j in combo:
                    yield combo


def is_admissible(
    w: WeightData, i: int, j: int, exclude_ij: bool = False
) -> tuple[bool, frozenset[int] | None]:
    """Decide whether swapping markings i and j is admissible.

    Default (literal) reading: packets are index sets of size at least
    two drawn from all markings, so they may contain i or j themselves;
    a contained member's weight counts twice in the compared sums, once
    in the packet and once as the anchor.  With ``exclude_ij`` packets
    are drawn strictly away from {i, j}.

    Returns ``(True, None)`` or ``(False, witness)`` with the first
    violating packet in canonical order.  The decision runs through the
    subset-sum kernel; the witness comes from independent enumeration,
    and a disagreement between the two routes raises ``RuntimeError``.
    Both routes work on the integers of :meth:`WeightData.scaled`: the
    enumeration compares ``s_i + sum(T) <= cap`` with
    ``s_j + sum(T) <= cap`` packet by packet, without the kernel's
    windows. The datum is validated first, so invalid data raise
    :class:`~hassett.weights.InvalidWeightDataError` before any index
    check.
    """
    require_valid(w)
    n = w.n
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"marking indices must lie in 1..{n}")
    if i == j:
        raise ValueError("the two markings must differ")
    a_i, a_j = w.weights[i - 1], w.weights[j - 1]
    if a_i == 0 or a_j == 0:
        raise ValueError("admissibility is defined for positive weights only")
    if a_i == a_j:
        return True, None

    scaled, cap = w.scaled()
    s_i, s_j = scaled[i - 1], scaled[j - 1]
    pool = [scaled[k - 1] for k in range(1, n + 1) if k != i and k != j]
    # Half-open violation window (lo, hi] for plain packet sums.
    lo, hi = cap - max(s_i, s_j), cap - min(s_i, s_j)
    windows = [(lo, hi, 2)]
    if not exclude_ij:
        # Packets containing i, j, or both shift the compared sums by the
        # contained members; each case is one translated window over the
        # same pool, with the size floor reduced by the fixed members.
        for shift, floor in (
            (s_i, 1),
            (s_j, 1),
            (s_i + s_j, 0),
        ):
            windows.append((lo - shift, hi - shift, floor))
    violated = any(
        kernels.find_subset_in_interval(pool, w_lo, w_hi, size) != -1
        for w_lo, w_hi, size in windows
    )
    if not violated:
        return True, None
    for packet in _witness_candidates(scaled, i, j, lo, hi, exclude_ij):
        total = sum(scaled[k - 1] for k in packet)
        if (s_i + total <= cap) != (s_j + total <= cap):
            return False, frozenset(packet)
    raise RuntimeError(
        "subset-sum kernel reported a violation but enumeration found none"
    )


def admissible_generators(
    w: WeightData, exclude_ij: bool = False
) -> list[tuple[int, int]]:
    """Transpositions generating the finite automorphism part.

    All admissible swaps of positive-weight markings, then all swaps of
    zero-weight markings (which permute freely among themselves), as
    sorted 1-based pairs.  Each unordered pair of positive weight values
    is decided once, on its first pair of markings, and the answer holds
    for every marking pair carrying those values: the decision reads only
    the two values and the multiset of the remaining weights.
    """
    require_valid(w)
    by_value: dict[Fraction, list[int]] = {}
    for k in w.positive_indices():
        by_value.setdefault(w.weights[k - 1], []).append(k)
    gens = []
    for first, second in combinations_with_replacement(by_value.values(), 2):
        if first is second:
            pairs = list(combinations(first, 2))
        else:
            pairs = [tuple(sorted(p)) for p in product(first, second)]
        if pairs and is_admissible(w, *pairs[0], exclude_ij)[0]:
            gens.extend(pairs)
    gens.extend(combinations(w.zero_indices(), 2))
    return sorted(gens)


def _finite_label(group: PermGroup) -> str:
    parts = sorted((len(o) for o in group.orbits if len(o) >= 2), reverse=True)
    return " x ".join(f"S{p}" for p in parts) or "trivial"


def _described(
    torus_rank: int,
    group: PermGroup,
    provenance: str,
    stack_note: str | None = None,
) -> AutDescription:
    label = _finite_label(group)
    if torus_rank > 0:
        label = "torus" if label == "trivial" else f"torus x {label}"
    special = None
    if torus_rank > 0 and group.order == 1:
        special = "torus-only"
    elif torus_rank == 0 and group.order == 1:
        special = "trivial"
    return AutDescription(
        torus_rank=torus_rank,
        finite=group,
        label=label,
        special=special,
        stack_note=stack_note,
        provenance=provenance,
    )


def _symmetric_group(n: int) -> PermGroup:
    return generate_group(
        [transposition(x, x + 1, n) for x in range(n - 1)], n
    )


def _genus_zero(w: WeightData) -> AutDescription:
    n = w.n
    if any(a == 0 for a in w.weights):
        raise NotCoveredError(
            "zero weights in genus zero are outside every covered theorem"
        )
    classical = WeightData(0, (ONE,) * n)
    if n >= 4 and coarse_equivalent_genus0(w, classical):
        if n == 4:
            return AutDescription(
                torus_rank=None,
                finite=None,
                label="PGL2",
                special="PGL2",
                stack_note=None,
                provenance="four points on the projective line",
            )
        return _described(
            0,
            _symmetric_group(n),
            "classical space with every weight one (genus zero)",
        )
    found = classify_with_relabeling(w)
    if found is None:
        raise NotCoveredError(
            "genus-zero datum matches no covered family chamber"
        )
    spec, sigma = found
    sigma0 = [s - 1 for s in sigma]
    provenance = f"genus-zero family table: {spec.notation()}"
    if spec.family == "kapranov" and spec.r == 1:
        if spec.s == 1:
            raise NotCoveredError(
                "the one-heavy family with minimal second weight"
                " carries no covered automorphism theorem"
            )
        # Light slots 1..n-2 permute; at the top second weight an extra
        # factor swaps the two remaining slots.  These generators are
        # isomorphism data transported to the input's slot labels.
        gens = [
            transposition(sigma0[x], sigma0[x + 1], n) for x in range(n - 3)
        ]
        if spec.s == n - 3:
            gens.append(transposition(sigma0[n - 2], sigma0[n - 1], n))
        return _described(n - 3, generate_group(gens, n), provenance)
    if spec.family == "keel" and spec.h < n - 4:
        raise NotCoveredError(
            "the iterated-contraction family is covered only from"
            " stage n-4 onward"
        )
    # Remaining rows (several full slots, the symmetric family, the
    # covered contraction stages) all have the full symmetric group.
    return _described(0, _symmetric_group(n), provenance)


def aut_group(w: WeightData, exclude_ij: bool = False) -> AutDescription:
    """Dispatch the automorphism computation across the covered theorems.

    Raises :class:`NotCoveredError` for valid weight data that no covered
    result determines; the engine never fabricates a group.
    """
    require_valid(w)
    g, n = w.genus, w.n
    positive = len(w.positive_indices())
    if g >= 2 and n == 0:
        return _described(
            0,
            generate_group([], 0),
            "unpointed curve of genus at least two",
        )
    if g >= 2 or (g == 1 and n >= 3 and positive >= 2):
        pairs = admissible_generators(w, exclude_ij)
        gens = [transposition(i - 1, j - 1, n) for i, j in pairs]
        return _described(
            0,
            generate_group(gens, n),
            "admissible swaps and zero-weight swaps (positive genus)",
        )
    if g == 1 and n == 1:
        return AutDescription(
            torus_rank=None,
            finite=None,
            label="PGL2",
            special="PGL2",
            stack_note="stack: ℂ*",
            provenance="elliptic curve with one marked point",
        )
    if g == 1 and n == 2 and positive == 2:
        return _described(
            2,
            generate_group([], 2),
            "elliptic curve with two positive-weight markings",
            stack_note="stack: trivial",
        )
    if g == 0:
        return _genus_zero(w)
    raise NotCoveredError(
        f"genus {g} with {n} markings and {positive} positive weights"
        " matches no covered clause"
    )
