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

One window answers every question about swapping markings i and j,
a_i <= a_j.  The swap fixes the sum of a set holding both or neither,
and sends a set S holding i but not j to S - i + j, adding
a_j - a_i >= 0.  So S changes smallness (sum at most one) exactly when
the packet S - i sums into (1 - a_j, 1 - a_i], empty when a_i = a_j;
on the integer form, (D - s_j, D - s_i], which
:func:`hassett.kernels.find_subset_in_interval` decides.  The swap keeps
the signature on sets of size at least m exactly when no packet of at
least m - 1 other markings lands there.  The window asks three things:

* fine symmetry (m = 2): packets of at least one other marking, the
  cuts of :func:`hassett.families.signature_relabeling`;
* admissibility under ``exclude_ij`` (``--strict-atrans``): packets of
  at least two other markings, which is coarse symmetry (m = 3);
* admissibility under the default, literal reading: packets of at
  least two markings drawn from all of them.  A packet may then hold i
  or j itself (whose weight counts twice, in the packet and as the
  anchor), so this is not a chamber notion: the pair itself can be the
  one violating packet of a swap that keeps the fine signature.

The witness is the window kernel's first set, by size then
lexicographically, over the markings away from the pair, then, under
the literal reading only, over all markings: when no away packet
violates, every violating packet touches the pair, so that first set is
the first touching packet, as canonical order (away packets first) asks.

The decision depends only on the two swapped values and the multiset of
the other weights, which is the same for every pair of markings carrying
those two values.  :func:`admissible_generators` therefore decides each
unordered pair of weight values once and lists every marking pair with
that value pair.

The admissibility relation on positive-weight markings is provably
transitive under both readings.  Under the literal reading the packet
sums do not depend on the pair, and the window of an outer pair is the
union of its inner windows: for a_i < a_k < a_j, (1 - a_j, 1 - a_i] is
the union of (1 - a_j, 1 - a_k] and (1 - a_k, 1 - a_i]; when a_k lies
outside [a_i, a_j], one of the two windows of the pairs through k
already contains the outer one.  For the strictly-away reading a
violating packet for the outer pair either already violates an inner
pair, or exchanging the middle marking for an endpoint shifts its sum
into an inner violation window, whose union is the outer window.  The
test suite probes transitivity under both readings; the implementation
never relies on it and always generates the group from the pairwise
swaps.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, combinations_with_replacement, product

from . import kernels
from .families import FAMILY_KAPRANOV, FAMILY_KEEL, classify_with_relabeling
from .perms import PermGroup, generate_group
from .weights import ONE, WeightData, coarse_equivalent_genus0, require_valid

__all__ = [
    "NOT_COVERED_MESSAGE",
    "AutDescription",
    "NotCoveredError",
    "admissible_generators",
    "aut_group",
    "is_admissible",
]

NOT_COVERED_MESSAGE = "no theorem in scope covers this weight datum"


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


def is_admissible(
    w: WeightData, i: int, j: int, exclude_ij: bool = False
) -> tuple[bool, tuple[int, ...] | None]:
    """Decide whether swapping markings i and j is admissible.

    Packets are drawn from all markings (the literal reading) or, with
    ``exclude_ij``, strictly away from {i, j}; the module docstring gives
    the window both readings ask about.  Returns ``(True, None)`` or
    ``(False, witness)`` with the first violating packet, an ascending
    tuple of markings in canonical order: packets away from {i, j} first,
    then those touching them, each by size then lexicographically.  The
    interval kernel decides and the window kernel's first set is the
    witness; the two are independent searches on
    :attr:`WeightData.integer_form`, and a disagreement between them
    raises ``RuntimeError``.  The datum is validated first, so invalid
    data raise :class:`~hassett.weights.InvalidWeightDataError` before
    any index check.
    """
    require_valid(w)
    n = w.n
    if not (1 <= i <= n and 1 <= j <= n):
        raise ValueError(f"marking indices must lie in 1..{n}")
    if i == j:
        raise ValueError("the two markings must differ")
    scaled, cap = w.integer_form
    s_i, s_j = scaled[i - 1], scaled[j - 1]
    if s_i == 0 or s_j == 0:
        raise ValueError("admissibility is defined for positive weights only")
    if s_i == s_j:
        return True, None

    # Packets away from the pair first; under the literal reading all
    # markings follow, and the kernel decides over the last pool.
    others = [k for k in range(1, n + 1) if k != i and k != j]
    pools = [others] if exclude_ij else [others, list(range(1, n + 1))]
    lo, hi = cap - max(s_i, s_j), cap - min(s_i, s_j)
    values = [scaled[k - 1] for k in pools[-1]]
    if kernels.find_subset_in_interval(values, lo, hi, 2) == -1:
        return True, None
    for pool in pools:
        packet = kernels.first_small_subset(
            [scaled[k - 1] for k in pool], lo, hi, 2, n, pool
        )
        if packet is not None:
            return False, packet
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
    scaled = w.integer_form[0]
    positive = [block for block in w.weight_classes if scaled[block[0] - 1]]
    gens = []
    for first, second in combinations_with_replacement(positive, 2):
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
    return generate_group([(x, x + 1) for x in range(n - 1)], n)


def _genus_zero(w: WeightData) -> AutDescription:
    n = w.n
    if w.zero_indices():
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
    if spec.family == FAMILY_KAPRANOV and spec.r == 1:
        if spec.s == 1:
            raise NotCoveredError(
                "the one-heavy family with minimal second weight"
                " carries no covered automorphism theorem"
            )
        # Light slots 1..n-2 permute; at the top second weight an extra
        # factor swaps the two remaining slots.  These generators are
        # isomorphism data transported to the input's slot labels.
        gens = [(sigma0[x], sigma0[x + 1]) for x in range(n - 3)]
        if spec.s == n - 3:
            gens.append((sigma0[n - 2], sigma0[n - 1]))
        return _described(n - 3, generate_group(gens, n), provenance)
    if spec.family == FAMILY_KEEL and spec.h < n - 4:
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
        return _described(
            0,
            generate_group([(i - 1, j - 1) for i, j in pairs], n),
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
