"""Named families of genus-zero weight data and their blow-up schedules.

Three classical ways of building the moduli space of n-pointed rational
curves by iterated blow-ups give rise to three one- or two-parameter
families of weight data, one datum per intermediate space:

* **Kapranov's iterated construction** (``kapranov:r=..,s=..``): blow up
  points of projective space one group at a time.  The intermediate
  space after finishing size-(s + r - 2) centers of step r is the
  moduli space with n - r - 1 light weights 1/(n-r-1), one weight
  s/(n-r-1), and r full weights.
* **The symmetric variant** (``sym:k=..``): blow up all points, then all
  lines, then all planes spanned by n - 1 general points of P^{n-3}.
  After step k the space carries n - 1 equal light weights 1/(n-k-2)
  and one full weight.
* **Keel's product construction** (``keel:h=..``): blow up loci inside
  (P^1)^{n-3} — first diagonal slices through three fixed fibers, then
  the small diagonals themselves.  The intermediate spaces carry three
  heavy markings (pairwise sums above one) and n - 3 light ones, with
  the exchange thresholds moving as h grows.

Each family is described by an exact linear condition system on the
weights, a canonical rational representative satisfying it, a
classifier inverting the construction up to chamber equivalence, and
the combinatorial schedule of blow-up centers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

from .linear import Constraint, LinearSystem
from .weights import (
    ONE,
    WeightData,
    _check_pair,
    _meets_class_rows,
    _same_chamber,
    _solve_over_classes,
    chamber_reduction_exists,
    chamber_signature,
    require_valid,
)

FAMILY_KAPRANOV = "kapranov"
FAMILY_SYM = "sym"
FAMILY_KEEL = "keel"

SCHEDULE_SCHEMA = "blowup-schedule/1"

#: Constructions accepted by :func:`blowup_schedule`.
CONSTRUCTIONS = ("kblu", "kblusym", "con2")

#: The space each construction blows up.
AMBIENTS = {"kblu": "P^{n-3}", "kblusym": "P^{n-3}", "con2": "(P^1)^{n-3}"}


class InfeasibleFamilyError(ValueError):
    """The condition system of a family admits no valid weight datum.

    Raised instead of returning a fabricated point: an infeasible system
    signals an inconsistent parameter reading and must surface.
    """


@dataclass(frozen=True)
class FamilySpec:
    """One member of a named family: the family tag, n, and parameters.

    ``params`` is ``(r, s)`` for Kapranov, ``(k,)`` for the symmetric
    variant, and ``(h,)`` for Keel.
    """

    family: str
    n: int
    params: tuple[int, ...]

    def __post_init__(self) -> None:
        """The ranges :meth:`from_notation` accepts, checked however the
        spec is built, so no family computation sees a parameter outside
        them."""
        n, arity = self.n, {FAMILY_KAPRANOV: 2, FAMILY_SYM: 1, FAMILY_KEEL: 1}
        if arity.get(self.family) != len(self.params):
            raise ValueError(
                f"not a family member: {self.family!r} with parameters {self.params!r}"
            )
        if self.family == FAMILY_KAPRANOV:
            r, s = self.params
            if n < 4:
                raise ValueError(f"Kapranov family needs n >= 4, got {n}")
            if not (1 <= r <= n - 3):
                raise ValueError(f"parameter r={r} outside 1..{n - 3} for n={n}")
            if not (1 <= s <= n - r - 2):
                raise ValueError(
                    f"parameter s={s} outside 1..{n - r - 2} for r={r}, n={n}"
                )
        elif self.family == FAMILY_SYM:
            (k,) = self.params
            if n < 5:
                raise ValueError(f"symmetric Kapranov family needs n >= 5, got {n}")
            if not (1 <= k <= n - 4):
                raise ValueError(f"parameter k={k} outside 1..{n - 4} for n={n}")
        else:
            (h,) = self.params
            if n < 5:
                raise ValueError(f"Keel family needs n >= 5, got {n}")
            if not (0 <= h <= 2 * n - 9):
                raise ValueError(f"parameter h={h} outside 0..{2 * n - 9} for n={n}")

    @property
    def r(self) -> int:
        if self.family != FAMILY_KAPRANOV:
            raise AttributeError(f"{self.family} family has no parameter r")
        return self.params[0]

    @property
    def s(self) -> int:
        if self.family != FAMILY_KAPRANOV:
            raise AttributeError(f"{self.family} family has no parameter s")
        return self.params[1]

    @property
    def k(self) -> int:
        if self.family != FAMILY_SYM:
            raise AttributeError(f"{self.family} family has no parameter k")
        return self.params[0]

    @property
    def h(self) -> int:
        if self.family != FAMILY_KEEL:
            raise AttributeError(f"{self.family} family has no parameter h")
        return self.params[0]

    def notation(self) -> str:
        if self.family == FAMILY_KAPRANOV:
            return f"kapranov:r={self.r},s={self.s},n={self.n}"
        if self.family == FAMILY_SYM:
            return f"sym:k={self.k},n={self.n}"
        return f"keel:h={self.h},n={self.n}"

    @classmethod
    def from_notation(cls, text: str) -> "FamilySpec":
        """Inverse of :meth:`notation`, with full range validation.

        Accepts ``kapranov:r=1,s=2,n=5``, ``sym:k=1,n=6``,
        ``keel:h=2,n=6``; raises ``ValueError`` otherwise.
        """
        shapes = {
            FAMILY_KAPRANOV: (("r", "s", "n"), kapranov_spec),
            FAMILY_SYM: (("k", "n"), sym_spec),
            FAMILY_KEEL: (("h", "n"), keel_spec),
        }
        head, sep, tail = text.strip().partition(":")
        if not sep or head not in shapes:
            raise ValueError(f"not a family notation: {text!r}")
        keys, build = shapes[head]
        parts = tail.split(",")
        if len(parts) != len(keys):
            raise ValueError(f"{head} notation needs {','.join(keys)}: {text!r}")
        values = []
        for key, part in zip(keys, parts):
            name, eq, digits = part.partition("=")
            if name != key or not eq or not re.fullmatch(r"-?[0-9]+", digits):
                raise ValueError(f"expected {key}=<integer>, got {part!r}")
            values.append(int(digits))
        return build(*values)


def kapranov_spec(r: int, s: int, n: int) -> FamilySpec:
    return FamilySpec(FAMILY_KAPRANOV, n, (r, s))


def sym_spec(k: int, n: int) -> FamilySpec:
    return FamilySpec(FAMILY_SYM, n, (k,))


def keel_spec(h: int, n: int) -> FamilySpec:
    return FamilySpec(FAMILY_KEEL, n, (h,))


def family_grid(n: int):
    """All family members at a given n, in classification order.

    Kapranov members come first (r ascending, then s, matching the step
    order of the iterated construction), then the symmetric variant,
    then Keel.
    """
    for r in range(1, n - 2):
        for s in range(1, n - r - 1):
            yield kapranov_spec(r, s, n)
    for k in range(1, max(1, n - 3)):
        yield sym_spec(k, n)
    for h in range(0, max(0, 2 * n - 8)):
        yield keel_spec(h, n)


# ---------------------------------------------------------------------------
# Weights and condition systems
# ---------------------------------------------------------------------------


def kapranov_weights(r: int, s: int, n: int) -> WeightData:
    """The weight datum of the Kapranov family member (r, s) at n markings.

    n - r - 1 copies of 1/(n-r-1), then s/(n-r-1), then r copies of 1.
    """
    kapranov_spec(r, s, n)
    light = Fraction(1, n - r - 1)
    weights = (light,) * (n - r - 1) + (s * light,) + (ONE,) * r
    return WeightData(0, weights)


def _slot_blocks(spec: FamilySpec) -> tuple[tuple[int, ...], ...]:
    """Slot groups under which the family's condition system is symmetric."""
    n = spec.n
    if spec.family == FAMILY_KAPRANOV:
        r = spec.r
        return (tuple(range(1, n - r)), (n - r,), tuple(range(n - r + 1, n + 1)))
    if spec.family == FAMILY_SYM:
        return (tuple(range(1, n)), (n,))
    return ((1, 2, 3), tuple(range(4, n + 1)))


def _block_rows(spec: FamilySpec) -> list[Constraint]:
    """The construction's condition rows over the blocks of :func:`_slot_blocks`.

    Column b of a row counts the slots its supports take from block b,
    negated in a ``sum > 1`` row; :func:`family_conditions` expands each
    row into its supports.  The Kapranov members pin each block to its
    weight by equality; the symmetric and Keel members have one threshold
    row, ``sum > 1`` (big) or ``sum <= 1``, per type of support.
    """
    n = spec.n
    if spec.family == FAMILY_KAPRANOV:
        rep = kapranov_weights(spec.r, spec.s, n).weights
        units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        return [
            Constraint(unit, "=", rep[block[0] - 1])
            for unit, block in zip(units, _slot_blocks(spec))
        ]
    if spec.family == FAMILY_SYM:
        k = spec.k
        types = [((1, 1), True)]
        types += [((size, 0), size >= n - k - 1) for size in range(2, n - 1)]
    else:
        h = spec.h
        types = [((2, 0), True)]
        if h <= n - 4:
            # Heavy-anchored phase: thresholds on one heavy plus light packets.
            types += [
                ((1, size), size >= n - h - 2)
                for size in range(2 if h == 0 else 1, n - 2)
            ]
        else:
            # Pure-light phase: thresholds on light packets alone.
            cut = 2 * n - h - 7
            types += [((0, size), size > cut) for size in range(1, n - 2)]
    return [
        Constraint(tuple(-c for c in t), "<", -ONE) if big else Constraint(t, "<=", ONE)
        for t, big in types
    ]


@lru_cache(maxsize=None)
def family_conditions(spec: FamilySpec) -> LinearSystem:
    """The construction's exact inequality system on the n weights.

    Each row of :func:`_block_rows` expanded into its supports, which
    come block by block in lexicographic order.  Only the inequalities
    of the construction itself appear; the generic box and validity rows
    (0 < a_i <= 1, total above two) are appended separately by the
    feasibility search.
    """
    n = spec.n
    blocks = _slot_blocks(spec)
    rows = []
    for row in _block_rows(spec):
        choices = [combinations(block, abs(c)) for c, block in zip(row.coeffs, blocks)]
        for parts in product(*choices):
            coeffs = [Fraction(0)] * n
            for c, part in zip(row.coeffs, parts):
                for slot in part:
                    coeffs[slot - 1] = Fraction(1 if c > 0 else -1)
            rows.append(Constraint(tuple(coeffs), row.rel, row.bound))
    return LinearSystem(n, tuple(rows))


def _closed_form(spec: FamilySpec) -> WeightData:
    """The closed-form representative of the family member, unchecked."""
    n = spec.n
    if spec.family == FAMILY_KAPRANOV:
        return kapranov_weights(spec.r, spec.s, n)
    if spec.family == FAMILY_SYM:
        light = Fraction(1, n - spec.k - 2)
        return WeightData(0, (light,) * (n - 1) + (ONE,))
    h = spec.h
    if h <= n - 4:
        # Heavy-anchored phase: one heavy plus up to k lights stays
        # at or below one, one more light pushes past it.
        k = n - h - 3
        light = Fraction(1, 2 * k + 2)
        heavy = Fraction(2 * k + 3, 4 * k + 4)
        return WeightData(0, (heavy,) * 3 + (light,) * (n - 3))
    if h == n - 3:
        # Exchange point: two full weights, one doubled light.
        light = Fraction(1, n - 3)
        return WeightData(0, (ONE, ONE) + (light,) * (n - 3) + (2 * light,))
    # Pure-light phase: packets of up to 2n-h-7 lights stay small,
    # larger ones grow big.
    cut = 2 * n - h - 7
    light = Fraction(2, 2 * cut + 1)
    return WeightData(0, (ONE, ONE) + (light,) * (n - 2))


@lru_cache(maxsize=None)
def representative_weights(spec: FamilySpec) -> WeightData:
    """Canonical rational representative of the family member.

    Closed forms, chosen strictly inside the condition region wherever
    the region has interior (threshold equalities are kept only where
    the conditions force them).  Every returned datum is re-checked
    against every row of :func:`family_conditions`, each block row at its
    extreme supports (see :func:`hassett.weights._meets_class_rows`).
    """
    rep = _closed_form(spec)
    require_valid(rep)
    if not _meets_class_rows(rep, _slot_blocks(spec), _block_rows(spec)):
        raise RuntimeError(
            f"representative for {spec.notation()} violates its conditions"
        )
    return rep


def _box_and_validity_rows(blocks) -> list[Constraint]:
    """0 < x_b <= 1 per column and total weight above two, over columns
    standing for the given slot blocks."""
    m = len(blocks)
    rows: list[Constraint] = []
    for b in range(m):
        unit = tuple(int(j == b) for j in range(m))
        rows.append(Constraint(tuple(-u for u in unit), "<", Fraction(0)))
        rows.append(Constraint(unit, "<=", ONE))
    rows.append(Constraint(tuple(-len(block) for block in blocks), "<", Fraction(-2)))
    return rows


def feasible_representative(spec: FamilySpec) -> WeightData:
    """A representative found by exact linear feasibility, not closed form.

    Cross-check route for :func:`representative_weights`: solves the rows
    of :func:`_block_rows` plus the weight box and validity rows, in one
    variable per slot block, then re-checks the point against every
    condition row.  The condition system is invariant under permuting
    slots within each block, so the block rows are feasible exactly when
    the per-slot system of :func:`family_conditions` is (see
    :func:`hassett.weights._solve_over_classes`): infeasible block rows
    settle the per-slot question too.  Raises
    :class:`InfeasibleFamilyError` when no solution exists.
    """
    blocks = _slot_blocks(spec)
    weights = _solve_over_classes(
        blocks, _block_rows(spec) + _box_and_validity_rows(blocks)
    )
    if weights is None:
        raise InfeasibleFamilyError(
            f"condition system for {spec.notation()} is infeasible"
        )
    w = WeightData(0, weights)
    require_valid(w)
    if not _meets_class_rows(w, blocks, _block_rows(spec)):
        raise RuntimeError(
            f"feasibility witness for {spec.notation()} failed re-checking"
        )
    return w


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


def signature_relabeling(
    target: WeightData, source: WeightData
) -> tuple[int, ...] | None:
    """A slot permutation carrying one datum's chamber signature onto
    another's.

    Returns a 1-based tuple ``sigma`` with ``sigma[j-1]`` the image of
    slot j, such that mapping every set of the source's signature through
    it yields exactly the target's — or None if no such permutation
    exists.  A chamber signature is a weighted threshold family (Isbell
    1958; Taylor & Zwicker, *Simple Games*, 1999): a lighter slot can
    replace a heavier one in any small set.  So sorting both data by
    (weight, slot) lines up any relabeling that exists, and one exists
    exactly when the sorted data are fine-equivalent.  The source's
    classes of interchangeable slots are then runs of that order, cut
    where swapping two neighbours of different weight leaves the
    source's chamber (equal ones swap to the same datum).  Each run's
    slots go, in index order, to the target slots at the same positions,
    in index order.  The map is checked against the target's signature
    before it is returned.  Both data are checked comparable and valid
    once, up front; the comparisons that build the map are between
    permutations of them and check nothing again.
    """
    _check_pair(target, source)
    n = source.n

    def by_weight(w: WeightData) -> tuple[list[int], WeightData]:
        order = sorted(range(1, n + 1), key=lambda j: (w.weights[j - 1], j))
        return order, WeightData(w.genus, tuple(w.weights[j - 1] for j in order))

    (order_t, sorted_t), (order_s, sorted_s) = by_weight(target), by_weight(source)
    if not _same_chamber(sorted_t, sorted_s, 2):
        return None

    def swapped(p: int) -> WeightData:  # sorted positions p - 1 and p exchanged
        ws = list(sorted_s.weights)
        ws[p - 1], ws[p] = ws[p], ws[p - 1]
        return WeightData(source.genus, tuple(ws))

    weights = sorted_s.weights
    cuts = [p for p in range(1, n) if weights[p - 1] != weights[p]
            and not _same_chamber(swapped(p), sorted_s, 2)]
    sigma = [0] * n
    for lo, hi in zip([0] + cuts, cuts + [n]):
        for slot, image in zip(sorted(order_s[lo:hi]), sorted(order_t[lo:hi])):
            sigma[slot - 1] = image
    mapped = {frozenset(sigma[x - 1] for x in s) for s in chamber_signature(source)}
    return tuple(sigma) if mapped == chamber_signature(target) else None


def classify_with_relabeling(
    w: WeightData,
) -> tuple[FamilySpec, tuple[int, ...]] | None:
    """The family member chamber-equivalent to w, with the slot map.

    Two passes over the family grid: first positional fine equivalence
    (slot j against slot j, on class rows; w is validated once here and
    every representative by :func:`representative_weights`), then
    :func:`signature_relabeling`.  A datum matching one family
    positionally and an earlier one only up to relabeling is reported
    under the positional match, so canonical representatives always
    classify as themselves.  The returned permutation maps
    representative slots to slots of w (identity for positional matches).
    """
    if w.genus != 0:
        raise ValueError("classification is defined for genus 0 only")
    require_valid(w)
    n = w.n
    reps = [(spec, representative_weights(spec)) for spec in family_grid(n)]
    for spec, rep in reps:
        if _same_chamber(rep, w, 2):
            return spec, tuple(range(1, n + 1))
    for spec, rep in reps:
        sigma = signature_relabeling(w, rep)
        if sigma is not None:
            return spec, sigma
    return None


def classify(w: WeightData) -> FamilySpec | None:
    """The unique family member whose representative is fine-equivalent
    to w (positionally or after slot relabeling), or None."""
    found = classify_with_relabeling(w)
    return None if found is None else found[0]


# ---------------------------------------------------------------------------
# The factors-through-a-point predicate
# ---------------------------------------------------------------------------


def _kapranov_point_target(n: int, unit_slot: int) -> WeightData:
    """The minimal Kapranov datum (projective space) with the full weight
    at the given slot."""
    light = Fraction(1, n - 2)
    weights = tuple(
        ONE if i == unit_slot else light for i in range(1, n + 1)
    )
    return WeightData(0, weights)


def factors_kapranov(w: WeightData) -> bool:
    """Whether w's space sits on a chain from the n-pointed space down to
    projective space: some slot i admits reduction morphisms
    classical -> w -> (full weight at i, all others light).

    The first arrow always exists: the classical datum dominates every
    valid datum pointwise (Hassett, Adv. Math. 173, 2003, Thm 4.1). The
    second is checked over whole coarse chambers, so the answer depends
    only on the coarse chamber of w and is invariant under fine equivalence.

    One slot per class of equal weight is enough. Swapping two slots i, j
    of equal weight fixes w and swaps the targets at i and j, and a check
    over whole chambers commutes with relabeling both data, so slots i and
    j get the same answer. The classes are tried heaviest first; the order
    decides only which check succeeds first, never the answer.
    """
    if w.genus != 0:
        raise ValueError("the factorization predicate is defined for genus 0")
    if w.n < 5:
        raise ValueError(f"needs at least five markings, got {w.n}")
    require_valid(w)
    n = w.n
    heaviest_first = sorted(
        w.weight_classes, key=lambda block: w.weights[block[0] - 1], reverse=True
    )
    for block in heaviest_first:
        target = _kapranov_point_target(n, block[0])
        if chamber_reduction_exists(w, target, "coarse") is not None:
            return True
    return False


# ---------------------------------------------------------------------------
# Blow-up schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlowupStep:
    """One step: its 1-based index and the ordered list of centers.

    A center is either a tuple of point labels (the span of those
    points) or a single text label naming a locus.
    """

    index: int
    centers: tuple[tuple[str, ...] | str, ...]


@dataclass(frozen=True)
class BlowupSchedule:
    construction: str
    n: int
    ambient: str
    steps: tuple[BlowupStep, ...]

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEDULE_SCHEMA,
            "construction": self.construction,
            "n": self.n,
            "ambient": self.ambient,
            "steps": [
                {
                    "step": step.index,
                    "centers": [
                        c if isinstance(c, str) else list(c)
                        for c in step.centers
                    ],
                }
                for step in self.steps
            ],
        }


def _point_labels(n: int) -> tuple[str, ...]:
    """``("p1", ..., "pn")``; a center is a slice or a combination of it,
    so its labels come out in index order without sorting."""
    return tuple(f"p{i}" for i in range(1, n + 1))


#: One point-span step ``(index, pool, min_size, max_size, chain)``: its
#: centers are the subsets of ``pool`` with ``min_size..max_size`` labels,
#: by size and then lexicographically, each followed by ``chain``. Every
#: center holds a label: ``min_size`` is 0 only under a chain.
SpanStep = tuple[int, tuple[str, ...], int, int, tuple[str, ...]]


def _span_specs(construction: str, n: int) -> list[SpanStep] | None:
    """The steps of ``kblu`` and ``kblusym`` as :data:`SpanStep` specs, or
    None for ``con2``, whose centers are named loci. The ``schedule`` verb
    renders the specs as text; :func:`_expand` makes them
    :class:`BlowupStep` values."""
    if n < 5:
        raise ValueError(f"blow-up schedules need n >= 5, got {n}")
    labels = _point_labels(n)
    if construction == "kblu":
        # step 1: the spans of 1..n-4 of p1..p_{n-2}; step r: the chain
        # p_{n-r+1}..p_{n-1} after every subset of at most n-3-r of
        # p1..p_{n-r-1}
        return [(1, labels[: n - 2], 1, n - 4, ())] + [
            (r, labels[: n - r - 1], 0, n - 3 - r, labels[n - r : n - 1])
            for r in range(2, n - 2)
        ]
    if construction == "kblusym":
        return [(k, labels[: n - 1], k, k, ()) for k in range(1, n - 3)]
    if construction == "con2":
        return None
    raise ValueError(
        f"unknown construction {construction!r}; expected one of {CONSTRUCTIONS}"
    )


def _expand(step: SpanStep) -> BlowupStep:
    index, pool, min_size, max_size, chain = step
    return BlowupStep(
        index,
        tuple(
            subset + chain
            for size in range(min_size, max_size + 1)
            for subset in combinations(pool, size)
        ),
    )


def _con2_steps(n: int) -> tuple[BlowupStep, ...]:
    steps = []
    for h in range(1, 2 * n - 8):
        if h <= n - 4:
            locus = f"Δ_{h} ∩ (F_0∪F_1∪F_∞)"
        else:
            locus = f"Δ_{h - n + 4}"
        steps.append(BlowupStep(h, (locus,)))
    return tuple(steps)


def blowup_schedule(construction: str, n: int) -> BlowupSchedule:
    """The ordered centers of one of the three constructions.

    Within every step, point-span centers are listed smallest first
    (points, then lines, then planes), lexicographically within a size,
    so the order refines inclusion. Each ``kblu`` and ``kblusym`` step is
    written once, as a :data:`SpanStep` spec (:func:`_span_specs`), and
    expanded here into label tuples; the ``schedule`` verb renders the
    same specs as text without building them.
    """
    specs = _span_specs(construction, n)
    steps = _con2_steps(n) if specs is None else tuple(map(_expand, specs))
    return BlowupSchedule(construction, n, AMBIENTS[construction], steps)


# ---------------------------------------------------------------------------
# Machine verification of the Keel-to-Kapranov reduction chain
# ---------------------------------------------------------------------------


def verify_keel_factorization(n: int) -> dict:
    """Check that every late Keel member reduces onto the two-full-weight
    Kapranov space, and that the exchange member h = n - 3 is fine-
    equivalent (up to slot relabeling) to the Kapranov member (2, 2).

    For each h from n - 4 through 2n - 9 the check searches whole coarse
    chambers on both sides for a pointwise-dominating pair, which
    :func:`hassett.weights.chamber_reduction_exists` re-validates by
    direct substitution (coarse chambers must match the inputs, the
    domination must hold slotwise) or raises ``RuntimeError``.  Returns a
    report dict; a failed check is reported, not raised.
    """
    if n < 5:
        raise ValueError(f"verification needs n >= 5, got {n}")
    light = Fraction(1, n - 3)
    target = WeightData(0, (ONE, ONE) + (light,) * (n - 2))
    lo, hi = n - 4, 2 * n - 9
    checks: list[dict] = []
    all_pass = True
    for h in range(lo, hi + 1):
        rep = representative_weights(keel_spec(h, n))
        pair = chamber_reduction_exists(rep, target, "coarse")
        entry: dict = {"h": h, "reduces": pair is not None}
        if pair is not None:
            x, y = pair
            entry["witness_source"] = [str(q) for q in x.weights]
            entry["witness_target"] = [str(q) for q in y.weights]
            entry["revalidated"] = True
        else:
            all_pass = False
        if h == n - 3:
            sigma = signature_relabeling(rep, kapranov_weights(2, 2, n))
            entry["fine_equivalent_to_kapranov_2_2"] = sigma is not None
            if sigma is not None:
                entry["relabeling"] = list(sigma)
            all_pass = all_pass and sigma is not None
        checks.append(entry)
    report = {
        "n": n,
        "family": "keel",
        "target": [str(q) for q in target.weights],
        "range": [lo, hi],
        "checks": checks,
        "all_pass": all_pass,
    }
    if hi == lo:
        report["note"] = (
            "empty second phase: the exchange point h = n - 3 lies outside "
            "0..2n-9, so only h = n - 4 is checked"
        )
    return report
