"""Weight data for pointed curves of genus g: validity, chamber signatures,
equivalences, reduction and forgetful criteria.

A weight datum is a genus g >= 0 together with rational weights
a_1, ..., a_n, each in [0, 1], subject to 2g - 2 + sum(a_i) > 0 (strict);
for n = 0 this forces g >= 2. All arithmetic is exact: weights are parsed
into :class:`fractions.Fraction` (decimal strings are rejected), and each
datum is scaled once to integers s_i = a_i * D over the common denominator
D of its weights (:attr:`WeightData.integer_form`). Validity, slot classes,
chamber types and class-row checks all run on those integers; ``Fraction``
returns only to print a violation and in reduction witnesses.

The *chamber signature* of a datum is the family of index sets
S (|S| >= 2) whose weights sum to at most 1. Two data with equal signatures
define the same moduli problem (fine equivalence); in genus 0 the coarse
space only sees the sets of size >= 3 (coarse equivalence).

A chamber is cut out by rows written over *weight classes*, the slots of
equal weight (across every datum involved): a set's membership in a
signature depends only on its type, its count of slots per class, so
there is one row per maximal-small or minimal-big type and one column per
class, never one per subset or per slot. Reductions up to equivalence
solve such rows by exact linear feasibility. Equivalence checks the types
of one datum's chamber against the other datum, each at the largest or
smallest sum its supports reach, stops at the first type that fails, and
enumerates no subset (:func:`_same_chamber`). Up to relabeling the slots,
a chamber is named by :func:`chamber_key`: the sizes of its classes of
interchangeable slots and its maximal-small types over them.
"""

from __future__ import annotations

import re
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, product
from math import prod
from operator import getitem, mul

from hassett import kernels
from hassett.linear import Constraint, LinearSystem, _common_scale, solve_feasibility

__all__ = [
    "InvalidWeightDataError",
    "WeightData",
    "ValidationReport",
    "parse_rational",
    "format_rational",
    "validate",
    "require_valid",
    "chamber_signature",
    "chamber_key",
    "fine_equivalent",
    "coarse_equivalent_genus0",
    "reduction_exists",
    "reduction_exists_up_to_equivalence",
    "chamber_reduction_exists",
    "forgetful_defined",
]

ZERO = Fraction(0)
ONE = Fraction(1)
MINUS_ONE = Fraction(-1)

# ASCII digits only: ``int`` alone also reads other Unicode digits and "_"
_INTEGER_RE = re.compile(r"[+-]?[0-9]+")
_RATIONAL_RE = re.compile(rf"^{_INTEGER_RE.pattern}(/[0-9]+)?$")


class InvalidWeightDataError(ValueError):
    """Raised when an operation requires a valid weight datum."""


def parse_rational(text: str) -> Fraction:
    """Parse ``p/q`` or integer strings into an exact rational.

    Decimal notation is rejected on purpose: ``Fraction("0.55")`` would
    silently accept it and exactness is the whole point of the engine.
    Digits are ASCII only, as in family notation: ``int`` reads any
    Unicode digit, so ``"١/٣"`` is rejected rather than read as 1/3.
    """
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(
            f"not an exact rational: {text!r} (use p/q or integer form)"
        )
    if "/" in s:
        num, den = s.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(s))


def format_rational(q: Fraction) -> str:
    """Inverse of :func:`parse_rational`: ``1/3``, ``1``, ``0``."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


@dataclass(frozen=True)
class WeightData:
    """A genus together with an ordered tuple of marking weights.

    Construction does not validate; :func:`validate` reports problems and
    operations that need validity call :func:`require_valid`.
    """

    genus: int
    weights: tuple[Fraction, ...]

    @classmethod
    def from_strings(cls, genus: int, weights: list[str] | tuple[str, ...]) -> "WeightData":
        return cls(genus, tuple(parse_rational(w) for w in weights))

    @classmethod
    def from_json_dict(cls, obj: object) -> "WeightData":
        if not isinstance(obj, dict):
            raise ValueError("weight datum must be a JSON object")
        try:
            genus = obj["genus"]
            raw = obj["weights"]
        except KeyError as exc:
            raise ValueError(f"weight datum is missing key {exc}") from exc
        if not isinstance(genus, int) or isinstance(genus, bool):
            raise ValueError("genus must be an integer")
        if not isinstance(raw, list) or not all(isinstance(w, str) for w in raw):
            raise ValueError("weights must be a list of rational strings")
        return cls(genus, tuple(parse_rational(w) for w in raw))

    def to_json_dict(self) -> dict:
        return {
            "genus": self.genus,
            "weights": [format_rational(w) for w in self.weights],
        }

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def total(self) -> Fraction:
        return sum(self.weights, Fraction(0))

    def positive_indices(self) -> tuple[int, ...]:
        """1-based indices of the strictly positive weights."""
        return tuple(i for i, s in enumerate(self.integer_form[0], start=1) if s > 0)

    def zero_indices(self) -> tuple[int, ...]:
        """1-based indices of the zero weights."""
        return tuple(i for i, s in enumerate(self.integer_form[0], start=1) if s == 0)

    @cached_property
    def integer_form(self) -> tuple[tuple[int, ...], int]:
        """Integer weights s_i and the common denominator D > 0 with
        a_i = s_i / D, computed once per datum; a tuple, so no reader can
        change it. Within one datum equal weights have equal integers, and
        a_i <= 1 reads s_i <= D. Subset conditions sum(S) <= 1 become
        sum(s_i) <= D, which is what the kernels consume."""
        return _common_scale(self.weights)

    @cached_property
    def violations(self) -> tuple[str, ...]:
        """The defining inequalities the datum breaks (:func:`_violations`),
        computed once per datum; a tuple, so no reader can change it."""
        return tuple(_violations(self))

    @cached_property
    def weight_classes(self) -> tuple[tuple[int, ...], ...]:
        """The 1-based slots grouped by equal weight, numbered in order of
        each class's first slot (:func:`_slot_classes` of this datum alone),
        computed once per datum."""
        return _slot_classes(self)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of :func:`validate`: hard violations plus wall annotations.

    ``walls`` lists the index sets (size >= 2) whose weights sum to exactly
    1, as sorted tuples, by size and then lexicographically; the datum sits
    on those chamber walls without violating anything. Zero-weight markings
    pad walls like any other set: weights (1/2, 1/2, 0) have the walls
    (1, 2) and (1, 2, 3). Invalid data report no walls.
    """

    ok: bool
    violations: tuple[str, ...]
    walls: tuple[tuple[int, ...], ...]


def _violations(w: WeightData) -> list[str]:
    """The defining inequalities the datum breaks, in O(n), decided on the
    integer form: 0 <= s_i <= D and (2g - 2) * D + sum(s_i) > 0."""
    problems: list[str] = []
    if w.genus < 0:
        problems.append(f"genus must be nonnegative, got {w.genus}")
    scaled, d = w.integer_form
    for i, s in enumerate(scaled, start=1):
        if not (0 <= s <= d):
            problems.append(
                f"weight {i} = {format_rational(w.weights[i - 1])} is outside [0, 1]"
            )
    if w.genus >= 0:
        slack = (2 * w.genus - 2) * d + sum(scaled)
        if slack <= 0:
            problems.append(
                "2g - 2 + sum(weights) = "
                f"{format_rational(Fraction(slack, d))} must be positive"
            )
        if w.n == 0 and w.genus < 2:
            problems.append("a datum with no markings needs genus >= 2")
    return problems


def validate(w: WeightData) -> ValidationReport:
    """Check the defining inequalities of a weight datum and list its walls.

    The violations and walls are the tuple expansion of
    :func:`_wall_windows`, which :func:`hassett.render.validate` expands
    into text instead. Callers that only need validity use
    :func:`require_valid`.
    """
    problems, windows = _wall_windows(w)
    walls: tuple[tuple[int, ...], ...] = ()
    for window in windows:
        walls += tuple(kernels.enumerate_small_subsets(*window))
    return ValidationReport(not problems, problems, walls)


def _wall_windows(
    w: WeightData, labels: Sequence | None = None
) -> tuple[tuple[str, ...], list[tuple]]:
    """The defining inequalities the datum breaks, and the kernel arguments
    for its walls: none for an invalid datum, which reports no walls, else
    one window, ``(cap - 1, cap]`` of the scaled weights, for the sets of at
    least two markings weighing exactly 1, marking k read as
    ``labels[k - 1]`` when labels are given. The only place that decides
    what walls a datum has."""
    problems = w.violations
    if problems:
        return problems, []
    scaled, cap = w.integer_form
    return problems, [(scaled, cap - 1, cap, 2, w.n, labels)]


def require_valid(w: WeightData) -> None:
    """Raise :class:`InvalidWeightDataError` unless the datum is valid.

    Validity does not depend on walls, so this checks the O(n) defining
    inequalities only, once per datum, and enumerates no subsets.
    """
    problems = w.violations
    if problems:
        raise InvalidWeightDataError("; ".join(problems))


def _signature_window(
    w: WeightData, min_size: int = 2, labels: Sequence | None = None
) -> tuple:
    """The kernel arguments for the chamber signature: the sets of at least
    ``min_size`` markings whose weights sum to at most 1, the window
    ``(-1, cap]`` of the scaled weights, marking k read as ``labels[k - 1]``
    when labels are given. Zero weights are ordinary entries and pad the
    sets like any other marking."""
    scaled, cap = w.integer_form
    return scaled, -1, cap, min_size, w.n, labels


def chamber_signature(w: WeightData) -> list[tuple[int, ...]]:
    """All index sets S (|S| >= 2, 1-based) with sum of weights <= 1, as
    sorted tuples in canonical order: by size, then lexicographically
    (the window of :func:`_signature_window`).

    The result is downward closed in the size->=2 range and determines the
    moduli problem. Data with fewer than two markings have empty signature.
    """
    require_valid(w)
    return kernels.enumerate_small_subsets(*_signature_window(w))


def _check_pair(w1: WeightData, w2: WeightData) -> None:
    """Raise unless the data are comparable (``ValueError``) and both
    valid (:class:`InvalidWeightDataError`)."""
    if w1.genus != w2.genus:
        raise ValueError(
            f"genus mismatch: {w1.genus} vs {w2.genus} "
            "(data of different genus are never comparable)"
        )
    if w1.n != w2.n:
        raise ValueError(f"marking count mismatch: {w1.n} vs {w2.n}")
    require_valid(w1)
    require_valid(w2)


def fine_equivalent(w1: WeightData, w2: WeightData) -> bool:
    """Equal chamber signatures: the two data define the same moduli problem.
    Decided on class rows by :func:`_same_chamber`."""
    _check_pair(w1, w2)
    return _same_chamber(w1, w2, 2)


def coarse_equivalent_genus0(w1: WeightData, w2: WeightData) -> bool:
    """Equal signatures on sets of size >= 3; genus 0 only.

    Pair conditions move marked points onto each other without changing the
    underlying coarse space, so only the larger sets matter for it. Decided
    on class rows by :func:`_same_chamber`.
    """
    if w1.genus != 0 or w2.genus != 0:
        raise ValueError("coarse equivalence is a genus-0 notion")
    _check_pair(w1, w2)
    return _same_chamber(w1, w2, 3)


def reduction_exists(a: WeightData, b: WeightData) -> bool:
    """Pointwise a_i >= b_i: the contraction morphism from a's space to b's."""
    _check_pair(a, b)
    return all(x >= y for x, y in zip(a.weights, b.weights))


def _slot_classes(*data: WeightData) -> tuple[tuple[int, ...], ...]:
    """The 1-based slots grouped by equal weight tuple across ``data``,
    numbered in order of each class's first slot.

    The classes refine every datum's classes of equal weight, so whether a
    set is in a datum's signature depends only on its *type*: its count of
    slots in each class.
    """
    groups: dict[tuple[int, ...], list[int]] = {}
    for slot, key in enumerate(zip(*(w.integer_form[0] for w in data)), start=1):
        groups.setdefault(key, []).append(slot)
    return tuple(map(tuple, groups.values()))


def _by_weight(w: WeightData) -> tuple[list[int], WeightData]:
    """w's slots in (weight, slot) order, and w rearranged in that order.
    Equal weights have equal integers in w's integer form, so a stable
    sort on the integers keeps equal weights in slot order. The rearranged
    datum takes w's integers, rearranged, as its integer form: the common
    denominator does not depend on the order."""
    scaled, d = w.integer_form
    order = [j + 1 for j in sorted(range(w.n), key=scaled.__getitem__)]
    ranked = WeightData(w.genus, tuple(w.weights[j - 1] for j in order))
    # a frozen dataclass: the cached property's slot is set directly
    object.__setattr__(ranked, "integer_form", (tuple(scaled[j - 1] for j in order), d))
    return order, ranked


def _swap_runs(
    ranked: WeightData, min_size: int, away: bool, skip: int = 0
) -> tuple[tuple[int, ...], ...]:
    """Runs of ranked's 1-based slots past its first ``skip``, for ranked
    sorted by weight (:func:`_by_weight`), cut between unequal neighbours
    p < p + 1 when a packet of at least ``min_size`` markings, away from
    the pair if ``away``, else drawn from all markings, sums into the
    window (D - s_{p+1}, D - s_p] of :mod:`hassett.autgroup`: one kernel
    window per pair of unequal neighbours, no set listed."""
    scaled, d = ranked.integer_form
    n = len(scaled)
    cuts = [
        p for p in range(skip + 1, n) if scaled[p] != scaled[p - 1] and kernels.find_subset_in_interval(
            scaled[: p - 1] + scaled[p + 1 :] if away else scaled, d - scaled[p], d - scaled[p - 1], min_size
        ) != -1
    ]
    return tuple(tuple(range(lo + 1, hi + 1)) for lo, hi in zip([skip] + cuts, cuts + [n]) if hi > lo)


def _desirability_classes(w: WeightData) -> tuple[tuple[int, ...], ...]:
    """The classes of slots that w's fine chamber cannot tell apart, for w
    sorted by weight (:func:`_by_weight`): the :func:`_swap_runs` of
    packets of at least one other marking. A chamber is a weighted, hence
    complete, simple game (Isbell 1958): a lighter slot can replace a
    heavier one in any small set, so those slots form runs of the weight
    order, cut exactly between the neighbours whose swap leaves it."""
    return _swap_runs(w, 1, True)


def _key_types(w: WeightData, classes: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """The sorted maximal-small types of the fine chamber of w, sorted by
    weight, over its :func:`_desirability_classes`.

    :func:`_chamber_type_stream` reads one weight per class, so a class of
    unequal weights is first replaced by its mean. That keeps the chamber:
    the data in it form a convex set, and permuting a class's slots keeps
    it, so the average of w over those permutations lies in it too.
    """
    scaled = w.integer_form[0]
    if any(scaled[block[0] - 1] != scaled[block[-1] - 1] for block in classes):
        means = (sum(w.weights[block[0] - 1 : block[-1]], ZERO) / len(block) for block in classes)
        w = WeightData(w.genus, tuple(a for block, a in zip(classes, means) for _ in block))
    return tuple(sorted(t for t, big in _chamber_type_stream(w, classes, 2) if not big))


def chamber_key(w: WeightData) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The fine chamber of w up to relabeling slots: the sizes of its
    :func:`_desirability_classes` in weight order, and its sorted
    maximal-small types over those classes.

    Two data have equal keys exactly when a slot permutation carries one
    chamber signature onto the other: complete simple games are isomorphic
    exactly when their class sizes and their extremal types agree
    (Carreras and Freixas, *Math. Social Sciences* 32, 1996). A set of at
    least two slots is small exactly when its type lies below a
    maximal-small type, so the types pin the signature once the classes'
    slots are named.
    """
    require_valid(w)
    ranked = _by_weight(w)[1]
    classes = _desirability_classes(ranked)
    return tuple(map(len, classes)), _key_types(ranked, classes)


def _chamber_type_stream(
    w: WeightData, classes: tuple[tuple[int, ...], ...], min_size: int
) -> Iterator[tuple[tuple[int, ...], bool]]:
    """The maximal-small and minimal-big types of sizes >= min_size, as
    (type, big) pairs, lazily and in no fixed order, so a caller can stop
    at the first type it rejects.

    A type counts members per class of ``classes``, which must refine w's
    classes of equal weight (:func:`_key_types` passes desirability
    classes of equal weights). A set is maximal small (minimal big) exactly
    when its type is: adding a slot of class c moves the type by one in
    column c. Together with nonnegativity these two antichains pin the
    signature: subsets of small sets stay small, supersets of big sets stay
    big.

    The largest class j is solved for, not enumerated. Fix the counts r of
    the other classes, with total T <= D, and let v be class j's integer
    weight. Class j fits k = min(|class j|, (D - T) // v) times (all of it
    when v = 0), and a maximal-small type takes exactly that many: fewer
    leave room for one more, more do not fit. A minimal-big type takes
    k + 1, the first count that does not fit, or brings the size to
    min_size, where every big type is minimal; when T > D it takes none of
    class j, or again the count that brings the size to min_size. Each
    candidate is checked against the other classes, so a pass visits only
    the prod(|class| + 1) count vectors of the other classes.
    """
    if not classes:
        return
    scaled, cap = w.integer_form
    values = [scaled[block[0] - 1] for block in classes]
    sizes = [len(block) for block in classes]
    j = sizes.index(max(sizes))
    m_j, v_j = sizes[j], values[j]
    rest, rest_sizes = values[:j] + values[j + 1:], sizes[:j] + sizes[j + 1:]
    for r in product(*(range(m + 1) for m in rest_sizes)):
        size_r, total_r = sum(r), sum(map(mul, r, rest))
        if total_r <= cap:
            k = min(m_j, (cap - total_r) // v_j) if v_j else m_j
            # maximal: one more slot of any other class not full is too many
            room = cap - total_r - k * v_j
            if size_r + k >= min_size and all(
                v > room for c, m, v in zip(r, rest_sizes, rest) if c < m
            ):
                yield r[:j] + (k,) + r[j:], False
            bigs = {k + 1, min_size - size_r} if k < m_j else ()
        else:
            bigs = {0, min_size - size_r}
        for k in bigs:
            size = size_r + k
            if not (0 <= k <= m_j and size >= min_size) or total_r + k * v_j <= cap:
                continue
            # minimal: one slot fewer of any other class present is small
            # again (one fewer of class j is, by the choice of k)
            excess = total_r + k * v_j - cap
            if size == min_size or all(v >= excess for c, v in zip(r, rest) if c):
                yield r[:j] + (k,) + r[j:], True


def _solve_over_classes(
    classes: tuple[tuple[int, ...], ...], rows: list[Constraint]
) -> tuple[Fraction, ...] | None:
    """Solve rows written over class columns; spread the answer to slots.

    Column c of a row stands for every slot of ``classes[c]``: a per-slot
    row projects onto it by summing its coefficients over each class. The
    caller's per-slot system must be invariant under every permutation of
    slots within classes. Its solution set is convex, so averaging any
    solution over those permutations gives a class-uniform one; and at a
    class-uniform point every per-slot row reads as its projection. So the
    class rows are feasible exactly when the per-slot system is, and a
    class solution spread back to slots solves the per-slot system.
    Duplicate rows are dropped; a witness is ``None`` when infeasible.
    """
    system = LinearSystem(len(classes), tuple(dict.fromkeys(rows)))
    sol = solve_feasibility(system)
    if sol is None:
        return None
    point = {slot: value for value, block in zip(sol, classes) for slot in block}
    return tuple(point[slot] for slot in range(1, len(point) + 1))


def _chamber_rows(
    w: WeightData,
    classes: tuple[tuple[int, ...], ...],
    min_size: int,
    caps: list[Fraction],
) -> list[Constraint]:
    """Rows over class columns cutting out w's chamber (sizes >= min_size).

    Per class c: 0 <= x_c <= caps[c]; then validity, one row per
    maximal-small type (sum <= 1) and one per minimal-big type (sum > 1),
    in the order of :func:`_chamber_type_stream`; the solver's answer does
    not depend on the order of rows.
    """
    m = len(classes)
    rows: list[Constraint] = []
    for c, cap in enumerate(caps):
        unit = tuple(int(j == c) for j in range(m))
        rows.append(Constraint(tuple(-u for u in unit), "<=", ZERO))
        rows.append(Constraint(unit, "<=", cap))
    total = tuple(-len(block) for block in classes)
    rows.append(Constraint(total, "<", Fraction(2 * w.genus - 2)))
    for t, big in _chamber_type_stream(w, classes, min_size):
        if big:
            rows.append(Constraint(tuple(-k for k in t), "<", MINUS_ONE))
        else:
            rows.append(Constraint(t, "<=", ONE))
    return rows


def _class_runs(
    w: WeightData, classes: tuple[tuple[int, ...], ...]
) -> tuple[list[list[int]], list[list[int]]]:
    """Per class, the sums of its k smallest and of its k largest integer
    weights of w, for k = 0..|class|, as two lists of runs."""
    scaled = w.integer_form[0]
    lows, highs = [], []
    for block in classes:
        ordered = sorted([scaled[slot - 1] for slot in block])
        lows.append(list(accumulate(ordered, initial=0)))
        highs.append(list(accumulate(reversed(ordered), initial=0)))
    return lows, highs


def _meets_class_rows(
    w: WeightData, classes: tuple[tuple[int, ...], ...], rows: list[Constraint]
) -> bool:
    """Whether w satisfies every class row on every one of its supports.

    Column c of a row takes |k| slots of ``classes[c]``, with sign k. A row
    holds on all its supports exactly when it holds at the extreme ones:
    the largest sum takes the |k| largest weights of a class with positive
    k and the |k| smallest of one with negative k, the smallest sum the
    reverse. Both are read off each class's sorted weights, in integers:
    a sum reaching D * bound reads sum * q against p * D for bound = p/q.
    """
    d = w.integer_form[1]
    lows, highs = _class_runs(w, classes)
    for row in rows:
        high = low = 0
        for k, smallest, largest in zip(row.coeffs, lows, highs):
            if k > 0:
                high += largest[k]
                low += smallest[k]
            elif k < 0:
                high -= smallest[-k]
                low -= largest[-k]
        bound, q = row.bound.numerator * d, row.bound.denominator
        if row.rel == "<=":
            holds = high * q <= bound
        elif row.rel == "<":
            holds = high * q < bound
        else:
            holds = low == high and high * q == bound
        if not holds:
            return False
    return True


def _same_chamber(w1: WeightData, w2: WeightData, min_size: int) -> bool:
    """Whether two data have equal signatures on the sets of sizes >=
    min_size; no set is listed. Unchecked: the caller has made sure the
    data are comparable and valid (:func:`_check_pair`), for instance by
    checking them once before comparing permutations of them.

    The types of one datum's chamber, over its classes of equal weight,
    are checked against the other, each at its extreme supports as in
    :func:`_meets_class_rows`: every support of a maximal-small type must
    be small (its largest sum at most D), every support of a minimal-big
    type big (its smallest sum above D). Each small set lies in a
    maximal-small one and each big set contains a minimal-big one, and
    weights are nonnegative; so passing those checks puts the other datum
    in the same chamber. The chamber's box and validity rows hold for any
    valid datum and are not checked. The types come from the datum with
    fewer type vectors, and the first failing type ends the comparison.
    Equal data (equal integer forms) are in one chamber without a check.
    """
    if w1.integer_form == w2.integer_form:
        return True
    c1, c2 = w1.weight_classes, w2.weight_classes
    if prod(len(b) + 1 for b in c2) < prod(len(b) + 1 for b in c1):
        w1, w2, c1 = w2, w1, c2
    d = w2.integer_form[1]
    lows, highs = _class_runs(w2, c1)
    for t, big in _chamber_type_stream(w1, c1, min_size):
        if big:
            if sum(map(getitem, lows, t)) <= d:
                return False
        elif sum(map(getitem, highs, t)) > d:
            return False
    return True


def _mode_size(a: WeightData, b: WeightData, mode: str) -> int:
    """The smallest set size the mode compares, once the pair is checked."""
    if mode not in ("fine", "coarse"):
        raise ValueError(f"unknown mode {mode!r}")
    _check_pair(a, b)
    if mode == "coarse" and a.genus != 0:
        raise ValueError("coarse equivalence is a genus-0 notion")
    return 2 if mode == "fine" else 3


def reduction_exists_up_to_equivalence(
    a: WeightData, b: WeightData, mode: str = "fine"
) -> tuple[Fraction, ...] | None:
    """A datum b' equivalent to b (per mode) with a >= b' pointwise, or None.

    Marking labels are fixed: slot i of b' compares against slot i of both
    inputs. Callers wanting relabelings permute b themselves. The witness is
    found by exact linear feasibility over the chamber conditions of b's
    signature (its maximal-small and minimal-big types), in one variable per
    class of slots with equal (a_i, b_i), and re-verified by substitution
    before returning.
    """
    min_size = _mode_size(a, b, mode)
    classes = _slot_classes(a, b)
    caps = [a.weights[block[0] - 1] for block in classes]
    witness = _solve_over_classes(classes, _chamber_rows(b, classes, min_size, caps))
    if witness is None:
        return None
    b_prime = WeightData(a.genus, witness)
    # reduction_exists validates the witness before the unchecked comparison
    if not (reduction_exists(a, b_prime) and _same_chamber(b_prime, b, min_size)):
        raise RuntimeError("reduction witness failed re-verification")
    return witness


def chamber_reduction_exists(
    a: WeightData, b: WeightData, mode: str = "fine"
) -> tuple[WeightData, WeightData] | None:
    """A pair (x, y) with x equivalent to a, y to b, and x >= y pointwise.

    Unlike :func:`reduction_exists_up_to_equivalence`, BOTH sides range over
    their full equivalence chambers, so the answer depends only on the
    chambers of the inputs: replacing either datum by an equivalent one
    cannot change the result. One joint exact feasibility system decides
    it, in one x and one y variable per class of slots with equal
    (a_i, b_i); the witness pair is re-verified by substitution before
    returning. Returns None when no such pair exists.
    """
    min_size = _mode_size(a, b, mode)
    n = a.n
    classes = _slot_classes(a, b)
    m = len(classes)
    pad = (0,) * m
    x_rows = _chamber_rows(a, classes, min_size, [ONE] * m)
    y_rows = _chamber_rows(b, classes, min_size, [ONE] * m)
    rows = [Constraint(r.coeffs + pad, r.rel, r.bound) for r in x_rows]
    rows += [Constraint(pad + r.coeffs, r.rel, r.bound) for r in y_rows]
    for c in range(m):  # y_c <= x_c
        unit = tuple(int(j == c) for j in range(m))
        rows.append(Constraint(tuple(-u for u in unit) + unit, "<=", ZERO))
    both = classes + tuple(tuple(slot + n for slot in block) for block in classes)
    witness = _solve_over_classes(both, rows)
    if witness is None:
        return None
    x = WeightData(a.genus, witness[:n])
    y = WeightData(b.genus, witness[n:])
    # reduction_exists validates the witnesses before the unchecked comparisons
    if not (
        reduction_exists(x, y)
        and _same_chamber(x, a, min_size)
        and _same_chamber(y, b, min_size)
    ):
        raise RuntimeError("chamber reduction witness failed re-verification")
    return x, y


def forgetful_defined(w: WeightData, keep: frozenset[int] | set[int]) -> bool:
    """Whether dropping the markings outside ``keep`` leaves a valid datum.

    The criterion is 2g - 2 + sum of the kept weights > 0, checked as
    (2g - 2) * D + sum of their integers > 0; with it the forgetful
    morphism onto the smaller space exists.
    """
    require_valid(w)
    kept = frozenset(keep)
    if not kept <= set(range(1, w.n + 1)):
        raise ValueError(f"keep set {sorted(kept)} is not a subset of 1..{w.n}")
    scaled, d = w.integer_form
    return (2 * w.genus - 2) * d + sum(scaled[i - 1] for i in kept) > 0
