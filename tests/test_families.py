"""Tests for the named genus-zero families and their blow-up schedules."""

from fractions import Fraction as F
from functools import lru_cache
from itertools import combinations, permutations
from math import factorial
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hassett import families, kernels
from hassett.autgroup import aut_group
from hassett.families import (
    BlowupSchedule,
    FamilySpec,
    InfeasibleFamilyError,
    blowup_schedule,
    classify,
    classify_with_relabeling,
    factors_kapranov,
    family_conditions,
    family_grid,
    feasible_representative,
    kapranov_spec,
    kapranov_weights,
    keel_spec,
    representative_weights,
    signature_relabeling,
    sym_spec,
    verify_keel_factorization,
)
from hassett.linear import LinearSystem, evaluate, solve_feasibility
from hassett.weights import (
    InvalidWeightDataError,
    WeightData,
    _meets_class_rows,
    _slot_classes,
    chamber_key,
    chamber_reduction_exists,
    chamber_signature,
    fine_equivalent,
    reduction_exists,
    reduction_exists_up_to_equivalence,
    validate,
)
from tests.oracles import (
    backtrack_relabeling,
    brute_chamber_key,
    brute_signature,
    canonical_sets,
    fingerprint_relabeling,
    swap_keeps_signature,
)
from tests.test_cli import FACTORS_FALSE


def brute_coarse_sets(w: WeightData) -> set[frozenset[int]]:
    """Index sets of size >= 3 with weight sum <= 1, by direct summation."""
    out = set()
    for size in range(3, w.n + 1):
        for combo in combinations(range(1, w.n + 1), size):
            if sum(w.weights[i - 1] for i in combo) <= 1:
                out.add(frozenset(combo))
    return out


class TestKapranovWeights:
    def test_pinned_examples(self):
        assert kapranov_weights(1, 2, 5).weights == (
            F(1, 3), F(1, 3), F(1, 3), F(2, 3), F(1),
        )
        assert kapranov_weights(2, 1, 5).weights == (
            F(1, 2), F(1, 2), F(1, 2), F(1), F(1),
        )
        assert kapranov_weights(1, 1, 5).weights == (
            F(1, 3), F(1, 3), F(1, 3), F(1, 3), F(1),
        )

    def test_structure(self):
        w = kapranov_weights(2, 3, 8)
        assert w.genus == 0
        assert w.weights == (F(1, 5),) * 5 + (F(3, 5), F(1), F(1))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            kapranov_weights(0, 1, 5)
        with pytest.raises(ValueError):
            kapranov_weights(1, 3, 5)  # s max is n - r - 2 = 2
        with pytest.raises(ValueError):
            kapranov_weights(3, 1, 5)  # r max is n - 3 = 2
        with pytest.raises(ValueError):
            kapranov_spec(1, 1, 3)

    def test_all_valid(self):
        for n in range(4, 9):
            for r in range(1, n - 2):
                for s in range(1, n - r - 1):
                    assert validate(kapranov_weights(r, s, n)).ok


def unchecked_spec(family: str, n: int, params: tuple[int, ...]) -> FamilySpec:
    """A spec past the constructor's range check: the row builders and the
    solver take any parameters, and the verdict tests feed them some."""
    spec = object.__new__(FamilySpec)
    for name, value in (("family", family), ("n", n), ("params", params)):
        object.__setattr__(spec, name, value)
    return spec


class TestFamilySpecRanges:
    """A spec built directly raises the ValueError of its notation."""

    @pytest.mark.parametrize(
        "family, n, params",
        [
            ("sym", 6, (4,)),
            ("sym", 6, (5,)),
            ("sym", 6, (0,)),
            ("sym", 4, (1,)),
            ("kapranov", 6, (4, 1)),
            ("kapranov", 6, (1, 4)),
            ("kapranov", 6, (0, 1)),
            ("kapranov", 3, (1, 1)),
            ("keel", 6, (4,)),
            ("keel", 6, (-1,)),
            ("keel", 4, (0,)),
        ],
    )
    def test_out_of_range_spec_raises_the_notation_error(self, family, n, params):
        keys = {"kapranov": ("r", "s"), "sym": ("k",), "keel": ("h",)}[family]
        text = f"{family}:" + ",".join(
            [f"{key}={value}" for key, value in zip(keys, params)] + [f"n={n}"]
        )
        with pytest.raises(ValueError) as from_text:
            FamilySpec.from_notation(text)
        with pytest.raises(ValueError) as direct:
            FamilySpec(family, n, params)
        assert str(direct.value) == str(from_text.value)
        assert type(direct.value) is ValueError

    def test_sym_k4_and_k5_at_n6_no_longer_reach_the_families(self):
        # unchecked, k=4 divides by zero in the closed form and k=5 gives
        # negative weights, while the solver answers both
        for k in (4, 5):
            with pytest.raises(ValueError, match=f"parameter k={k} outside 1..2"):
                FamilySpec("sym", 6, (k,))

    def test_wrong_family_or_arity(self):
        for family, params in (("sym", (1, 2)), ("kapranov", (1,)), ("blowup", (1,))):
            with pytest.raises(ValueError, match="not a family member"):
                FamilySpec(family, 6, params)

    def test_in_range_specs_unchanged(self):
        for n in range(4, 10):
            for spec in family_grid(n):
                again = FamilySpec(spec.family, spec.n, spec.params)
                assert again == spec
                assert FamilySpec.from_notation(spec.notation()) == spec


def row_support(con):
    """Classify a condition row as a small-set or big-set threshold."""
    pos = {i + 1 for i, c in enumerate(con.coeffs) if c == 1}
    neg = {i + 1 for i, c in enumerate(con.coeffs) if c == -1}
    if con.rel == "<=" and con.bound == 1 and pos and not neg:
        return ("le", frozenset(pos))
    if con.rel == "<" and con.bound == -1 and neg and not pos:
        return ("gt", frozenset(neg))
    if con.rel == "=":
        return ("eq", frozenset(pos))
    raise AssertionError(f"unexpected row shape: {con}")


class TestFamilyConditions:
    def test_sym_k1_n6(self):
        system = family_conditions(sym_spec(1, 6))
        rows = {row_support(c) for c in system.constraints}
        expected = set()
        for i in range(1, 6):
            expected.add(("gt", frozenset({i, 6})))
        for size in (2, 3):
            for s in combinations(range(1, 6), size):
                expected.add(("le", frozenset(s)))
        for s in combinations(range(1, 6), 4):
            expected.add(("gt", frozenset(s)))
        assert rows == expected

    def test_keel_h0_n6(self):
        system = family_conditions(keel_spec(0, 6))
        rows = {row_support(c) for c in system.constraints}
        expected = set()
        for pair in combinations((1, 2, 3), 2):
            expected.add(("gt", frozenset(pair)))
        for i in (1, 2, 3):
            for size in (2, 3):
                for packet in combinations((4, 5, 6), size):
                    expected.add(("le", frozenset({i, *packet})))
        assert rows == expected

    def test_keel_h0_lacks_single_light_rows_h1_has_them(self):
        rows0 = {row_support(c) for c in family_conditions(keel_spec(0, 6)).constraints}
        rows1 = {row_support(c) for c in family_conditions(keel_spec(1, 6)).constraints}
        single = ("le", frozenset({1, 4}))
        assert single not in rows0
        assert single in rows1

    def test_keel_pure_light_phase(self):
        # h = n - 3 = 3 at n = 6: light packets up to size n - 4 = 2 stay
        # small, the full light triple grows big; no heavy-light rows.
        system = family_conditions(keel_spec(3, 6))
        rows = {row_support(c) for c in system.constraints}
        expected = set()
        for pair in combinations((1, 2, 3), 2):
            expected.add(("gt", frozenset(pair)))
        for size in (1, 2):
            for packet in combinations((4, 5, 6), size):
                expected.add(("le", frozenset(packet)))
        expected.add(("gt", frozenset({4, 5, 6})))
        assert rows == expected

    @pytest.mark.parametrize(
        "spec,expected",
        [
            (
                sym_spec(1, 6),
                [("gt", frozenset({i, 6})) for i in range(1, 6)]
                + [("le", frozenset(s)) for size in (2, 3) for s in combinations(range(1, 6), size)]
                + [("gt", frozenset(s)) for s in combinations(range(1, 6), 4)],
            ),
            (
                keel_spec(1, 6),
                [("gt", frozenset(p)) for p in combinations((1, 2, 3), 2)]
                + [
                    ("le" if size < 3 else "gt", frozenset({i, *p}))
                    for size in (1, 2, 3)
                    for i in (1, 2, 3)
                    for p in combinations((4, 5, 6), size)
                ],
            ),
            (
                keel_spec(4, 7),
                [("gt", frozenset(p)) for p in combinations((1, 2, 3), 2)]
                + [
                    ("le" if size <= 3 else "gt", frozenset(p))
                    for size in (1, 2, 3, 4)
                    for p in combinations((4, 5, 6, 7), size)
                ],
            ),
        ],
        ids=lambda v: v.notation() if isinstance(v, FamilySpec) else "",
    )
    def test_row_order(self, spec, expected):
        # Rows come in construction order: the pair rows first, then by
        # packet size, by anchor and lexicographically within a size.
        rows = [row_support(c) for c in family_conditions(spec).constraints]
        assert rows == expected

    @pytest.mark.parametrize(
        "spec",
        [spec for n in range(5, 11) for spec in family_grid(n)]
        + [unchecked_spec("keel", 5, (3,))],
        ids=FamilySpec.notation,
    )
    def test_block_rows_are_projected_set_rows(self, spec):
        # per-slot condition and box rows, summed over each slot block,
        # give exactly the block rows the feasibility search solves
        n = spec.n
        blocks = families._slot_blocks(spec)
        per_slot = family_conditions(spec).constraints
        per_slot += tuple(families._box_and_validity_rows([(i,) for i in range(1, n + 1)]))
        projected = {
            (tuple(sum(c.coeffs[i - 1] for i in block) for block in blocks), c.rel, c.bound)
            for c in per_slot
        }
        block_rows = families._block_rows(spec) + families._box_and_validity_rows(blocks)
        assert projected == {(c.coeffs, c.rel, c.bound) for c in block_rows}

    def test_kapranov_conditions_pin_representative(self):
        system = family_conditions(kapranov_spec(1, 2, 5))
        rep = kapranov_weights(1, 2, 5)
        assert evaluate(system, rep.weights)
        off = (F(1, 3), F(1, 3), F(1, 3), F(1, 2), F(1))
        assert not evaluate(system, off)


class TestRepresentatives:
    @pytest.mark.parametrize("n", range(5, 9))
    def test_satisfy_own_conditions_both_routes(self, n):
        for spec in family_grid(n):
            system = family_conditions(spec)
            rep = representative_weights(spec)
            assert validate(rep).ok
            assert evaluate(system, rep.weights), spec.notation()
            alt = feasible_representative(spec)
            assert validate(alt).ok
            assert evaluate(system, alt.weights), spec.notation()

    @pytest.mark.parametrize("n", range(4, 17))
    def test_every_closed_form_is_built_and_valid(self, n):
        # classification builds a representative only when its scan
        # reaches it, so this is where every member's closed form and
        # condition self-check run; validity is validate(rep).ok without
        # listing the walls (69,661 sets at n = 16)
        for spec in family_grid(n):
            assert not representative_weights(spec).violations, spec.notation()

    @pytest.mark.parametrize("n", range(5, 11))
    def test_kapranov_representative_is_built_once(self, monkeypatch, n):
        # the closed form reads 1/(n-r-1), s/(n-r-1) and 1 off the spec and
        # the block rows pin the same weights, so the self-check compares
        # the closed form with the spec, the closed form is the only datum
        # built, and the range is checked once past the spec, by the rows
        specs = [spec for spec in family_grid(n) if spec.family == "kapranov"]
        calls = []
        check = families.kapranov_spec

        def counting(r, s, m):
            calls.append((r, s, m))
            return check(r, s, m)

        monkeypatch.setattr(families, "kapranov_spec", counting)
        monkeypatch.setattr(families, "kapranov_weights", None)
        representative_weights.cache_clear()
        for spec in specs:
            calls.clear()
            rep = representative_weights(spec)
            assert calls == [(spec.r, spec.s, n)]
            pins = [row.bound for row in families._block_rows(spec)]
            blocks = families._slot_blocks(spec)
            assert pins == [rep.weights[block[0] - 1] for block in blocks]
        representative_weights.cache_clear()

    def test_sym_representative_form(self):
        assert representative_weights(sym_spec(1, 6)).weights == (
            (F(1, 3),) * 5 + (F(1),)
        )

    def test_keel_exchange_representative_is_paper_form(self):
        rep = representative_weights(keel_spec(3, 6))
        assert rep.weights == (F(1), F(1), F(1, 3), F(1, 3), F(1, 3), F(2, 3))

    def test_keel_heavy_phase_chamber_pin(self):
        # Both candidate data from the heavy-anchored phase at h = n - 4
        # satisfy the condition system, and they share one fine chamber;
        # the canonical representative lives in that same chamber and is
        # equivalent to the accepted datum (3/4, 3/4, 3/4, 1/4, 1/4, 1/4).
        spec = keel_spec(2, 6)
        system = family_conditions(spec)
        accepted = WeightData(0, (F(3, 4),) * 3 + (F(1, 4),) * 3)
        boundary = WeightData(0, (F(2, 3),) * 3 + (F(1, 3),) * 3)
        assert evaluate(system, accepted.weights)
        assert evaluate(system, boundary.weights)
        assert fine_equivalent(accepted, boundary)
        rep = representative_weights(spec)
        assert fine_equivalent(rep, accepted)

    def test_conditions_at_h_n4_do_not_pin_chamber(self):
        # The heavy-anchored bullets leave pure-light sums unconstrained,
        # so the condition region genuinely spans several fine chambers;
        # classification goes by the representative's chamber.
        spec = keel_spec(2, 6)
        other = WeightData(0, (F(13, 25),) * 3 + (F(9, 20),) * 3)
        assert evaluate(family_conditions(spec), other.weights)
        assert not fine_equivalent(other, representative_weights(spec))

    def test_infeasible_parameters_surface(self):
        # Bypassing the constructor range check (max h here is 1) yields a
        # well-formed system that forces single light slots above 1,
        # against the weight box — the solver must report infeasibility.
        bogus = unchecked_spec("keel", 5, (3,))
        with pytest.raises(InfeasibleFamilyError):
            feasible_representative(bogus)

    @pytest.mark.parametrize("n", [5, 6])
    def test_block_verdict_matches_the_per_slot_verdict(self, n):
        # The block rows decide the per-slot system of family_conditions,
        # so infeasible block rows need no per-slot solve. Specs built past
        # the range check, each parameter within three of its range; the per-slot
        # systems have up to 2^n rows, so n stays small.
        def verdict(solve):
            try:
                return "feasible" if solve() is not None else "infeasible"
            except InfeasibleFamilyError:
                return "infeasible"
            except ValueError as exc:
                return str(exc)

        specs = [
            unchecked_spec("kapranov", n, (r, s))
            for r in range(-2, n + 1)
            for s in range(-2, n - r + 2)
        ]
        specs += [unchecked_spec("sym", n, (k,)) for k in range(-2, n)]
        specs += [unchecked_spec("keel", n, (h,)) for h in range(-3, 2 * n - 5)]
        in_range = {spec.notation() for spec in family_grid(n)}
        slots = [(slot,) for slot in range(1, n + 1)]
        seen = set()
        for spec in specs:
            if spec.notation() in in_range:
                continue
            per_slot = verdict(lambda: solve_feasibility(LinearSystem(
                n,
                family_conditions(spec).constraints
                + tuple(families._box_and_validity_rows(slots)),
            )))
            assert verdict(lambda: feasible_representative(spec)) == per_slot, spec
            seen.add(per_slot)
        assert {"feasible", "infeasible"} <= seen


SPECS_5_8 = [spec for n in range(5, 9) for spec in family_grid(n)]


@st.composite
def condition_points(draw, spec: FamilySpec) -> tuple[F, ...]:
    """Positive rational points for the spec: random, or the representative
    nudged slotwise; half of them then rescale the support of one condition
    row so that its weights sum to exactly 1."""
    if draw(st.booleans()):
        point = [
            q * F(draw(st.integers(18, 22)), 20)
            for q in representative_weights(spec).weights
        ]
    else:
        weight = st.builds(F, st.integers(1, 30), st.integers(1, 30))
        point = [draw(weight) for _ in range(spec.n)]
    if draw(st.booleans()):
        row = draw(st.sampled_from(family_conditions(spec).constraints))
        support = [i for i, c in enumerate(row.coeffs) if c]
        total = sum(point[i] for i in support)
        for i in support:
            point[i] /= total
    return tuple(point)


class TestIntegerConditionCheck:
    """The integer check of the family conditions against exact
    substitution into :func:`family_conditions`, the reference."""

    @pytest.mark.parametrize("spec", SPECS_5_8, ids=FamilySpec.notation)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_matches_evaluate(self, spec, data):
        point = data.draw(condition_points(spec))
        expected = evaluate(family_conditions(spec), point)
        blocks, rows = families._slot_blocks(spec), families._block_rows(spec)
        got = _meets_class_rows(WeightData(0, point), blocks, rows)
        assert got == expected

    @pytest.mark.parametrize(
        "spec,other",
        [
            (kapranov_spec(1, 2, 6), kapranov_spec(1, 1, 6)),
            (sym_spec(1, 6), sym_spec(2, 6)),
            (keel_spec(0, 6), keel_spec(1, 6)),
            (keel_spec(4, 7), keel_spec(5, 7)),
        ],
        ids=lambda spec: spec.notation(),
    )
    def test_bad_closed_form_is_caught(self, monkeypatch, spec, other):
        # A valid datum from a neighbouring member sits off the spec's
        # conditions; the self-check must refuse it as a representative.
        closed_form = families._closed_form
        off = closed_form(other)
        assert validate(off).ok
        assert not evaluate(family_conditions(spec), off.weights)
        monkeypatch.setattr(
            families, "_closed_form", lambda s: off if s == spec else closed_form(s)
        )
        representative_weights.cache_clear()
        try:
            with pytest.raises(RuntimeError, match="violates its conditions"):
                representative_weights(spec)
        finally:
            representative_weights.cache_clear()

    def test_bad_feasibility_witness_is_caught(self, monkeypatch):
        spec = sym_spec(1, 6)
        off = representative_weights(sym_spec(2, 6)).weights
        monkeypatch.setattr(families, "_solve_over_classes", lambda *args: off)
        with pytest.raises(RuntimeError, match="failed re-checking"):
            feasible_representative(spec)


class TestClassify:
    def test_pinned_examples(self):
        w = WeightData(0, (F(1, 3),) * 3 + (F(2, 3), F(1)))
        assert classify(w) == kapranov_spec(1, 2, 5)
        w6 = WeightData(0, (F(1, 4),) * 4 + (F(2, 4), F(1)))
        assert classify(w6) == kapranov_spec(1, 2, 6)
        assert classify(WeightData(0, (F(1),) * 5)) is None

    @pytest.mark.parametrize("n", range(5, 9))
    def test_round_trip(self, n):
        for spec in family_grid(n):
            assert classify(representative_weights(spec)) == spec

    def test_positive_genus_rejected(self):
        with pytest.raises(ValueError):
            classify(WeightData(1, (F(1, 2),) * 3))

    def test_relabeled_data_classify_with_witness_map(self):
        rep = representative_weights(kapranov_spec(1, 2, 6))
        perm = (3, 6, 1, 5, 2, 4)  # image of slot j at position j-1
        shuffled = [None] * 6
        for j, image in enumerate(perm, start=1):
            shuffled[image - 1] = rep.weights[j - 1]
        w = WeightData(0, tuple(shuffled))
        found = classify_with_relabeling(w)
        assert found is not None
        spec, sigma = found
        assert spec == kapranov_spec(1, 2, 6)
        mapped = canonical_sets(
            [sigma[x - 1] for x in s]
            for s in chamber_signature(representative_weights(spec))
        )
        assert mapped == chamber_signature(w)

    def test_identity_relabeling_for_canonical_reps(self):
        spec = keel_spec(3, 6)
        found = classify_with_relabeling(representative_weights(spec))
        assert found == (spec, (1, 2, 3, 4, 5, 6))

    @pytest.mark.parametrize("n", range(6, 13))
    def test_exchange_alias(self, n):
        # The Keel exchange member h = n - 3 shares a chamber with the
        # Kapranov member (2, 2) up to relabeling; a datum arranged the
        # Kapranov way classifies as Kapranov, the Keel arrangement as Keel
        # (its positional match beats the earlier relabeled one), and a
        # shuffled Keel arrangement, which matches nothing slot by slot,
        # as Kapranov.
        identity = tuple(range(1, n + 1))
        a22 = kapranov_weights(2, 2, n)
        assert classify_with_relabeling(a22) == (kapranov_spec(2, 2, n), identity)
        keel_rep = representative_weights(keel_spec(n - 3, n))
        assert classify_with_relabeling(keel_rep) == (keel_spec(n - 3, n), identity)
        shuffled = WeightData(0, tuple(Random(n).sample(keel_rep.weights, n)))
        spec, sigma = classify_with_relabeling(shuffled)
        assert spec == kapranov_spec(2, 2, n)
        assert sorted(sigma) == list(identity)
        assert all(a22.weights[j] == shuffled.weights[sigma[j] - 1] for j in range(n))
        assert signature_relabeling(keel_rep, a22) is not None

    def test_signature_relabeling_none_on_mismatch(self):
        a = WeightData(0, (F(1, 3),) * 3 + (F(2, 3), F(1)))
        b = WeightData(0, (F(1, 2),) * 3 + (F(1), F(1)))
        assert signature_relabeling(a, b) is None

    def test_signature_relabeling_rejects_different_marking_counts(self):
        # a slot map between data of different sizes does not exist
        five = WeightData(0, (F(1, 3),) * 3 + (F(2, 3), F(1)))
        six = WeightData(0, five.weights + (F(1),))
        with pytest.raises(ValueError, match="marking count mismatch"):
            signature_relabeling(six, five)
        with pytest.raises(ValueError, match="marking count mismatch"):
            signature_relabeling(five, six)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_random_relabelings_classify_back(self, data):
        n = data.draw(st.integers(min_value=5, max_value=7))
        specs = list(family_grid(n))
        spec = data.draw(st.sampled_from(specs))
        perm = data.draw(st.permutations(range(1, n + 1)))
        rep = representative_weights(spec)
        shuffled = [None] * n
        for j, image in enumerate(perm, start=1):
            shuffled[image - 1] = rep.weights[j - 1]
        w = WeightData(0, tuple(shuffled))
        got = classify(w)
        # A relabeled representative must classify back to a member whose
        # representative is equivalent to it up to relabeling; families
        # with chamber aliases (the exchange member) may report the alias.
        assert got is not None
        sigma = signature_relabeling(w, representative_weights(got))
        assert sigma is not None


def eager_classify(w: WeightData) -> tuple[FamilySpec, tuple[int, ...]] | None:
    """Classification as two eager passes: every representative first,
    then a positional fine-equivalence pass, then a relabeling pass."""
    reps = [(spec, representative_weights(spec)) for spec in family_grid(w.n)]
    for spec, rep in reps:
        if fine_equivalent(rep, w):
            return spec, tuple(range(1, w.n + 1))
    for spec, rep in reps:
        sigma = signature_relabeling(w, rep)
        if sigma is not None:
            return spec, sigma
    return None


class TestLazyScan:
    """Classification builds only the members whose chamber key equals the
    datum's, and a None answer builds the whole grid once. Pinned by call
    counts and by the eager definition, not by time."""

    @pytest.fixture
    def built(self, monkeypatch):
        calls = []
        build = families.representative_weights

        def counting(spec):
            calls.append(spec)
            return build(spec)

        build.cache_clear()
        monkeypatch.setattr(families, "representative_weights", counting)
        return calls

    @pytest.mark.parametrize("n", range(6, 11))
    def test_a_representative_builds_only_the_members_sharing_its_key(self, built, n):
        # the keys of the grid are distinct but for the Keel exchange
        # member, which shares its key with Kapranov (2, 2); a
        # representative builds the members with its key up to itself
        grid = list(family_grid(n))
        for spec in grid:
            rep = representative_weights(spec)
            keyed = [other for other in grid if families._member_key(other) == chamber_key(rep)]
            assert spec in keyed and len(keyed) <= 2
            built.clear()
            assert classify_with_relabeling(rep) == (spec, tuple(range(1, n + 1)))
            assert built == keyed[: keyed.index(spec) + 1], spec.notation()

    @pytest.mark.parametrize("n", range(6, 11))
    def test_a_shuffled_representative_builds_only_the_members_sharing_its_key(self, built, n):
        # reversed, no representative matches any member slot by slot, so
        # every member with its key is built once, and no other
        grid = list(family_grid(n))
        for spec in grid:
            w = WeightData(0, representative_weights(spec).weights[::-1])
            keyed = [other for other in grid if families._member_key(other) == chamber_key(w)]
            built.clear()
            found = classify_with_relabeling(w)
            assert found is not None and found[1] != tuple(range(1, n + 1)), spec
            assert found[0] == keyed[0] and len(keyed) <= 2, spec.notation()
            assert built == keyed, spec.notation()

    @pytest.mark.parametrize("n", range(6, 11))
    def test_a_datum_matching_nothing_builds_the_grid_once(self, built, n):
        for w in (WeightData(0, (F(1),) * n), WeightData(0, (F(1, 2),) * n)):
            built.clear()
            assert classify_with_relabeling(w) is None
            assert built == list(family_grid(n))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_agrees_with_the_eager_two_passes(self, data):
        n = data.draw(st.integers(min_value=4, max_value=9))
        kind = data.draw(st.sampled_from(["representative", "shuffled", "random"]))
        if kind == "random":
            value = st.fractions(min_value=0, max_value=1, max_denominator=12)
            weights = tuple(data.draw(st.lists(value, min_size=n, max_size=n)))
        else:
            spec = data.draw(st.sampled_from(list(family_grid(n))))
            weights = representative_weights(spec).weights
            if kind == "shuffled":
                weights = tuple(data.draw(st.permutations(weights)))
        w = WeightData(0, weights)
        if w.violations:
            with pytest.raises(InvalidWeightDataError):
                classify_with_relabeling(w)
            with pytest.raises(InvalidWeightDataError):
                eager_classify(w)
            return
        assert classify_with_relabeling(w) == eager_classify(w)


def oracle_signature(weights) -> frozenset[frozenset[int]]:
    return frozenset(brute_signature(list(weights)))


@lru_cache(maxsize=None)
def grid_signatures(n: int) -> tuple[frozenset[frozenset[int]], ...]:
    return tuple(
        oracle_signature(representative_weights(spec).weights)
        for spec in family_grid(n)
    )


def random_pair(data, n: int) -> tuple[WeightData, WeightData]:
    """Two data on n markings, in one genus that makes both valid (0 when
    both weigh more than two, else 2; signatures do not depend on it).
    The second is independent, a relabeling of the first, or a relabeling
    with every weight nudged by a millionth, which often stays in the
    chamber with unequal weights in a class."""
    value = st.fractions(min_value=0, max_value=1, max_denominator=12)
    values = data.draw(st.lists(value, min_size=1, max_size=4))
    first = data.draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))
    kind = data.draw(st.sampled_from(["independent", "relabeled", "nudged"]))
    if kind == "independent":
        second = data.draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))
    else:
        second = data.draw(st.permutations(first))
        if kind == "nudged":
            nudge = st.integers(min_value=-1, max_value=1)
            second = [min(F(1), max(F(0), a + F(data.draw(nudge), 10**6))) for a in second]
    genus = 0 if min(sum(first), sum(second)) > 2 else 2
    return WeightData(genus, tuple(first)), WeightData(genus, tuple(second))


class TestChamberKey:
    """The chamber key against the relabeling search, the brute-force key
    over S_n, and the closed forms of the family members."""

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_equal_keys_exactly_when_a_relabeling_exists(self, data):
        a, b = random_pair(data, data.draw(st.integers(min_value=4, max_value=9)))
        same = chamber_key(a) == chamber_key(b)
        assert same == (signature_relabeling(a, b) is not None), (a, b)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_equal_keys_exactly_when_the_brute_keys_agree(self, data):
        a, b = random_pair(data, data.draw(st.integers(min_value=4, max_value=6)))
        same = chamber_key(a) == chamber_key(b)
        assert same == (brute_chamber_key(list(a.weights)) == brute_chamber_key(list(b.weights)))

    @pytest.mark.parametrize("n", range(4, 25))
    def test_closed_forms_are_the_representatives_keys(self, n):
        grid = list(family_grid(n))
        keys = [families._member_key(spec) for spec in grid]
        for spec, key in zip(grid, keys):
            assert key == chamber_key(representative_weights(spec)), spec.notation()
            # the members are read off the key in grid order
            assert families._key_members(n, key) == [m for m, k in zip(grid, keys) if k == key]
        # distinct, but for the Keel exchange member and Kapranov (2, 2)
        shared = {key for key in keys if keys.count(key) > 1}
        aliases = [kapranov_spec(2, 2, n), keel_spec(n - 3, n)] if n >= 6 else []
        assert [m for m, k in zip(grid, keys) if k in shared] == aliases


class TestSignatureRelabeling:
    """The relabeling built from sorted weights against the backtracking
    oracle and the set-based greedy fingerprint oracle."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_shuffled_representatives_against_the_grid(self, data):
        n = data.draw(st.integers(min_value=5, max_value=9))
        spec = data.draw(st.sampled_from(list(family_grid(n))))
        perm = data.draw(st.permutations(range(n)))
        weights = representative_weights(spec).weights
        shuffled = WeightData(0, tuple(weights[k] for k in perm))
        target = oracle_signature(shuffled.weights)
        for other, source in zip(family_grid(n), grid_signatures(n)):
            got = signature_relabeling(shuffled, representative_weights(other))
            assert got == backtrack_relabeling(target, source, n)
            assert got == fingerprint_relabeling(target, source, n)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_random_pairs_with_few_weight_classes(self, data):
        # genus 2 makes every weight tuple valid; signatures do not
        # depend on the genus
        n = data.draw(st.integers(min_value=2, max_value=9))
        value = st.fractions(min_value=F(1, 12), max_value=1, max_denominator=12)

        def datum():
            values = data.draw(st.lists(value, min_size=1, max_size=3))
            return data.draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))

        first = datum()
        shuffled = data.draw(st.booleans())
        second = data.draw(st.permutations(first)) if shuffled else datum()
        target, source = oracle_signature(first), oracle_signature(second)
        got = signature_relabeling(
            WeightData(2, tuple(first)), WeightData(2, tuple(second))
        )
        assert got == backtrack_relabeling(target, source, n)
        assert got == fingerprint_relabeling(target, source, n)
        if shuffled:
            assert got is not None

    @pytest.mark.parametrize("n", range(5, 9))
    def test_equal_weight_neighbours_are_not_swapped(self, monkeypatch, n):
        # unequal neighbours are cut by one interval window each, equal
        # ones never, so no swapped datum is built or compared: the only
        # chamber comparisons are the sorted check and the final check of
        # the map
        calls, windows, built = [], [], []

        def counting(w1, w2, min_size):
            calls.append((w1, w2))
            return same_chamber(w1, w2, min_size)

        def window(values, lo, hi, min_size):
            windows.append((lo, hi, min_size))
            return find(values, lo, hi, min_size)

        def weight_data(*args):
            built.append(args)
            return WeightData(*args)

        same_chamber, find = families._same_chamber, kernels.find_subset_in_interval
        monkeypatch.setattr(families, "_same_chamber", counting)
        monkeypatch.setattr(kernels, "find_subset_in_interval", window)
        monkeypatch.setattr(families, "WeightData", weight_data)
        # the sorted data are built where they are sorted
        monkeypatch.setattr("hassett.weights.WeightData", weight_data)
        rng = Random(n)
        for spec in family_grid(n):
            rep = representative_weights(spec)
            shuffled = WeightData(0, tuple(rng.sample(rep.weights, n)))
            for log in (calls, windows, built):
                log.clear()
            assert signature_relabeling(shuffled, rep) is not None
            assert len(calls) == 2, spec
            assert calls[-1][0] is shuffled, spec
            # one window per pair of unequal neighbours, with packets of
            # at least one marking; the sorted data and the relabeled
            # source are the only data built
            assert len(windows) == len(set(rep.weights)) - 1, spec
            assert {m for *_, m in windows} <= {1}, spec
            assert len(built) == 3, spec

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_window_decides_fine_and_coarse_symmetry(self, data):
        # the cut rule: a swap keeps the signature on sets of at least
        # min_size markings exactly when no packet of at least
        # min_size - 1 other markings sums into the swap's window
        n = data.draw(st.integers(min_value=2, max_value=8))
        value = st.fractions(min_value=0, max_value=1, max_denominator=12)
        weights = tuple(data.draw(st.lists(value, min_size=n, max_size=n)))
        w = WeightData(data.draw(st.integers(min_value=0, max_value=3)), weights)
        assume(not w.violations)
        i, j = data.draw(st.permutations(range(1, n + 1)))[:2]
        scaled, d = w.integer_form
        others = [s for k, s in enumerate(scaled, start=1) if k not in (i, j)]
        light, heavy = sorted((scaled[i - 1], scaled[j - 1]))
        for min_size in (2, 3):
            window = kernels.find_subset_in_interval(
                others, d - heavy, d - light, min_size - 1
            )
            keeps = swap_keeps_signature(list(weights), i, j, min_size)
            assert (window == -1) == keeps, (w, i, j, min_size)

    def test_shuffled_dispatch_at_24_lists_no_set(self, monkeypatch):
        # the relabeling is built and checked on chamber types, so no
        # signature (2^24 candidate sets) is enumerated; each answer is
        # checked without the engine
        def no_listing(*args):
            raise AssertionError("a subset window was enumerated")

        monkeypatch.setattr(kernels, "enumerate_small_subsets", no_listing)
        n, rng = 24, Random(24)
        rep = kapranov_weights(2, 3, n).weights
        shuffled = tuple(rng.sample(rep, n))
        spec, sigma = classify_with_relabeling(WeightData(0, shuffled))
        assert spec.notation() == f"kapranov:r=2,s=3,n={n}"
        assert sorted(sigma) == list(range(1, n + 1))
        assert all(rep[j] == shuffled[sigma[j] - 1] for j in range(n))

        shuffled = WeightData(0, tuple(rng.sample(kapranov_weights(1, 2, n).weights, n)))
        d = aut_group(shuffled)
        assert (d.torus_rank, d.finite_order) == (n - 3, factorial(n - 2))

        assert verify_keel_factorization(n)["all_pass"] is True

    def test_final_check_guards_the_map(self, monkeypatch):
        # if the map failed its final comparison, no relabeling and no
        # family would be reported
        rep = kapranov_weights(2, 3, 9)
        shuffled = WeightData(0, rep.weights[::-1])
        assert classify_with_relabeling(shuffled)[1] != tuple(range(1, 10))
        finals = []

        def failing_final(w1, w2, min_size):
            # the final comparison alone puts the target first
            if w1 is shuffled:
                finals.append(w2)
                return False
            return same_chamber(w1, w2, min_size)

        same_chamber = families._same_chamber
        monkeypatch.setattr(families, "_same_chamber", failing_final)
        assert signature_relabeling(shuffled, rep) is None
        assert len(finals) == 1
        assert classify_with_relabeling(shuffled) is None
        assert len(finals) > 1


def every_slot_factors_kapranov(w: WeightData) -> bool:
    """The predicate with one reduction check per slot: the reference for
    the one-check-per-weight-class loop. It calls the engine, so it lives
    here and not among the engine-free oracles."""
    n = w.n
    classical = WeightData(0, (F(1),) * n)
    if chamber_reduction_exists(classical, w, "coarse") is None:
        return False
    return any(
        chamber_reduction_exists(w, families._kapranov_point_target(n, slot), "coarse")
        is not None
        for slot in range(1, n + 1)
    )


class TestFactorsKapranov:
    @pytest.mark.parametrize("n", range(5, 10))
    def test_agrees_with_the_every_slot_loop(self, n):
        rng = Random(n)
        answers = set()
        for spec in family_grid(n):
            rep = representative_weights(spec)
            shuffled = WeightData(0, tuple(rng.sample(rep.weights, n)))
            for w in (rep, shuffled):
                expected = every_slot_factors_kapranov(w)
                assert factors_kapranov(w) is expected, (spec, w.weights)
                answers.add(expected)
        if n > 5:
            assert answers == {True, False}

    def test_agrees_with_the_every_slot_loop_on_the_cli_false_datum(self):
        w = WeightData(0, tuple(map(F, FACTORS_FALSE[-1].split(","))))
        assert factors_kapranov(w) is every_slot_factors_kapranov(w) is False

    @pytest.mark.parametrize("n", range(5, 9))
    def test_slots_of_equal_weight_get_the_same_answer(self, n):
        # the fact that lets factors_kapranov try one slot per weight class
        answers = set()
        for spec in family_grid(n):
            rep = representative_weights(spec)
            for block in _slot_classes(rep):
                if len(block) < 2:
                    continue
                i, j = block[0], block[-1]
                found_i, found_j = (
                    chamber_reduction_exists(
                        rep, families._kapranov_point_target(n, slot), "coarse"
                    )
                    is not None
                    for slot in (i, j)
                )
                assert found_i == found_j, (spec, i, j)
                answers.add(found_i)
        assert answers == {True, False}

    def test_one_reduction_check_per_weight_class(self, monkeypatch):
        calls = []

        def counting(a, b, mode="fine"):
            calls.append(b)
            return chamber_reduction_exists(a, b, mode)

        monkeypatch.setattr(families, "chamber_reduction_exists", counting)
        for n in range(5, 9):
            for spec in family_grid(n):
                rep = representative_weights(spec)
                calls.clear()
                factors_kapranov(rep)
                assert len(calls) <= len(_slot_classes(rep)), spec
        calls.clear()
        assert factors_kapranov(kapranov_weights(2, 2, 10)) is True
        # the full-weight class only
        assert calls == [families._kapranov_point_target(10, 9)]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_the_classical_datum_reduces_onto_every_valid_datum(self, data):
        # the first arrow of the chain, which factors_kapranov does not solve
        n = data.draw(st.integers(min_value=5, max_value=9))
        value = st.fractions(min_value=F(1, 12), max_value=1, max_denominator=12)
        values = data.draw(st.lists(value, min_size=1, max_size=3))
        zeros = data.draw(st.integers(min_value=0, max_value=2))
        weights = [F(0)] * zeros + data.draw(
            st.lists(st.sampled_from(values), min_size=n - zeros, max_size=n - zeros)
        )
        w = WeightData(0, tuple(data.draw(st.permutations(weights))))
        assume(validate(w).ok)
        classical = WeightData(0, (F(1),) * n)
        assert chamber_reduction_exists(classical, w, "coarse") is not None

    def test_kapranov_member_factors(self):
        w = WeightData(0, (F(1, 3),) * 3 + (F(2, 3), F(1)))
        assert factors_kapranov(w) is True

    def test_product_space_does_not_factor(self):
        rep = representative_weights(keel_spec(0, 5))
        assert factors_kapranov(rep) is False

    @pytest.mark.parametrize(
        "n,h", [(5, 1), (6, 2), (6, 3), (7, 3), (7, 4), (7, 5)]
    )
    def test_late_keel_members_factor(self, n, h):
        rep = representative_weights(keel_spec(h, n))
        assert factors_kapranov(rep) is True

    def test_errors(self):
        with pytest.raises(ValueError):
            factors_kapranov(WeightData(1, (F(1, 2),) * 5))
        with pytest.raises(ValueError):
            factors_kapranov(WeightData(0, (F(1),) * 4))

    def test_invariant_under_fine_equivalence(self):
        for spec in (kapranov_spec(1, 2, 5), keel_spec(0, 5), keel_spec(2, 6)):
            rep = representative_weights(spec)
            pair = chamber_reduction_exists(rep, rep, "fine")
            assert pair is not None
            x, y = pair
            assert fine_equivalent(x, rep)
            assert factors_kapranov(x) == factors_kapranov(rep)

    def test_invariant_under_relabeling(self):
        rep = representative_weights(keel_spec(0, 5))
        for perm in ((5, 4, 3, 2, 1), (2, 3, 1, 5, 4)):
            shuffled = [None] * 5
            for j, image in enumerate(perm, start=1):
                shuffled[image - 1] = rep.weights[j - 1]
            w = WeightData(0, tuple(shuffled))
            assert factors_kapranov(w) is False


class TestBlowupSchedule:
    def test_kblu_n5_pinned(self):
        sched = blowup_schedule("kblu", 5)
        assert isinstance(sched, BlowupSchedule)
        data = sched.to_json_dict()
        assert data["schema"] == "blowup-schedule/1"
        assert data["ambient"] == "P^{n-3}"
        assert data["steps"] == [
            {"step": 1, "centers": [["p1"], ["p2"], ["p3"]]},
            {"step": 2, "centers": [["p4"]]},
        ]

    def test_kblusym_n6_pinned(self):
        data = blowup_schedule("kblusym", 6).to_json_dict()
        assert [len(s["centers"]) for s in data["steps"]] == [5, 10]
        assert data["steps"][0]["centers"][0] == ["p1"]
        assert data["steps"][1]["centers"][0] == ["p1", "p2"]

    def test_kblusym_counts(self):
        from math import comb

        for n in (6, 7, 8):
            data = blowup_schedule("kblusym", n).to_json_dict()
            assert [len(s["centers"]) for s in data["steps"]] == [
                comb(n - 1, k) for k in range(1, n - 3)
            ]

    def test_con2_n5_pinned(self):
        data = blowup_schedule("con2", 5).to_json_dict()
        assert data["ambient"] == "(P^1)^{n-3}"
        assert data["steps"] == [
            {"step": 1, "centers": ["Δ_1 ∩ (F_0∪F_1∪F_∞)"]}
        ]

    def test_con2_phases(self):
        data = blowup_schedule("con2", 7).to_json_dict()
        assert [s["centers"] for s in data["steps"]] == [
            ["Δ_1 ∩ (F_0∪F_1∪F_∞)"],
            ["Δ_2 ∩ (F_0∪F_1∪F_∞)"],
            ["Δ_3 ∩ (F_0∪F_1∪F_∞)"],
            ["Δ_1"],
            ["Δ_2"],
        ]

    @pytest.mark.parametrize("n", range(5, 9))
    def test_kblu_centers_partition_all_subsets(self, n):
        seen = []
        for step in blowup_schedule("kblu", n).steps:
            for center in step.centers:
                seen.append(frozenset(center))
        expected = []
        for size in range(1, n - 3):
            for combo in combinations(range(1, n), size):
                expected.append(frozenset(f"p{i}" for i in combo))
        assert len(seen) == len(set(seen)) == len(expected)
        assert set(seen) == set(expected)

    @pytest.mark.parametrize("construction", ["kblu", "kblusym"])
    def test_sizes_ascend_within_steps(self, construction):
        for n in (5, 6, 7):
            for step in blowup_schedule(construction, n).steps:
                sizes = [len(c) for c in step.centers]
                assert sizes == sorted(sizes)

    def test_errors(self):
        with pytest.raises(ValueError):
            blowup_schedule("kblu", 4)
        with pytest.raises(ValueError):
            blowup_schedule("unknown", 6)


class TestVerifyKeelFactorization:
    @pytest.mark.parametrize("n", (6, 7))
    def test_passes_with_revalidated_witnesses(self, n):
        report = verify_keel_factorization(n)
        assert report["all_pass"] is True
        assert report["range"] == [n - 4, 2 * n - 9]
        target = WeightData(
            0, tuple(F(s) for s in report["target"])
        )
        for entry in report["checks"]:
            assert entry["reduces"] is True
            x = WeightData(0, tuple(F(s) for s in entry["witness_source"]))
            y = WeightData(0, tuple(F(s) for s in entry["witness_target"]))
            rep = representative_weights(keel_spec(entry["h"], n))
            # independent re-validation by direct summation
            assert all(yi <= xi for xi, yi in zip(x.weights, y.weights))
            assert brute_coarse_sets(x) == brute_coarse_sets(rep)
            assert brute_coarse_sets(y) == brute_coarse_sets(target)
            if entry["h"] == n - 3:
                assert entry["fine_equivalent_to_kapranov_2_2"] is True

    def test_n5_empty_second_phase(self):
        report = verify_keel_factorization(5)
        assert report["all_pass"] is True
        assert [e["h"] for e in report["checks"]] == [1]
        assert "empty second phase" in report["note"]

    def test_error_below_five(self):
        with pytest.raises(ValueError):
            verify_keel_factorization(4)


class TestKapranovChain:
    @pytest.mark.parametrize("n", (5, 6, 7))
    def test_pointwise_monotone_along_construction(self, n):
        chain = [
            kapranov_weights(r, s, n)
            for r in range(1, n - 2)
            for s in range(1, n - r - 1)
        ]
        for earlier, later in zip(chain, chain[1:]):
            assert reduction_exists(later, earlier)
        assert chain[0].weights[-1] == F(1)


class TestChamberReductionCompleteness:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_pointwise_domination_always_found(self, data):
        # Whenever b <= a slotwise the pair (a, b) itself witnesses the
        # chamber search, so the blocked solver must never miss it.
        # (n is kept small: generic data defeat the slot-block collapse,
        # and the dense search grows steeply with n.)
        n = data.draw(st.integers(min_value=4, max_value=5))
        denom = 12
        a_num = [
            data.draw(st.integers(min_value=1, max_value=denom))
            for _ in range(n)
        ]
        if sum(a_num) <= 2 * denom:
            a_num = [denom] * n
        b_num = [
            data.draw(st.integers(min_value=1, max_value=v)) for v in a_num
        ]
        if sum(b_num) <= 2 * denom:
            b_num = a_num
        a = WeightData(0, tuple(F(v, denom) for v in a_num))
        b = WeightData(0, tuple(F(v, denom) for v in b_num))
        assert chamber_reduction_exists(a, b, "fine") is not None
        assert chamber_reduction_exists(a, b, "coarse") is not None

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_fixed_source_implies_joint(self, data):
        n = data.draw(st.integers(min_value=4, max_value=5))
        denom = 8
        nums = lambda: [
            data.draw(st.integers(min_value=1, max_value=denom))
            for _ in range(n)
        ]
        a_num, b_num = nums(), nums()
        if sum(a_num) <= 2 * denom:
            a_num = [denom] * n
        if sum(b_num) <= 2 * denom:
            b_num = [denom] * n
        a = WeightData(0, tuple(F(v, denom) for v in a_num))
        b = WeightData(0, tuple(F(v, denom) for v in b_num))
        for mode in ("fine", "coarse"):
            fixed = reduction_exists_up_to_equivalence(a, b, mode)
            if fixed is not None:
                assert chamber_reduction_exists(a, b, mode) is not None

    def test_fine_mode_cannot_reach_exchange_target(self):
        # At h = n - 4 the light slots are capped at 1/4 while any datum
        # fine-equivalent to the two-full-weight target needs every light
        # slot above 3/8 (a full slot pairs big with each light slot), so
        # the slot-fixed fine search must fail; the coarse one succeeds.
        rep = representative_weights(keel_spec(2, 6))
        target = WeightData(0, (F(1), F(1)) + (F(1, 4),) * 4)
        assert reduction_exists_up_to_equivalence(rep, target, "fine") is None
        assert (
            reduction_exists_up_to_equivalence(rep, target, "coarse")
            is not None
        )
