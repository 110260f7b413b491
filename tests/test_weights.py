"""Weight data: parsing, validation, signatures, equivalences, reductions."""

import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hassett.weights as weights_module
from hassett import kernels
from hassett.families import (
    classify_with_relabeling,
    kapranov_weights,
    signature_relabeling,
)
from hassett.weights import (
    InvalidWeightDataError,
    WeightData,
    chamber_reduction_exists,
    chamber_signature,
    coarse_equivalent_genus0,
    fine_equivalent,
    forgetful_defined,
    format_rational,
    parse_rational,
    reduction_exists,
    reduction_exists_up_to_equivalence,
    require_valid,
    validate,
)

from oracles import brute_signature, canonical_sets, reference_scaled, reference_violations


def wd(genus, *weights):
    return WeightData.from_strings(genus, [str(w) for w in weights])


class TestParsing:
    def test_fraction_and_integer_forms(self):
        assert parse_rational("1/3") == F(1, 3)
        assert parse_rational(" 2/6 ") == F(1, 3)
        assert parse_rational("1") == F(1)
        assert parse_rational("0") == F(0)

    @pytest.mark.parametrize("bad", ["0.5", ".5", "1e-3", "1/3/2", "a", "1 / 3", "1/0"])
    def test_rejects_inexact_or_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    @pytest.mark.parametrize("bad", ["١/٣", "１/３", "1/٣", "৩", "-٢/3"])
    def test_rejects_non_ascii_digits(self, bad):
        # int() reads any Unicode digit; weights take ASCII digits only,
        # as family notation does
        with pytest.raises(ValueError, match="exact rational"):
            parse_rational(bad)

    def test_format_round_trip(self):
        for s in ["1/3", "0", "1", "7/12"]:
            assert format_rational(parse_rational(s)) == s


class TestValidation:
    def test_require_valid_enumerates_no_subsets(self, monkeypatch):
        def boom(*args):
            raise AssertionError("require_valid enumerated subsets")

        monkeypatch.setattr(kernels, "enumerate_small_subsets", boom)
        # every set of up to twenty markings is small: 2^60 subsets in all
        require_valid(WeightData(0, (F(1, 20),) * 60))
        with pytest.raises(InvalidWeightDataError):
            require_valid(WeightData(0, (F(1, 30),) * 60))

    def test_validate_enumerates_walls_only(self, monkeypatch):
        returned = []
        original = kernels.enumerate_small_subsets

        def spy(*args):
            sets = original(*args)
            returned.extend(sets)
            return sets

        monkeypatch.setattr(kernels, "enumerate_small_subsets", spy)
        report = validate(WeightData(0, (F(1, 4),) * 12))
        # the walls are the 495 sets of four markings; the whole signature
        # would add the 286 sets of two and three
        assert len(report.walls) == 495
        assert len(returned) == len(report.walls)

    def test_classify_never_computes_walls(self, monkeypatch):
        def boom(*args):
            raise AssertionError("classify called validate")

        original = weights_module.validate
        for name, module in list(sys.modules.items()):
            if name == "hassett" or name.startswith("hassett."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, boom)
        hit = classify_with_relabeling(kapranov_weights(2, 3, 9))
        assert hit is not None and hit[0].notation() == "kapranov:r=2,s=3,n=9"

    def test_zero_weights_pad_walls(self):
        assert validate(wd(1, "1/2", "1/2", 0)).walls == ((1, 2), (1, 2, 3))
        assert validate(wd(1, 1, 0, 0)).walls == ((1, 2), (1, 3), (1, 2, 3))
        # relabeling the zeros relabels the walls
        assert validate(wd(1, 0, 0, 1)).walls == ((1, 3), (2, 3), (1, 2, 3))

    def test_classical_datum(self):
        assert validate(wd(0, 1, 1, 1, 1, 1)).ok

    def test_total_on_the_boundary_fails(self):
        report = validate(wd(0, "1/2", "1/2", "1/2", "1/2"))
        assert not report.ok
        assert any("positive" in v for v in report.violations)

    def test_weight_out_of_range(self):
        report = validate(WeightData(0, (F(3, 2), F(1), F(1))))
        assert not report.ok

    def test_unmarked_needs_genus_two(self):
        assert not validate(WeightData(1, ())).ok
        assert not validate(WeightData(0, ())).ok
        assert validate(WeightData(2, ())).ok

    def test_zero_weights_allowed_when_total_clears(self):
        assert validate(wd(1, "1/3", 0)).ok
        assert not validate(wd(1, 0, 0)).ok

    def test_wall_annotations(self):
        report = validate(wd(0, "1/3", "1/3", "1/3", "2/3", 1))
        assert (1, 2, 3) in report.walls
        assert (1, 4) in report.walls

    def test_negative_genus(self):
        assert not validate(wd(-1, 1, 1, 1, 1, 1)).ok


class TestSignature:
    def test_blown_up_plane_example(self):
        sig = chamber_signature(wd(0, "1/3", "1/3", "1/3", "2/3", 1))
        assert sig == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (1, 2, 3)]

    def test_classical_signature_is_empty(self):
        assert chamber_signature(wd(0, 1, 1, 1, 1, 1)) == []

    def test_matches_enumeration_with_zero_weights(self):
        w = wd(1, 0, 0, "1/3", "1/3", "1/3", "2/3")
        assert chamber_signature(w) == canonical_sets(brute_signature(list(w.weights)))

    def test_short_datum_has_empty_signature(self):
        assert chamber_signature(wd(1, 1)) == []
        assert chamber_signature(WeightData(2, ())) == []

    def test_invalid_datum_is_rejected(self):
        with pytest.raises(InvalidWeightDataError):
            chamber_signature(wd(0, "1/2", "1/2", "1/2", "1/2"))


class TestEquivalence:
    def test_fine_requires_equal_signatures(self):
        a = wd(0, "1/3", "1/3", "1/3", "2/3", 1)
        b = wd(0, "1/4", "1/4", "1/4", "4/5", 1)
        # pairs {i,4} flip from small (exactly 1) to large (21/20)
        assert not fine_equivalent(a, b)
        c = wd(0, "3/10", "3/10", "3/10", "7/10", 1)
        assert fine_equivalent(a, c)

    def test_coarse_ignores_pairs(self):
        a = wd(0, "1/2", "1/2", "1/2", 1, 1)
        b = wd(0, "2/5", "2/5", "2/5", 1, 1)
        assert coarse_equivalent_genus0(a, b)

    def test_coarse_rejects_positive_genus(self):
        with pytest.raises(ValueError):
            coarse_equivalent_genus0(wd(1, 1, 1), wd(1, 1, 1))

    def test_genus_mismatch_is_an_error(self):
        with pytest.raises(ValueError):
            fine_equivalent(wd(0, 1, 1, 1, 1), wd(1, 1, 1, 1, 1))

    @pytest.mark.parametrize(
        "check", [fine_equivalent, coarse_equivalent_genus0, signature_relabeling]
    )
    def test_invalid_data_are_rejected_on_either_side(self, check):
        good = wd(0, "1/3", "1/3", "1/3", "2/3", 1)
        for bad in (wd(0, "1/3", "1/3", "1/3", "2/3", "3/2"), wd(0, 0, 0, 0, 0, 1)):
            for pair in ((good, bad), (bad, good)):
                with pytest.raises(InvalidWeightDataError):
                    check(*pair)

    def test_each_datum_is_validated_once(self, monkeypatch):
        # the comparisons inside a relabeling search, the final check of
        # the map included, run on permutations of data already checked,
        # so each datum is validated once, up front; a datum keeps its
        # verdict, so one given twice, or again later, is not checked again
        calls = []
        violations = weights_module._violations
        monkeypatch.setattr(
            weights_module, "_violations", lambda w: calls.append(w) or violations(w)
        )
        w = kapranov_weights(2, 3, 12)
        shuffled = WeightData(0, w.weights[::-1])
        assert fine_equivalent(w, w)
        assert calls == [w]
        assert signature_relabeling(shuffled, w) is not None
        assert calls == [w, shuffled]


class TestReduction:
    def test_pointwise_dominance(self):
        a = wd(0, 1, 1, 1, 1, 1)
        b = wd(0, "1/3", "1/3", "1/3", "2/3", 1)
        assert reduction_exists(a, b)
        assert not reduction_exists(b, a)

    def test_up_to_equivalence_finds_a_witness(self):
        a = wd(0, "1/2", "1/2", "1/2", "1/2", 1)
        b = wd(0, "1/3", "1/3", "1/3", "2/3", 1)
        # no pointwise reduction (2/3 > 1/2), but b's chamber reaches below a
        assert not reduction_exists(a, b)
        witness = reduction_exists_up_to_equivalence(a, b, mode="fine")
        assert witness is not None
        assert fine_equivalent(WeightData(0, witness), b)
        assert all(x >= y for x, y in zip(a.weights, witness))

    def test_up_to_equivalence_infeasible(self):
        a = wd(0, "1/2", "1/2", "1/2", "1/2", "1/2")
        b = wd(0, 1, 1, 1, 1, 1)
        # b's chamber needs every pair large, impossible under a's caps
        assert reduction_exists_up_to_equivalence(a, b, mode="fine") is None

    def test_coarse_mode_is_weaker(self):
        # three heavy / three light source; target has two full weights.
        # Fine mode is impossible: any datum in the target's fine chamber
        # needs b'_1 + b'_j > 1 against light caps 1/4, forcing b'_1 > 3/4.
        # Coarse mode succeeds, e.g. via (3/4,3/4,1/2,1/4,1/4,1/4).
        a = wd(0, "3/4", "3/4", "3/4", "1/4", "1/4", "1/4")
        b = wd(0, 1, 1, "1/3", "1/3", "1/3", "1/3")
        assert reduction_exists_up_to_equivalence(a, b, mode="fine") is None
        witness = reduction_exists_up_to_equivalence(a, b, mode="coarse")
        assert witness is not None
        assert coarse_equivalent_genus0(WeightData(0, witness), b)
        assert all(x >= y for x, y in zip(a.weights, witness))


class TestChamberReduction:
    def test_pointwise_pair_is_found(self):
        a = wd(0, 1, 1, 1, 1, 1)
        b = wd(0, "1/3", "1/3", "1/3", "2/3", 1)
        pair = chamber_reduction_exists(a, b, mode="fine")
        assert pair is not None
        x, y = pair
        assert fine_equivalent(x, a) and fine_equivalent(y, b)
        assert all(p >= q for p, q in zip(x.weights, y.weights))

    def test_source_side_moves_unlock_reductions(self):
        # No datum dominated by the SOURCE datum itself sits in the target
        # chamber (coarse or fine), but another member of the source's
        # coarse chamber does dominate one: the joint quantifier finds it.
        a = wd(0, "3/4", "3/4", "3/4", "1/4", "1/4", "1/4")
        b = wd(0, 1, "1/4", "1/4", "1/4", "1/4", "1/4")
        assert reduction_exists_up_to_equivalence(a, b, mode="coarse") is None
        pair = chamber_reduction_exists(a, b, mode="coarse")
        assert pair is not None
        x, y = pair
        assert coarse_equivalent_genus0(x, a)
        assert coarse_equivalent_genus0(y, b)
        assert all(p >= q for p, q in zip(x.weights, y.weights))

    def test_joint_fine_mode_still_respects_walls(self):
        # the source chamber's heavy+light <= 1 wall survives any fine
        # renaming, so even the joint form cannot reach a full-weight slot
        a = wd(0, "3/4", "3/4", "3/4", "1/4", "1/4", "1/4")
        b = wd(0, 1, "1/4", "1/4", "1/4", "1/4", "1/4")
        assert chamber_reduction_exists(a, b, mode="fine") is None

    def test_depends_only_on_chambers(self):
        a1 = wd(0, "3/4", "3/4", "3/4", "1/4", "1/4", "1/4")
        a2 = wd(0, "2/3", "2/3", "2/3", "1/3", "1/3", "1/3")
        assert fine_equivalent(a1, a2)
        b = wd(0, 1, "1/4", "1/4", "1/4", "1/4", "1/4")
        r1 = chamber_reduction_exists(a1, b, mode="coarse")
        r2 = chamber_reduction_exists(a2, b, mode="coarse")
        assert (r1 is None) == (r2 is None)


# (genus, a, b, fine witness of reduction_exists_up_to_equivalence, fine
# pair of chamber_reduction_exists); no verb reaches fine mode, so these
# pin its witnesses, as the engine gave them before its rows were written
# over weight classes
FINE_WITNESSES = [
    (
        0,
        "1,1,1,1/2,1/2,1/2",
        "1/2,1/2,1/3,1/3,1/3,1/4",
        "7/16,7/16,5/16,5/16,5/16,5/16",
        ("51/64,51/64,51/64,13/32,13/32,29/64", "7/16,7/16,5/16,5/16,5/16,5/16"),
    ),
    (
        0,
        "1,1,1/2,1/2,1/3,1/3",
        "1/2,1/2,1/3,1/3,1/3,1/3",
        "11/24,11/24,5/16,5/16,7/24,7/24",
        ("205/256,205/256,13/32,13/32,51/128,51/128", "29/64,29/64,5/16,5/16,19/64,19/64"),
    ),
    (
        0,
        "1/3,1/3,1/3,2/3,1",
        "1/4,1/4,1/4,1/2,1",
        "5/18,5/18,5/18,1/3,11/12",
        ("1/4,1/4,1/4,5/8,63/64", "1/6,1/6,1/6,9/16,31/32"),
    ),
    (
        1,
        "1/2,1/2,0,1/3,1/3",
        "1/3,1/3,0,1/4,1/4",
        "3/8,3/8,0,1/6,1/6",
        ("3/8,3/8,3/32,13/32,13/32", "77/256,77/256,3/64,17/64,17/64"),
    ),
    (
        2,
        "1,1/2,1/2,0",
        "1/3,1/4,1/4,0",
        "1/4,1/4,1/4,0",
        ("23/32,5/16,5/16,1/4", "1/6,1/4,1/4,1/6"),
    ),
    (0, "1/5,1/5,1/5,1/5,1/5,2/5,1", "1,1,1,1,1,1,1", None, None),
]


class TestFineWitnessesPinned:
    @pytest.mark.parametrize("genus,a,b,single,pair", FINE_WITNESSES)
    def test_witnesses(self, genus, a, b, single, pair):
        a, b = wd(genus, *a.split(",")), wd(genus, *b.split(","))
        found = reduction_exists_up_to_equivalence(a, b, mode="fine")
        assert found == (None if single is None else wd(genus, *single.split(",")).weights)
        found_pair = chamber_reduction_exists(a, b, mode="fine")
        if pair is None:
            assert found_pair is None
        else:
            assert found_pair == tuple(wd(genus, *p.split(",")) for p in pair)


class TestForgetful:
    def test_positive_genus_example(self):
        w = wd(1, "1/3", 0)
        assert forgetful_defined(w, {1})
        assert not forgetful_defined(w, {2})

    def test_genus_zero_needs_enough_weight(self):
        w = wd(0, 1, 1, 1, "1/2", "1/2")
        assert forgetful_defined(w, {1, 2, 3})
        assert not forgetful_defined(w, {1, 4})  # 3/2 - 2 <= 0
        assert not forgetful_defined(w, {4, 5})  # 1 - 2 <= 0
        assert forgetful_defined(w, {1, 2, 4, 5})

    def test_bad_keep_set(self):
        with pytest.raises(ValueError):
            forgetful_defined(wd(0, 1, 1, 1, 1), {1, 9})


class TestJson:
    def test_round_trip(self):
        w = wd(1, 0, "1/3", 1)
        assert WeightData.from_json_dict(w.to_json_dict()) == w

    def test_rejects_floats_in_weights(self):
        with pytest.raises(ValueError):
            WeightData.from_json_dict({"genus": 0, "weights": ["0.5", "1"]})

    def test_rejects_missing_keys(self):
        with pytest.raises(ValueError):
            WeightData.from_json_dict({"weights": ["1"]})


# negative weights, weights above 1, zeros and mixed denominators
any_weight = st.fractions(min_value=-2, max_value=3, max_denominator=12)


@st.composite
def datum_pairs(draw):
    """Two data of one genus (negative included) and one marking count
    (zero included), valid or not; the second often repeats the first's
    values so that slot classes merge."""
    n = draw(st.integers(0, 8))
    values = draw(st.lists(any_weight, min_size=1, max_size=4))
    first = draw(st.lists(st.sampled_from(values) | any_weight, min_size=n, max_size=n))
    second = draw(st.lists(st.sampled_from(values) | any_weight, min_size=n, max_size=n))
    genus = draw(st.integers(-2, 3))
    return WeightData(genus, tuple(first)), WeightData(genus, tuple(second))


class TestIntegerForm:
    """The integer form decides what the Fraction values decide."""

    @given(datum_pairs())
    @settings(max_examples=300, deadline=None)
    def test_violations_and_scaling_match_fraction_references(self, pair):
        for w in pair:
            weights = list(w.weights)
            assert weights_module._violations(w) == reference_violations(w.genus, weights)
            scaled, d = reference_scaled(weights)
            assert w.integer_form == (tuple(scaled), d)

    @given(datum_pairs())
    @settings(max_examples=300, deadline=None)
    def test_slot_classes_group_equal_fraction_values(self, pair):
        a, b = pair
        groups = {}
        for slot, key in enumerate(zip(a.weights, b.weights), start=1):
            groups.setdefault(key, []).append(slot)
        assert weights_module._slot_classes(a, b) == tuple(map(tuple, groups.values()))
        alone = {}
        for slot, value in enumerate(a.weights, start=1):
            alone.setdefault(value, []).append(slot)
        assert a.weight_classes == tuple(map(tuple, alone.values()))

    @given(datum_pairs(), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_forgetful_criterion_matches_fraction_sum(self, pair, rng):
        w = pair[0]
        if reference_violations(w.genus, list(w.weights)):
            return
        keep = {k for k in range(1, w.n + 1) if rng.random() < 0.5}
        total = sum((w.weights[k - 1] for k in keep), F(0))
        assert forgetful_defined(w, keep) == (2 * w.genus - 2 + total > 0)
