"""Automorphism groups: admissible transpositions, dispatch table, labels.

Dual-route discipline: admissibility decisions and witnesses are checked
against the brute enumeration oracle, and pinned group orders are confirmed
by naive BFS closure, independent of the orbit-based order.
"""

from __future__ import annotations

import random
from fractions import Fraction as F
from itertools import combinations
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hassett import autgroup
from hassett.autgroup import (
    NOT_COVERED_MESSAGE,
    NotCoveredError,
    admissible_generators,
    aut_group,
    is_admissible,
)
from hassett.families import (
    kapranov_weights,
    keel_spec,
    representative_weights,
    sym_spec,
)
from hassett.perms import transposition
from hassett.weights import (
    InvalidWeightDataError,
    WeightData,
    coarse_equivalent_genus0,
    validate,
)
from tests.oracles import brute_admissible, naive_closure

# The two pinned mixed-weight data: one of higher genus, one with
# zero-weight markings on an elliptic base.
W_G3 = WeightData(3, (F(1, 4), F(1, 4), F(1, 2), F(3, 4), F(1), F(1)))
W_ZW = WeightData(1, (F(0), F(0), F(1, 3), F(1, 3), F(1, 3), F(2, 3)))


def _orbits(gens_one_based: list[list[int]], n: int) -> set[frozenset[int]]:
    """Nonsingleton orbits of a permutation list, by union-find."""
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for perm in gens_one_based:
        for k, image in enumerate(perm, start=1):
            ra, rb = find(k), find(image)
            if ra != rb:
                parent[ra] = rb
    buckets: dict[int, set[int]] = {}
    for k in range(1, n + 1):
        buckets.setdefault(find(k), set()).add(k)
    return {frozenset(v) for v in buckets.values() if len(v) >= 2}


def _random_weights(rng: random.Random, n: int, allow_zero: bool = True):
    out = []
    for _ in range(n):
        d = rng.randint(1, 12)
        lo = 0 if allow_zero and rng.random() < 0.2 else 1
        out.append(F(rng.randint(lo, d), d))
    return tuple(out)


class TestIsAdmissible:
    def test_pinned_higher_genus_swap(self):
        ok, witness = is_admissible(W_G3, 3, 4)
        assert not ok
        assert witness == frozenset({1, 2})
        # the witness is a genuine violation: adding it to one weight stays
        # within the unit interval, adding it to the other does not
        total = W_G3.weights[0] + W_G3.weights[1]
        assert W_G3.weights[2] + total <= 1 < W_G3.weights[3] + total

    def test_pinned_zero_weight_case_swap(self):
        ok, witness = is_admissible(W_ZW, 3, 6)
        assert not ok
        assert witness == frozenset({4, 5})
        total = W_ZW.weights[3] + W_ZW.weights[4]
        assert W_ZW.weights[2] + total <= 1 < W_ZW.weights[5] + total

    def test_packets_may_contain_the_swapped_markings(self):
        # Under the default reading the packet is any index set of size at
        # least two, so {1, 3} itself witnesses against swapping 1 and 3:
        # the contained member counts once in the packet and once as anchor.
        ok, witness = is_admissible(W_G3, 1, 3)
        assert not ok
        assert witness == frozenset({1, 3})
        # {2, 3} is a later witness in canonical order; check it violates too
        total = W_G3.weights[1] + W_G3.weights[2]
        assert W_G3.weights[0] + total <= 1 < W_G3.weights[2] + total

    def test_exclude_ij_reading_differs_on_pinned_pair(self):
        # Away from {1, 3} no packet of size >= 2 lands in the window, so
        # the restricted reading calls the swap admissible.
        ok, witness = is_admissible(W_G3, 1, 3, exclude_ij=True)
        assert ok and witness is None

    def test_equal_weights_always_admissible(self):
        for i, j in ((3, 4), (3, 5), (4, 5)):
            assert is_admissible(W_ZW, i, j) == (True, None)
            assert is_admissible(W_ZW, i, j, exclude_ij=True) == (True, None)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            is_admissible(W_G3, 2, 2)
        with pytest.raises(ValueError):
            is_admissible(W_G3, 0, 2)
        with pytest.raises(ValueError):
            is_admissible(W_G3, 1, 7)
        with pytest.raises(ValueError):
            is_admissible(W_ZW, 1, 3)  # marking 1 has weight zero

    def test_invalid_data_raise_before_any_answer(self):
        # a weight above 1, and a negative genus: neither is a datum, so
        # neither gets an admissibility answer or a witness
        with pytest.raises(InvalidWeightDataError):
            is_admissible(WeightData(2, (F(3, 2), F(1, 2), F(1, 3))), 1, 2)
        with pytest.raises(InvalidWeightDataError):
            is_admissible(WeightData(-1, (F(1, 2), F(1, 3), F(1, 5))), 1, 2)
        # validation comes before the index checks
        with pytest.raises(InvalidWeightDataError):
            is_admissible(WeightData(-1, (F(1, 2), F(1, 3), F(1, 5))), 2, 2)

    def test_decision_invariant_under_relabeling_other_markings(self):
        rng = random.Random(20260817)
        for _ in range(60):
            n = rng.randint(4, 8)
            weights = _random_weights(rng, n, allow_zero=False)
            w = WeightData(1, weights)
            i, j = rng.sample(range(1, n + 1), 2)
            others = [k for k in range(1, n + 1) if k not in (i, j)]
            shuffled = others[:]
            rng.shuffle(shuffled)
            relabeled = list(weights)
            for src, dst in zip(others, shuffled):
                relabeled[dst - 1] = weights[src - 1]
            w2 = WeightData(1, tuple(relabeled))
            for flag in (False, True):
                assert (
                    is_admissible(w, i, j, exclude_ij=flag)[0]
                    == is_admissible(w2, i, j, exclude_ij=flag)[0]
                )


class TestOracleAgreement:
    def test_seeded_bulk_agreement_both_readings(self):
        rng = random.Random(17)
        checked = 0
        while checked < 500:
            n = rng.randint(3, 10)
            weights = _random_weights(rng, n)
            positive = [k for k in range(1, n + 1) if weights[k - 1] > 0]
            if len(positive) < 2:
                continue
            i, j = rng.sample(positive, 2)
            w = WeightData(1, weights)
            flag = checked % 2 == 1
            got = is_admissible(w, i, j, exclude_ij=flag)
            want = brute_admissible(list(weights), i, j, exclude_ij=flag)
            assert got == want, (weights, i, j, flag, got, want)
            checked += 1

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_hypothesis_agreement(self, data):
        n = data.draw(st.integers(min_value=3, max_value=8))
        weights = tuple(
            data.draw(
                st.fractions(min_value=0, max_value=1, max_denominator=16),
            )
            for _ in range(n)
        )
        positive = [k for k in range(1, n + 1) if weights[k - 1] > 0]
        if len(positive) < 2:
            return
        i = data.draw(st.sampled_from(positive))
        j = data.draw(st.sampled_from([k for k in positive if k != i]))
        flag = data.draw(st.booleans())
        w = WeightData(1, weights)
        assert is_admissible(w, i, j, exclude_ij=flag) == brute_admissible(
            list(weights), i, j, exclude_ij=flag
        )

    def test_transitivity_probe(self):
        # Swapping is an equivalence in every sampled case, under both
        # readings; the implementation never assumes this and always works
        # from pairwise generators, so a failure here would flag the data,
        # not the engine.
        rng = random.Random(99)
        for _ in range(120):
            n = rng.randint(4, 7)
            w = WeightData(1, _random_weights(rng, n, allow_zero=False))
            for flag in (False, True):
                adm = {
                    (i, j)
                    for i, j in combinations(range(1, n + 1), 2)
                    if is_admissible(w, i, j, exclude_ij=flag)[0]
                }
                adm |= {(j, i) for i, j in adm}
                for i, j in list(adm):
                    for k in range(1, n + 1):
                        if k not in (i, j) and (j, k) in adm:
                            assert (i, k) in adm, (w.weights, flag, i, j, k)


class TestAdmissibleGenerators:
    def test_pinned_higher_genus_generators(self):
        assert admissible_generators(W_G3) == [(1, 2), (4, 5), (4, 6), (5, 6)]

    def test_pinned_zero_weight_generators(self):
        assert admissible_generators(W_ZW) == [(1, 2), (3, 4), (3, 5), (4, 5)]

    def test_exclude_ij_reading_enlarges_pinned_set(self):
        assert admissible_generators(W_G3, exclude_ij=True) == [
            (1, 2),
            (1, 3),
            (2, 3),
            (4, 5),
            (4, 6),
            (5, 6),
        ]

    def test_zero_pairs_always_included(self):
        w = WeightData(2, (F(0), F(0), F(1), F(1)))
        assert admissible_generators(w) == [(1, 2), (3, 4)]

    def test_invalid_weight_data_rejected(self):
        with pytest.raises(InvalidWeightDataError):
            admissible_generators(WeightData(0, (F(1, 4), F(1, 4), F(1, 4))))


@st.composite
def _repeated_values(draw) -> WeightData:
    """Genus 1-3, n <= 9: one to three positive values, each possibly
    repeated, plus optional zeros, in a random slot order."""
    values = draw(
        st.lists(
            st.fractions(min_value=F(1, 12), max_value=1, max_denominator=12),
            min_size=1,
            max_size=3,
            unique=True,
        )
    )
    zeros = draw(st.integers(min_value=0, max_value=2))
    positive = draw(
        st.lists(st.sampled_from(values), min_size=2, max_size=9 - zeros)
    )
    weights = draw(st.permutations(positive + [F(0)] * zeros))
    return WeightData(draw(st.integers(min_value=1, max_value=3)), tuple(weights))


class TestOneDecisionPerValuePair:
    @given(_repeated_values(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_generators_match_pairwise_oracle(self, w, flag):
        weights = list(w.weights)
        expected = sorted(
            (i, j)
            for i, j in combinations(range(1, w.n + 1), 2)
            if (weights[i - 1] == weights[j - 1] == 0)
            or (
                weights[i - 1] > 0
                and weights[j - 1] > 0
                and brute_admissible(weights, i, j, exclude_ij=flag)[0]
            )
        )
        assert admissible_generators(w, flag) == expected

    @pytest.mark.parametrize(
        "weights",
        [
            (F(1, 10),) * 5 + (F(1, 7),) * 5 + (F(1, 4),) * 5,
            (F(1, 4), F(1, 4), F(1, 2), F(3, 4), F(1), F(1)),
            (F(0), F(1, 3), F(0), F(1, 3), F(2, 3), F(1, 3)),
            (F(1, 2),) * 8,
            (F(1, 5), F(2, 5), F(3, 5), F(4, 5), F(1, 5)),
        ],
    )
    @pytest.mark.parametrize("flag", [False, True])
    def test_one_call_per_unordered_value_pair(self, monkeypatch, weights, flag):
        calls = []

        def counting(w, i, j, exclude_ij=False):
            calls.append(frozenset((w.weights[i - 1], w.weights[j - 1])))
            return is_admissible(w, i, j, exclude_ij)

        monkeypatch.setattr(autgroup, "is_admissible", counting)
        admissible_generators(WeightData(2, weights), flag)
        positive = sorted({a for a in weights if a > 0})
        expected = {frozenset(pair) for pair in combinations(positive, 2)}
        expected |= {frozenset((a,)) for a in positive if weights.count(a) >= 2}
        assert len(calls) == len(expected)
        assert set(calls) == expected


class TestPinnedGroupOrders:
    def test_higher_genus_order_confirmed_by_closure(self):
        d = aut_group(W_G3)
        assert d.torus_rank == 0
        assert d.finite_order == 12
        assert d.label == "S3 x S2"
        gens = [
            transposition(i - 1, j - 1, 6) for i, j in admissible_generators(W_G3)
        ]
        assert len(naive_closure(gens, 6)) == 12

    def test_zero_weight_order_confirmed_by_closure(self):
        d = aut_group(W_ZW)
        assert d.torus_rank == 0
        assert d.finite_order == 12
        assert d.label == "S3 x S2"
        gens = [
            transposition(i - 1, j - 1, 6) for i, j in admissible_generators(W_ZW)
        ]
        assert len(naive_closure(gens, 6)) == 12

    def test_mixed_zero_one_weights_on_genus_two(self):
        d = aut_group(WeightData(2, (F(0), F(0), F(1), F(1))))
        assert d.torus_rank == 0
        assert d.finite_order == 4
        assert d.label == "S2 x S2"

    def test_transposition_groups_build_no_stabilizer_chain(self):
        # Every group below is generated by transpositions, so its order is
        # the product of its orbits' factorials, with no chain to build.
        three = (F(1, 10),) * 5 + (F(1, 7),) * 5 + (F(1, 4),) * 5
        cases = [
            (WeightData(2, three), 1_728_000, "S5 x S5 x S5"),
            (WeightData(2, (F(1, 2),) * 20), factorial(20), "S20"),
            (WeightData(0, (F(1),) * 20), factorial(20), "S20"),
        ]
        for w, order, label in cases:
            d = aut_group(w)
            assert (d.finite_order, d.label) == (order, label)
        assert aut_group(kapranov_weights(1, 2, 11)).label == "torus x S9"


class TestDispatchTable:
    @pytest.mark.parametrize("n,order", [(5, 120), (6, 720), (7, 5040)])
    def test_classical_spaces(self, n, order):
        d = aut_group(WeightData(0, (F(1),) * n))
        assert d.torus_rank == 0
        assert d.finite_order == order
        assert d.label == f"S{n}"
        assert d.special is None
        assert d.provenance == "classical space with every weight one (genus zero)"

    def test_one_heavy_blowup_rows_with_six_markings(self):
        d = aut_group(kapranov_weights(1, 2, 6))
        assert (d.torus_rank, d.finite_order, d.label) == (3, 24, "torus x S4")
        d = aut_group(kapranov_weights(1, 3, 6))
        assert (d.torus_rank, d.finite_order, d.label) == (3, 48, "torus x S4 x S2")
        for s in (1, 2):
            d = aut_group(kapranov_weights(2, s, 6))
            assert (d.torus_rank, d.finite_order, d.label) == (0, 720, "S6")

    def test_del_pezzo_surface_row(self):
        d = aut_group(kapranov_weights(1, 2, 5))
        assert (d.torus_rank, d.finite_order) == (2, 12)
        assert d.label == "torus x S3 x S2"
        assert d.special is None
        assert d.provenance == "genus-zero family table: kapranov:r=1,s=2,n=5"

    def test_symmetric_and_iterated_contraction_rows(self):
        for spec in (sym_spec(1, 6), sym_spec(2, 6), keel_spec(2, 6), keel_spec(3, 6)):
            d = aut_group(representative_weights(spec))
            assert d.torus_rank == 0
            assert d.finite_order == 720
            assert d.label == "S6"

    def test_table_row_exceeds_pairwise_closure(self):
        # For two-heavy data the full symmetric group acts even though the
        # pairwise-admissible transpositions generate a proper subgroup, so
        # the table is load-bearing, not a shortcut.
        for s, closure_order in ((1, 48), (2, 36)):
            w = kapranov_weights(2, s, 6)
            gens = [
                transposition(i - 1, j - 1, 6)
                for i, j in admissible_generators(w)
            ]
            assert len(naive_closure(gens, 6)) == closure_order
            assert aut_group(w).finite_order == 720

    def test_coarse_classical_shortcut_beats_family_lookup(self):
        # Fine-chamber data with no family match but the classical coarse
        # signature still get the full symmetric group.
        d = aut_group(WeightData(0, (F(1), F(5, 6), F(2, 3), F(1, 2), F(1, 3))))
        assert d.finite_order == 120
        assert d.label == "S5"

    def test_four_markings_give_projective_line(self):
        for weights in (
            (F(1), F(1), F(1), F(1)),
            (F(1), F(1, 2), F(3, 4), F(9, 10)),
        ):
            d = aut_group(WeightData(0, weights))
            assert d.special == "PGL2"
            assert d.torus_rank is None and d.finite_order is None
            assert d.provenance == "four points on the projective line"

    def test_positive_genus_with_markings_uses_admissible_swaps(self):
        d = aut_group(WeightData(1, (F(0), F(1, 2), F(1, 2), F(1, 3))))
        assert d.torus_rank == 0
        assert d.finite_order == 6
        assert d.label == "S3"

    def test_special_rows(self):
        d = aut_group(WeightData(1, (F(1, 2),)))
        assert d.special == "PGL2"
        assert d.stack_note == "stack: ℂ*"
        assert d.torus_rank is None and d.finite_order is None
        d = aut_group(WeightData(1, (F(1, 2), F(1, 2))))
        assert d.special == "torus-only"
        assert (d.torus_rank, d.finite_order) == (2, 1)
        assert d.label == "torus"
        assert d.stack_note == "stack: trivial"
        d = aut_group(WeightData(2, ()))
        assert d.special == "trivial"
        assert (d.torus_rank, d.finite_order) == (0, 1)
        assert d.label == "trivial"

    def test_not_covered_rows_raise_with_pinned_message(self):
        rows = (
            WeightData(0, (F(1, 3), F(1, 3), F(1, 3), F(1, 3), F(1))),
            representative_weights(keel_spec(0, 5)),
            representative_weights(keel_spec(1, 6)),
            WeightData(1, (F(0), F(1, 2))),
            WeightData(1, (F(0), F(0), F(1, 2))),
            WeightData(0, (F(0), F(1, 2), F(1), F(1), F(1))),
            WeightData(0, (F(1), F(1), F(1), F(1, 2), F(1, 4), F(1, 4))),
            WeightData(0, (F(1), F(1), F(1))),
        )
        for w in rows:
            with pytest.raises(NotCoveredError) as info:
                aut_group(w)
            assert str(info.value) == NOT_COVERED_MESSAGE
            assert info.value.detail

    def test_invalid_data_raise_validation_not_coverage(self):
        with pytest.raises(InvalidWeightDataError):
            aut_group(WeightData(1, ()))
        with pytest.raises(InvalidWeightDataError):
            aut_group(WeightData(0, (F(1, 4), F(1, 4), F(1, 4))))

    def test_finite_order_divides_factorial_of_marking_count(self):
        data = (
            W_G3,
            W_ZW,
            kapranov_weights(1, 2, 6),
            kapranov_weights(2, 1, 6),
            representative_weights(sym_spec(1, 6)),
            WeightData(1, (F(0), F(1, 2), F(1, 2), F(1, 3))),
        )
        for w in data:
            d = aut_group(w)
            assert factorial(w.n) % d.finite_order == 0


class TestRelabeledTableRows:
    def test_shuffled_del_pezzo_transports_generators(self):
        # heavy marking at slot 1, middle at slot 3, light at {2, 4, 5}
        w = WeightData(0, (F(1), F(1, 3), F(2, 3), F(1, 3), F(1, 3)))
        d = aut_group(w)
        assert (d.torus_rank, d.finite_order, d.label) == (2, 12, "torus x S3 x S2")
        gens = d.finite.to_one_based_generators()
        assert _orbits(gens, 5) == {frozenset({2, 4, 5}), frozenset({1, 3})}

    def test_shuffled_one_heavy_row_transports_generators(self):
        # middle at slot 1, heavy at slot 3, light at {2, 4, 5, 6}
        w = WeightData(0, (F(1, 2), F(1, 4), F(1), F(1, 4), F(1, 4), F(1, 4)))
        d = aut_group(w)
        assert (d.torus_rank, d.finite_order, d.label) == (3, 24, "torus x S4")
        gens = d.finite.to_one_based_generators()
        assert _orbits(gens, 6) == {frozenset({2, 4, 5, 6})}

    def test_random_relabelings_preserve_group_invariants(self):
        rng = random.Random(5)
        rep = kapranov_weights(1, 3, 6)
        base = aut_group(rep)
        light_slots = {
            k for k in range(1, 7) if rep.weights[k - 1] == F(1, 4)
        }
        end_slots = set(range(1, 7)) - light_slots
        for _ in range(10):
            order = list(range(6))
            rng.shuffle(order)
            w = WeightData(0, tuple(rep.weights[p] for p in order))
            d = aut_group(w)
            assert d.torus_rank == base.torus_rank
            assert d.finite_order == base.finite_order
            assert d.label == base.label
            slot_of = {src + 1: dst + 1 for dst, src in enumerate(order)}
            assert _orbits(d.finite.to_one_based_generators(), 6) == {
                frozenset(slot_of[k] for k in light_slots),
                frozenset(slot_of[k] for k in end_slots),
            }


class TestCoverageNeverFabricated:
    def _covered_by_table(self, spec) -> bool:
        if spec.family == "kapranov":
            r, s = spec.params
            return not (r == 1 and s == 1)
        if spec.family == "keel":
            (h,) = spec.params
            return h >= spec.n - 4
        return True

    def test_random_genus_zero_coverage_is_consistent(self):
        from hassett.families import classify_with_relabeling

        rng = random.Random(2026)
        checked = 0
        while checked < 60:
            n = rng.randint(5, 6)
            weights = tuple(
                F(rng.randint(1, 6), 6) for _ in range(n)
            )
            w = WeightData(0, weights)
            if not validate(w).ok:
                continue
            checked += 1
            classical = WeightData(0, (F(1),) * n)
            coarse_classical = coarse_equivalent_genus0(w, classical)
            hit = classify_with_relabeling(w)
            try:
                d = aut_group(w)
            except NotCoveredError:
                assert not coarse_classical
                assert hit is None or not self._covered_by_table(hit[0])
            else:
                assert coarse_classical or (
                    hit is not None and self._covered_by_table(hit[0])
                )
                assert d.finite_order is None or factorial(n) % d.finite_order == 0


class TestJsonContract:
    KEYS = {
        "torus_rank",
        "finite_order",
        "finite_generators",
        "label",
        "special",
        "stack_note",
        "provenance",
    }

    def test_del_pezzo_dict_is_fully_pinned(self):
        got = aut_group(kapranov_weights(1, 2, 5)).to_json_dict()
        assert got == {
            "torus_rank": 2,
            "finite_order": 12,
            "finite_generators": [
                [1, 2, 3, 5, 4],
                [1, 3, 2, 4, 5],
                [2, 1, 3, 4, 5],
            ],
            "label": "torus x S3 x S2",
            "special": None,
            "stack_note": None,
            "provenance": "genus-zero family table: kapranov:r=1,s=2,n=5",
        }

    def test_projective_line_rows_null_out_group_fields(self):
        got = aut_group(WeightData(1, (F(1, 2),))).to_json_dict()
        assert set(got) == self.KEYS
        assert got["special"] == "PGL2"
        assert got["torus_rank"] is None
        assert got["finite_order"] is None
        assert got["finite_generators"] is None
        assert got["stack_note"] == "stack: ℂ*"

    def test_generators_are_one_based_lists(self):
        got = aut_group(W_ZW).to_json_dict()
        assert set(got) == self.KEYS
        for perm in got["finite_generators"]:
            assert sorted(perm) == list(range(1, 7))
