"""Dual graphs, stability, boundary divisors, and contraction behavior."""

import json
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hassett.strata import (
    BoundaryDivisor,
    StableTree,
    contracted_divisors,
    divisor_tree,
    enumerate_boundary_divisors,
    is_stable,
    vertex_degree,
)
from hassett.weights import InvalidWeightDataError, WeightData
from tests.oracles import brute_contractions, brute_nodal_divisors

W_EXAMPLE = WeightData(genus=0, weights=(F(1, 3), F(1, 3), F(1, 3), F(2, 3), F(1)))
W_HALF = WeightData(genus=0, weights=(F(1, 2), F(1, 2), F(1, 2), F(1), F(1)))
W_SMALLER = WeightData(genus=0, weights=(F(1, 3), F(1, 3), F(1, 3), F(1, 3), F(1)))


def classical(n, genus=0):
    return WeightData(genus=genus, weights=(F(1),) * n)


def two_vertex(side, n, genera=(0, 0)):
    return StableTree(
        vertex_genera=genera,
        edges=((0, 1),),
        marking_at=tuple((m, 0 if m in side else 1) for m in range(1, n + 1)),
    )


def smooth_vertex(n, genus=0, clusters=()):
    return StableTree(
        vertex_genera=(genus,),
        edges=(),
        marking_at=tuple((m, 0) for m in range(1, n + 1)),
        clusters=(clusters,) if clusters else (),
    )


def nodal_keys(divs):
    return {
        (d.genus_split[0], frozenset(d.side)) for d in divs if d.kind == "nodal"
    }


def coincidence_pairs(divs):
    return {frozenset(d.pair) for d in divs if d.kind == "coincidence"}


class TestVertexDegree:
    def test_smooth_four_pointed_line(self):
        w = classical(4)
        assert vertex_degree(w, smooth_vertex(4), 0) == 2

    def test_three_pointed_side_can_be_degree_zero(self):
        t = two_vertex({1, 2, 3}, 5)
        assert vertex_degree(W_EXAMPLE, t, 0) == 0
        assert vertex_degree(W_EXAMPLE, t, 1) == F(2, 3)

    def test_heavy_two_pointed_side(self):
        t = two_vertex({4, 5}, 5)
        assert vertex_degree(W_HALF, t, 0) == 1
        assert vertex_degree(W_HALF, t, 1) == F(1, 2)

    def test_self_loop_counts_twice(self):
        w = WeightData(genus=1, weights=(F(1),))
        t = StableTree(vertex_genera=(0,), edges=((0, 0),), marking_at=((1, 0),))
        assert vertex_degree(w, t, 0) == 1  # -2 + 2 + 1

    def test_unknown_vertex(self):
        with pytest.raises(ValueError):
            vertex_degree(classical(4), smooth_vertex(4), 3)

    def test_handshake_identity(self):
        # sum of component degrees = 2g - 2 + total weight
        cases = [
            (classical(5), smooth_vertex(5)),
            (W_HALF, two_vertex({1, 2, 3}, 5)),
            (W_EXAMPLE, two_vertex({1, 5}, 5)),
            (
                WeightData(genus=2, weights=(F(1, 2), F(1))),
                StableTree(
                    vertex_genera=(1, 0),
                    edges=((0, 1), (1, 1)),
                    marking_at=((1, 0), (2, 1)),
                ),
            ),
        ]
        for w, t in cases:
            total = sum(
                (vertex_degree(w, t, v) for v in range(t.num_vertices)), F(0)
            )
            assert total == 2 * w.genus - 2 + w.total


class TestIsStable:
    def test_smooth_classical_curve(self):
        assert is_stable(classical(5), smooth_vertex(5))

    def test_degree_zero_component_fails(self):
        assert not is_stable(W_EXAMPLE, two_vertex({1, 2, 3}, 5))

    def test_same_tree_stable_under_larger_weights(self):
        assert is_stable(W_HALF, two_vertex({1, 2, 3}, 5))

    def test_heavy_cluster_fails(self):
        assert not is_stable(W_HALF, smooth_vertex(5, clusters=((4, 5),)))

    def test_light_cluster_passes(self):
        assert is_stable(W_HALF, smooth_vertex(5, clusters=((1, 2),)))

    def test_relabeling_invariance(self):
        import random

        rng = random.Random(55)
        w = W_HALF
        t = two_vertex({1, 4}, 5)
        for _ in range(10):
            perm = list(range(1, 6))
            rng.shuffle(perm)  # perm[k-1] = image of k
            w2 = WeightData(
                genus=0,
                weights=tuple(w.weights[perm.index(k)] for k in range(1, 6)),
            )
            t2 = StableTree(
                vertex_genera=t.vertex_genera,
                edges=t.edges,
                marking_at=tuple((perm[m - 1], v) for m, v in t.marking_at),
            )
            assert is_stable(w, t) == is_stable(w2, t2)

    def test_wrong_total_genus_rejected(self):
        with pytest.raises(ValueError):
            is_stable(WeightData(genus=1, weights=(F(1),) * 5), smooth_vertex(5))

    def test_missing_marking_rejected(self):
        short = StableTree(
            vertex_genera=(0,), edges=(), marking_at=((1, 0), (2, 0), (3, 0))
        )
        with pytest.raises(ValueError):
            is_stable(classical(5), short)


class TestTreeStructure:
    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            StableTree(vertex_genera=(0, 0), edges=(), marking_at=((1, 0), (2, 1)))

    def test_duplicate_marking_rejected(self):
        with pytest.raises(ValueError):
            StableTree(vertex_genera=(0,), edges=(), marking_at=((1, 0), (1, 0)))

    def test_cluster_must_sit_at_its_vertex(self):
        with pytest.raises(ValueError):
            StableTree(
                vertex_genera=(0, 0),
                edges=((0, 1),),
                marking_at=((1, 0), (2, 1)),
                clusters=(((1, 2),), ()),
            )

    def test_json_round_trip(self):
        t = StableTree(
            vertex_genera=(1, 0),
            edges=((0, 1), (1, 1)),
            marking_at=((1, 0), (2, 1), (3, 1)),
            clusters=((), ((2, 3),)),
        )
        blob = t.to_json_dict()
        assert blob["schema"] == "stable-tree/1"
        assert StableTree.from_json_dict(blob) == t

    @pytest.mark.parametrize(
        "change",
        [
            {"vertices": None},  # the key is dropped below
            {"vertices": [{}]},
            {"vertices": [{"genus": "0"}, {"genus": 0}]},
            {"vertices": [{"genus": 1.5}, {"genus": 0}]},
            {"vertices": [0, 0]},
            {"edges": None},
            {"edges": [0]},
            {"markings": {"x": 0}},
            {"markings": {None: 0}},
            {"markings": {1.5: 0}},
            {"markings": [1]},
            {"markings": {"1": "0"}},
            {"clusters": [1, 1]},
        ],
    )
    def test_malformed_json_raises_value_error(self, change):
        blob = StableTree(
            vertex_genera=(1, 0), edges=((0, 1),), marking_at=((1, 0), (2, 1))
        ).to_json_dict()
        blob.update(change)
        blob = {key: value for key, value in blob.items() if value is not None}
        with pytest.raises(ValueError):
            StableTree.from_json_dict(blob)

    def test_non_object_json_raises_value_error(self):
        blob = StableTree(vertex_genera=(2,), edges=(), marking_at=()).to_json_dict()
        for data in ([blob], 3, "stable-tree/1", None):
            with pytest.raises(ValueError):
                StableTree.from_json_dict(data)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_json_round_trip_random_trees(self, data):
        # a random connected graph: a spanning tree plus extra edges and
        # self-loops, markings scattered, some coincident at a vertex
        nv = data.draw(st.integers(1, 5))
        genera = data.draw(st.lists(st.integers(0, 3), min_size=nv, max_size=nv))
        vertex = st.integers(0, nv - 1)
        edges = [(data.draw(st.integers(0, v - 1)), v) for v in range(1, nv)]
        edges += data.draw(st.lists(st.tuples(vertex, vertex), max_size=3))
        n = data.draw(st.integers(0, 6))
        at = data.draw(st.lists(vertex, min_size=n, max_size=n))
        clusters = [[] for _ in range(nv)]
        for v in range(nv):
            here = [m for m in range(1, n + 1) if at[m - 1] == v]
            if len(here) >= 2 and data.draw(st.booleans()):
                clusters[v].append(tuple(here[:2]))
        t = StableTree(
            vertex_genera=tuple(genera),
            edges=tuple(edges),
            marking_at=tuple((m, at[m - 1]) for m in range(1, n + 1)),
            clusters=tuple(map(tuple, clusters)),
        )
        blob = json.loads(json.dumps(t.to_json_dict()))
        assert StableTree.from_json_dict(blob) == t

    def test_total_genus(self):
        t = StableTree(
            vertex_genera=(1, 0),
            edges=((0, 1), (1, 1)),
            marking_at=((1, 0),),
        )
        assert t.total_genus == 2  # 1 + 2 edges - 2 vertices + 1


class TestEnumerateBoundaryDivisors:
    def test_classical_five_points(self):
        divs = enumerate_boundary_divisors(classical(5))
        assert len([d for d in divs if d.kind == "nodal"]) == 10
        assert coincidence_pairs(divs) == set()

    def test_classical_counts_match_closed_form(self):
        for n in (5, 6, 7):
            divs = enumerate_boundary_divisors(classical(n))
            assert len(divs) == 2 ** (n - 1) - n - 1

    def test_example_weights_census(self):
        divs = enumerate_boundary_divisors(W_EXAMPLE)
        assert nodal_keys(divs) == {
            (0, frozenset({1, 5})),
            (0, frozenset({2, 5})),
            (0, frozenset({3, 5})),
        }
        assert coincidence_pairs(divs) == {
            frozenset(p)
            for p in [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]
        }

    def test_half_weights_census(self):
        divs = enumerate_boundary_divisors(W_HALF)
        assert len([d for d in divs if d.kind == "nodal"]) == 7
        assert coincidence_pairs(divs) == {
            frozenset(p) for p in [(1, 2), (1, 3), (2, 3)]
        }

    def test_matches_brute_force_oracle(self):
        import random

        rng = random.Random(123)
        for _ in range(60):
            n = rng.randint(2, 7)
            genus = rng.choice([0, 0, 1, 2])
            ws = tuple(F(rng.randint(0, 6), 6) for _ in range(n))
            w = WeightData(genus=genus, weights=ws)
            if 2 * genus - 2 + w.total <= 0:
                continue
            got = nodal_keys(enumerate_boundary_divisors(w))
            assert got == brute_nodal_divisors(genus, list(ws))

    def test_irreducible_divisor_present_for_positive_genus(self):
        divs = enumerate_boundary_divisors(WeightData(genus=1, weights=(F(1),)))
        assert [d.kind for d in divs] == ["irreducible"]
        divs2 = enumerate_boundary_divisors(WeightData(genus=1, weights=(F(1, 2), F(1, 2))))
        assert [d.kind for d in divs2] == ["irreducible", "coincidence"]

    def test_genus_two_unpointed(self):
        divs = enumerate_boundary_divisors(WeightData(genus=2, weights=()))
        assert [(d.kind, d.genus_split) for d in divs] == [
            ("nodal", (1, 1)),
            ("irreducible", None),
        ]

    def test_every_divisor_tree_is_stable(self):
        for w in (classical(5), W_EXAMPLE, W_HALF,
                  WeightData(genus=2, weights=(F(1, 2), F(1, 2)))):
            for d in enumerate_boundary_divisors(w):
                assert is_stable(w, divisor_tree(w, d))

    def test_divisor_tree_validates_its_datum(self):
        d = enumerate_boundary_divisors(classical(5))[0]
        with pytest.raises(InvalidWeightDataError):
            divisor_tree(WeightData(genus=0, weights=(F(1, 3),) * 5), d)

    def test_zero_weights_do_not_make_coincidence_divisors(self):
        w = WeightData(genus=0, weights=(F(0), F(0), F(1), F(1), F(1)))
        assert coincidence_pairs(enumerate_boundary_divisors(w)) == set()


class TestContractedDivisors:
    def test_first_reduction_contracts_one_divisor(self):
        cons = contracted_divisors(W_HALF, W_EXAMPLE)
        assert [c.collapsed_side for c in cons] == [(1, 2, 3)]
        assert cons[0].collapsed_genus == 0

    def test_second_reduction_contracts_three(self):
        cons = contracted_divisors(W_EXAMPLE, W_SMALLER)
        assert [c.collapsed_side for c in cons] == [(1, 2, 4), (1, 3, 4), (2, 3, 4)]

    def test_identity_reduction_contracts_nothing(self):
        assert contracted_divisors(W_HALF, W_HALF) == []

    def test_requires_pointwise_domination(self):
        with pytest.raises(ValueError):
            contracted_divisors(W_EXAMPLE, W_HALF)


positive_weight = st.fractions(
    min_value=F(1, 6), max_value=1, max_denominator=6
)


@st.composite
def reduction_pair(draw):
    n = draw(st.integers(min_value=4, max_value=7))
    a_ws = tuple(draw(positive_weight) for _ in range(n))
    b_ws = tuple(
        draw(st.fractions(min_value=F(1, 6), max_value=ai, max_denominator=6))
        for ai in a_ws
    )
    assume(sum(a_ws) > 2 and sum(b_ws) > 2)
    return (
        WeightData(genus=0, weights=a_ws),
        WeightData(genus=0, weights=b_ws),
    )


@given(reduction_pair())
@settings(max_examples=120, deadline=None)
def test_census_conservation_under_reduction(pair):
    a, b = pair
    div_a = enumerate_boundary_divisors(a)
    div_b = enumerate_boundary_divisors(b)
    nodal_a = sum(d.kind == "nodal" for d in div_a)
    nodal_b = sum(d.kind == "nodal" for d in div_b)
    coinc_a = sum(d.kind == "coincidence" for d in div_a)
    coinc_b = sum(d.kind == "coincidence" for d in div_b)
    contracted = len(contracted_divisors(a, b))
    # every nodal divisor of the source survives, becomes the coincidence
    # divisor of its two-marked collapsed side, or is contracted
    assert nodal_a == nodal_b + (coinc_b - coinc_a) + contracted
    assert coinc_a <= coinc_b


weight_with_zero = st.fractions(min_value=0, max_value=1, max_denominator=6)


@st.composite
def dominated_pair(draw):
    """A valid source datum and a valid target drawn slotwise below it:
    genus 0-3, up to nine markings, zero weights allowed on either side."""
    genus = draw(st.integers(min_value=0, max_value=3))
    # genus 0 collapses nothing below five markings, and small data are
    # mostly invalid there
    n = draw(st.integers(min_value=5 if genus == 0 else 0, max_value=9))
    a_ws = tuple(draw(weight_with_zero) for _ in range(n))
    # each target weight keeps its source weight or drops to a fraction of
    # it, so targets stay valid yet light enough to collapse sides
    b_ws = tuple(
        ai * draw(st.sampled_from([F(1), F(1, 2), F(1, 3), F(1, 4), F(0)]))
        for ai in a_ws
    )
    for ws in (a_ws, b_ws):
        assume(2 * genus - 2 + sum(ws) > 0 and (n > 0 or genus >= 2))
    return WeightData(genus, a_ws), WeightData(genus, b_ws)


@given(dominated_pair())
@settings(max_examples=400, deadline=None)
def test_contractions_match_the_subset_definition(pair):
    a, b = pair
    got = contracted_divisors(a, b)
    assert [
        (c.collapsed_side, c.divisor.side) for c in got
    ] == brute_contractions(list(a.weights), list(b.weights), a.genus)
    for c in got:
        assert c.collapsed_genus == 0
        assert c.divisor.kind == "nodal" and c.divisor.genus_split == (0, a.genus)
        # in positive genus the divisor is filed under the collapsed side
        if a.genus > 0:
            assert c.collapsed_side == c.divisor.side
