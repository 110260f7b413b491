"""Property tests: chamber signatures against full enumeration and symmetry."""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from hassett.weights import (
    WeightData,
    _chamber_types,
    _slot_classes,
    chamber_signature,
    fine_equivalent,
    validate,
)
from tests.oracles import brute_signature, brute_walls, signature_antichains

small_fraction = st.builds(
    F, st.integers(min_value=0, max_value=6), st.integers(min_value=1, max_value=6)
).map(lambda q: min(q, F(1)))


@st.composite
def weight_data(draw):
    ws = tuple(draw(st.lists(small_fraction, min_size=2, max_size=8)))
    total = sum(ws)
    # 2g - 2 + total > 0 constrains the smallest usable genus
    min_g = 0 if total > 2 else (1 if total > 0 else 2)
    g = draw(st.integers(min_value=min_g, max_value=3))
    return WeightData(genus=g, weights=ws)


weight_data = weight_data()


@given(weight_data)
@settings(max_examples=300, deadline=None)
def test_signature_matches_full_enumeration(w):
    got = chamber_signature(w)
    assert set(got) == brute_signature(list(w.weights))


@given(weight_data)
@settings(max_examples=200, deadline=None)
def test_signature_is_downward_closed(w):
    sig = chamber_signature(w)
    for s in sig:
        for drop in s:
            sub = s - {drop}
            if len(sub) >= 2:
                assert sub in sig


@given(weight_data, st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_signature_is_equivariant_under_relabeling(w, rng):
    perm = list(range(1, w.n + 1))
    rng.shuffle(perm)  # perm[k-1] = image of slot k
    relabeled = WeightData(
        genus=w.genus,
        weights=tuple(w.weights[perm.index(k)] for k in range(1, w.n + 1)),
    )
    mapped = frozenset(frozenset(perm[i - 1] for i in s) for s in chamber_signature(w))
    assert mapped == chamber_signature(relabeled)


@given(weight_data)
@settings(max_examples=150, deadline=None)
def test_fine_equivalence_is_reflexive_and_signature_based(w):
    assert fine_equivalent(w, w)
    # nudging every weight to 1 keeps validity but usually changes the chamber
    classical = WeightData(genus=w.genus, weights=(F(1),) * w.n)
    if validate(w).ok and validate(classical).ok:
        assert fine_equivalent(w, classical) == (
            chamber_signature(w) == chamber_signature(classical)
        )


@given(weight_data)
@settings(max_examples=300, deadline=None)
def test_walls_match_full_enumeration(w):
    # every zero-weight marking pads walls, not only the first one
    assert list(validate(w).walls) == brute_walls(list(w.weights))


@st.composite
def classed_data(draw):
    """A valid datum of genus 0-2 with at most nine markings drawn from
    one to four weights (zero among them), and a second weight tuple on
    the same slots whose classes refine the datum's."""
    k = draw(st.integers(min_value=1, max_value=4))
    values = draw(st.lists(small_fraction, min_size=k, max_size=k))
    picks = draw(st.lists(st.integers(0, k - 1), max_size=9))
    ws = tuple(values[i] for i in picks)
    total = sum(ws)
    min_g = 0 if total > 2 else (1 if total > 0 else 2)
    g = draw(st.integers(min_value=min_g, max_value=2))
    split = tuple(draw(st.lists(small_fraction, min_size=len(ws), max_size=len(ws))))
    other = split if draw(st.booleans()) else ws
    return WeightData(g, ws), WeightData(g, other)


@given(classed_data(), st.sampled_from([2, 3]))
@settings(max_examples=300, deadline=None)
def test_chamber_types_match_antichain_oracle(data, min_size):
    # the class rows are the oracle's set rows projected onto the classes
    w, other = data
    classes = _slot_classes(w, other)
    assert sorted(slot for block in classes for slot in block) == list(range(1, w.n + 1))
    assert [block[0] for block in classes] == sorted(block[0] for block in classes)
    for block in classes:
        assert len({(w.weights[i - 1], other.weights[i - 1]) for i in block}) == 1

    def project(sets):
        return sorted({tuple(len(s & set(block)) for block in classes) for s in sets})

    maximal, minimal = signature_antichains(list(w.weights), min_size)
    got_maximal, got_minimal = _chamber_types(w, classes, min_size)
    assert sorted(got_maximal) == project(maximal)
    assert sorted(got_minimal) == project(minimal)
