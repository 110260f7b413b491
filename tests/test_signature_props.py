"""Property tests: chamber signatures against full enumeration and symmetry."""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from hassett import kernels
from hassett.families import classify_with_relabeling, kapranov_spec, kapranov_weights
from hassett.weights import (
    WeightData,
    _chamber_type_stream,
    _slot_classes,
    chamber_signature,
    coarse_equivalent_genus0,
    fine_equivalent,
    validate,
)
from tests.oracles import brute_signature, brute_walls, canonical_sets, signature_antichains

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
    # the same sets, as sorted tuples in canonical order: by size, then
    # lexicographically
    got = chamber_signature(w)
    assert got == canonical_sets(brute_signature(list(w.weights)))
    assert got == sorted(got, key=lambda s: (len(s), s))


@given(weight_data)
@settings(max_examples=200, deadline=None)
def test_signature_is_downward_closed(w):
    sig = set(chamber_signature(w))
    for s in sig:
        for drop in s:
            sub = tuple(x for x in s if x != drop)
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
    mapped = canonical_sets([perm[i - 1] for i in s] for s in chamber_signature(w))
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
    streamed = list(_chamber_type_stream(w, classes, min_size))
    assert sorted(t for t, big in streamed if not big) == project(maximal)
    assert sorted(t for t, big in streamed if big) == project(minimal)
    # solving for the largest class lists no type twice
    assert len({t for t, _ in streamed}) == len(streamed)


@st.composite
def comparable_pairs(draw):
    """Two valid data of genus 0-2 on the same n <= 9 slots. Each weight
    tuple takes its values from one to four weights (zero may be among
    them) or has all weights distinct; on half the draws the second datum
    is the first with each weight moved by -1/97, 0 or +1/97 (kept in
    [0, 1]), so that equivalent pairs occur."""
    n = draw(st.integers(min_value=0, max_value=9))
    distinct = st.fractions(min_value=0, max_value=1, max_denominator=12)

    def weights() -> list[F]:
        if draw(st.booleans()):
            return draw(st.lists(distinct, min_size=n, max_size=n, unique=True))
        values = draw(st.lists(small_fraction, min_size=1, max_size=4))
        return [draw(st.sampled_from(values)) for _ in range(n)]

    first = weights()
    if draw(st.booleans()):
        moves = draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=n, max_size=n))
        second = [min(max(q + F(d, 97), F(0)), F(1)) for q, d in zip(first, moves)]
    else:
        second = weights()
    total = min(sum(first), sum(second))
    min_g = 0 if total > 2 else (1 if total > 0 else 2)
    # the smallest genus on half the draws, so that coarse pairs are common
    g = min_g if draw(st.booleans()) else draw(st.integers(min_value=min_g, max_value=2))
    return WeightData(g, tuple(first)), WeightData(g, tuple(second))


@given(comparable_pairs())
@settings(max_examples=300, deadline=None)
def test_equivalences_match_signature_sets(pair):
    w1, w2 = pair
    sig1, sig2 = brute_signature(list(w1.weights)), brute_signature(list(w2.weights))
    assert fine_equivalent(w1, w2) == (sig1 == sig2)
    assert fine_equivalent(w2, w1) == (sig1 == sig2)
    if w1.genus == 0:

        def coarse(sig):
            return {s for s in sig if len(s) >= 3}

        assert coarse_equivalent_genus0(w1, w2) == (coarse(sig1) == coarse(sig2))


def test_equivalence_and_classification_enumerate_no_subset(monkeypatch):
    # The equivalences and the classification decide on class rows, the
    # check of a relabeled answer included.
    def refuse(*args):
        raise AssertionError("the enumeration kernel was called")

    monkeypatch.setattr(kernels, "enumerate_small_subsets", refuse)
    w = kapranov_weights(2, 3, 12)
    shuffled = WeightData(0, w.weights[::-1])
    light = WeightData(0, (F(1, 9),) * 11 + (F(1),))
    assert fine_equivalent(w, w) and not fine_equivalent(w, shuffled)
    assert coarse_equivalent_genus0(w, w) and not coarse_equivalent_genus0(w, light)
    identity = tuple(range(1, 13))
    assert classify_with_relabeling(w) == (kapranov_spec(2, 3, 12), identity)
    spec, sigma = classify_with_relabeling(shuffled)
    assert spec == kapranov_spec(2, 3, 12) and sorted(sigma) == list(identity)
    assert all(w.weights[j] == shuffled.weights[sigma[j] - 1] for j in range(12))
