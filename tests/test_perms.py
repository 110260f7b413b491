"""Permutation groups: orders against closure oracles and the chain.

``generate_group`` takes transpositions as pairs of 0-based points and
reads the order off the orbits; its orders are checked against naive
closure at small degree and against the oracle stabilizer chain at larger
degree. Anything but a pair of distinct points in range is rejected. The
oracles multiply image tuples built by ``transposition_image``, never by
the package. The oracle chain itself is checked against naive closure on
cycles, the alternating group, random permutations and transpositions
mixed with one longer cycle.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hassett.perms import generate_group
from tests.oracles import (
    close_permutations,
    naive_closure,
    stabilizer_chain_order,
    transposition_image,
)


def random_perm(rng, degree):
    p = list(range(degree))
    rng.shuffle(p)
    return tuple(p)


def random_transpositions(rng, degree, count):
    """count random transpositions as pairs, repeats, overlaps and either
    order allowed."""
    if degree < 2:
        return []
    return [tuple(rng.sample(range(degree), 2)) for _ in range(count)]


def images(pairs, degree):
    """The oracle's one-line images of the transpositions ``pairs``."""
    return [transposition_image(i, j, degree) for i, j in pairs]


def closure_orbits(elements, degree):
    return tuple(sorted({tuple(sorted({p[x] for p in elements})) for x in range(degree)}))


def mixed_generator_sets():
    """Forty random transposition sets, each with one 3- or 4-cycle added."""
    rng = random.Random(2026)
    for trial in range(40):
        length = 3 + trial % 2
        degree = rng.randint(length, 6)
        cycle = list(range(degree))
        points = rng.sample(range(degree), length)
        for a, b in zip(points, points[1:] + points[:1]):
            cycle[a] = b
        gens = images(random_transpositions(rng, degree, rng.randint(0, 4)), degree)
        gens.insert(rng.randint(0, len(gens)), tuple(cycle))
        yield gens, degree


CYCLE_5 = [(1, 2, 3, 4, 0)]
# 3-cycles generating A_5, order 60
A5_THREE_CYCLES = [(1, 2, 0, 3, 4), (0, 2, 3, 1, 4), (0, 1, 3, 4, 2)]


class TestGenerateGroup:
    def test_trivial_group(self):
        g = generate_group([], 5)
        assert g.order == 1
        assert g.generators == ()
        assert g.orbits == ((0,), (1,), (2,), (3,), (4,))

    def test_single_transposition(self):
        g = generate_group([(0, 1)], 5)
        assert g.order == 2
        assert g.orbits == ((0, 1), (2,), (3,), (4,))

    def test_adjacent_transpositions_give_full_symmetric_group(self):
        for n in (3, 4, 5, 6, 7):
            gens = [(i, i + 1) for i in range(n - 1)]
            assert generate_group(gens, n).order == math.factorial(n)

    def test_product_of_symmetric_groups(self):
        # S_{1,2} x S_{4,5,6} on six points, as in a two-class weight datum
        g = generate_group([(0, 1), (3, 4), (3, 5), (4, 5)], 6)
        assert g.order == 12
        assert g.orbits == ((0, 1), (2,), (3, 4, 5))

    def test_cyclic_group(self):
        assert stabilizer_chain_order(CYCLE_5, 5) == len(naive_closure(CYCLE_5, 5)) == 5

    def test_large_symmetric_group_order_without_listing(self):
        gens = [(i, i + 1) for i in range(11)]
        assert generate_group(gens, 12).order == math.factorial(12)

    def test_alternating_group(self):
        gens = A5_THREE_CYCLES
        assert stabilizer_chain_order(gens, 5) == len(naive_closure(gens, 5)) == 60

    @pytest.mark.parametrize(
        "pair",
        [(0, 3), (3, 0), (-1, 1), (1, 1), (0, 0), (0,), (0, 1, 2), (1, 0, 2), ()],
    )
    def test_malformed_pairs_rejected(self, pair):
        # out of range, two equal points, or not of length two (an image
        # tuple included): the one malformed pair spoils the whole call
        with pytest.raises(ValueError, match="is not a pair of distinct points"):
            generate_group([(0, 1), pair], 3)

    def test_reversed_and_repeated_pairs_are_one_generator(self):
        g = generate_group([(1, 0), (0, 1), (1, 0), (2, 1)], 3)
        assert g.generators == ((0, 1), (1, 2))
        assert g.order == 6

    def test_order_matches_bfs_closure_on_random_groups(self):
        rng = random.Random(606)
        for _ in range(40):
            degree = rng.randint(1, 6)
            gens = [random_perm(rng, degree) for _ in range(rng.randint(0, 3))]
            order = stabilizer_chain_order(gens, degree)
            assert order == len(naive_closure(gens, degree))
            listed = close_permutations(gens, degree, 1_000_000)
            assert listed is not None and len(listed) == order

    def test_transposition_orders_match_closure(self):
        rng = random.Random(2024)
        for _ in range(60):
            degree = rng.randint(1, 6)
            pairs = random_transpositions(rng, degree, rng.randint(0, 6))
            group = generate_group(pairs, degree)
            closure = naive_closure(images(pairs, degree), degree)
            assert group.order == len(closure)
            assert group.orbits == closure_orbits(closure, degree)

    def test_transposition_orders_match_stabilizer_chain(self):
        rng = random.Random(2025)
        for _ in range(40):
            degree = rng.randint(7, 12)
            pairs = random_transpositions(rng, degree, rng.randint(0, 14))
            group = generate_group(pairs, degree)
            assert group.order == stabilizer_chain_order(images(pairs, degree), degree)

    def test_transpositions_with_one_longer_cycle_use_the_chain(self):
        for gens, degree in mixed_generator_sets():
            assert stabilizer_chain_order(gens, degree) == len(naive_closure(gens, degree))

    def test_order_divides_factorial(self):
        rng = random.Random(77)
        for _ in range(30):
            degree = rng.randint(1, 7)
            gens = [random_perm(rng, degree) for _ in range(2)]
            assert math.factorial(degree) % stabilizer_chain_order(gens, degree) == 0

    def test_elements_respects_limit(self):
        gens = images(generate_group([(i, i + 1) for i in range(4)], 5).generators, 5)
        assert close_permutations(gens, 5, 119) is None
        full = close_permutations(gens, 5, 120)
        assert full is not None and len(full) == 120

    def test_one_based_generator_export(self):
        g = generate_group([(0, 1)], 4)
        assert g.to_one_based_generators() == [[2, 1, 3, 4]]
        # lexicographic by image: the swap (1 2) of the later points first
        g = generate_group([(0, 1), (1, 2)], 3)
        assert g.to_one_based_generators() == [[1, 3, 2], [2, 1, 3]]

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_pair_sets_match_the_oracle_images_and_closure(self, data):
        degree = data.draw(st.integers(min_value=2, max_value=6))
        point = st.integers(min_value=0, max_value=degree - 1)
        pairs = data.draw(
            st.lists(st.tuples(point, point).filter(lambda p: p[0] != p[1]), max_size=6)
        )
        group = generate_group(pairs, degree)
        gens = images(pairs, degree)
        assert group.to_one_based_generators() == sorted(
            [v + 1 for v in image] for image in set(gens)
        )
        closure = naive_closure(gens, degree)
        assert group.order == len(closure)
        assert group.orbits == closure_orbits(closure, degree)
