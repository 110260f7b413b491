"""Permutation groups: orders against closure oracles and the chain.

Groups generated by transpositions take their order from their orbits;
those orders are checked against naive closure at small degree and against
the stabilizer chain at larger degree. Every other group goes through the
chain, checked against naive closure.
"""

import math
import random

import pytest

from hassett import perms
from hassett.perms import PermGroup, generate_group, transposition
from tests.oracles import close_permutations, naive_closure


def random_perm(rng, degree):
    p = list(range(degree))
    rng.shuffle(p)
    return tuple(p)


def random_transpositions(rng, degree, count):
    """count random transpositions, repeats and overlaps allowed."""
    if degree < 2:
        return []
    return [transposition(*rng.sample(range(degree), 2), degree) for _ in range(count)]


def closure_orbits(elements, degree):
    return tuple(sorted({tuple(sorted({p[x] for p in elements})) for x in range(degree)}))


@pytest.fixture
def chain_calls(monkeypatch):
    """Record every stabilizer-chain order computation."""
    calls = []
    chain = perms._stabilizer_chain_order

    def spy(gens, degree):
        calls.append(degree)
        return chain(gens, degree)

    monkeypatch.setattr(perms, "_stabilizer_chain_order", spy)
    return calls


class TestGenerateGroup:
    def test_trivial_group(self):
        g = generate_group([], 5)
        assert g.order == 1
        assert g.generators == ()
        assert g.orbits == ((0,), (1,), (2,), (3,), (4,))

    def test_single_transposition(self):
        g = generate_group([transposition(0, 1, 5)], 5)
        assert g.order == 2
        assert g.orbits == ((0, 1), (2,), (3,), (4,))

    def test_adjacent_transpositions_give_full_symmetric_group(self):
        for n in (3, 4, 5, 6, 7):
            gens = [transposition(i, i + 1, n) for i in range(n - 1)]
            assert generate_group(gens, n).order == math.factorial(n)

    def test_product_of_symmetric_groups(self):
        # S_{1,2} x S_{4,5,6} on six points, as in a two-class weight datum
        gens = [
            transposition(0, 1, 6),
            transposition(3, 4, 6),
            transposition(3, 5, 6),
            transposition(4, 5, 6),
        ]
        g = generate_group(gens, 6)
        assert g.order == 12
        assert g.orbits == ((0, 1), (2,), (3, 4, 5))

    def test_cyclic_group(self):
        g = generate_group([(1, 2, 3, 4, 0)], 5)
        assert g.order == 5

    def test_large_symmetric_group_order_without_listing(self):
        gens = [transposition(i, i + 1, 12) for i in range(11)]
        assert generate_group(gens, 12).order == math.factorial(12)

    def test_alternating_group(self):
        # 3-cycles generate A_5, order 60
        gens = [(1, 2, 0, 3, 4), (0, 2, 3, 1, 4), (0, 1, 3, 4, 2)]
        assert generate_group(gens, 5).order == 60

    def test_identity_is_dropped_and_generators_canonical(self):
        ident = (0, 1, 2)
        g = generate_group([ident, (1, 0, 2), (1, 0, 2)], 3)
        assert g.generators == ((1, 0, 2),)

    def test_invalid_permutation_rejected(self):
        with pytest.raises(ValueError):
            generate_group([(0, 0, 1)], 3)
        with pytest.raises(ValueError):
            generate_group([(0, 1)], 3)

    def test_order_matches_bfs_closure_on_random_groups(self):
        rng = random.Random(606)
        for _ in range(40):
            degree = rng.randint(1, 6)
            gens = [random_perm(rng, degree) for _ in range(rng.randint(0, 3))]
            group = generate_group(gens, degree)
            assert group.order == len(naive_closure(gens, degree))
            listed = close_permutations(list(group.generators), degree, 1_000_000)
            assert listed is not None and len(listed) == group.order

    def test_transposition_orders_match_closure(self, chain_calls):
        rng = random.Random(2024)
        for _ in range(60):
            degree = rng.randint(1, 6)
            gens = random_transpositions(rng, degree, rng.randint(0, 6))
            group = generate_group(gens, degree)
            closure = naive_closure(gens, degree)
            assert group.order == len(closure)
            assert group.orbits == closure_orbits(closure, degree)
        assert chain_calls == []

    def test_transposition_orders_match_stabilizer_chain(self, chain_calls):
        rng = random.Random(2025)
        for _ in range(40):
            degree = rng.randint(7, 12)
            gens = random_transpositions(rng, degree, rng.randint(0, 14))
            group = generate_group(gens, degree)
            assert group.order == perms._stabilizer_chain_order(
                list(group.generators), degree
            )
        # only the reference calls above ran the chain
        assert len(chain_calls) == 40

    def test_transpositions_with_one_longer_cycle_use_the_chain(self, chain_calls):
        rng = random.Random(2026)
        for trial in range(40):
            length = 3 + trial % 2
            degree = rng.randint(length, 6)
            cycle = list(range(degree))
            points = rng.sample(range(degree), length)
            for a, b in zip(points, points[1:] + points[:1]):
                cycle[a] = b
            gens = random_transpositions(rng, degree, rng.randint(0, 4))
            gens.insert(rng.randint(0, len(gens)), tuple(cycle))
            group = generate_group(gens, degree)
            closure = naive_closure(gens, degree)
            assert group.order == len(closure)
            assert group.orbits == closure_orbits(closure, degree)
            assert len(chain_calls) == trial + 1

    def test_order_divides_factorial(self):
        rng = random.Random(77)
        for _ in range(30):
            degree = rng.randint(1, 7)
            gens = [random_perm(rng, degree) for _ in range(2)]
            group = generate_group(gens, degree)
            assert math.factorial(degree) % group.order == 0

    def test_elements_respects_limit(self):
        gens = [transposition(i, i + 1, 5) for i in range(4)]
        group = generate_group(gens, 5)
        assert close_permutations(list(group.generators), 5, 119) is None
        full = close_permutations(list(group.generators), 5, 120)
        assert full is not None and len(full) == 120

    def test_one_based_generator_export(self):
        g = generate_group([transposition(0, 1, 4)], 4)
        assert g.to_one_based_generators() == [[2, 1, 3, 4]]
