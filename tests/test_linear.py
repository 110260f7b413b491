"""Exact feasibility solver: pinned cases, planted systems, strictness."""

import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hassett import linear
from hassett.linear import Constraint, LinearSystem, evaluate, solve_feasibility
from oracles import row_holds


def le(coeffs, bound):
    return Constraint(tuple(F(c) for c in coeffs), "<=", F(bound))


def lt(coeffs, bound):
    return Constraint(tuple(F(c) for c in coeffs), "<", F(bound))


def eq(coeffs, bound):
    return Constraint(tuple(F(c) for c in coeffs), "=", F(bound))


class TestPinned:
    def test_empty_system_returns_origin(self):
        assert solve_feasibility(LinearSystem(3, ())) == (F(0), F(0), F(0))

    def test_single_interval(self):
        sys_ = LinearSystem(1, (le([1], 5), le([-1], -3)))
        w = solve_feasibility(sys_)
        assert w is not None and F(3) <= w[0] <= F(5)

    def test_point_interval_needs_both_non_strict(self):
        closed = LinearSystem(1, (le([1], 2), le([-1], -2)))
        assert solve_feasibility(closed) == (F(2),)
        half_open = LinearSystem(1, (lt([1], 2), le([-1], -2)))
        assert solve_feasibility(half_open) is None

    def test_strict_boundary_is_respected(self):
        # x < 1 together with x >= 1 has no solution; <= 1 does
        assert solve_feasibility(LinearSystem(1, (lt([1], 1), le([-1], -1)))) is None
        w = solve_feasibility(LinearSystem(1, (le([1], 1), le([-1], -1))))
        assert w == (F(1),)

    def test_unbounded_directions(self):
        only_lower = solve_feasibility(LinearSystem(1, (lt([-1], -3),)))
        assert only_lower is not None and only_lower[0] > 3
        only_upper = solve_feasibility(LinearSystem(1, (lt([1], 0),)))
        assert only_upper is not None and only_upper[0] < 0

    def test_equality_chain(self):
        sys_ = LinearSystem(2, (eq([1, -1], 0), eq([0, 1], F(1, 3))))
        assert solve_feasibility(sys_) == (F(1, 3), F(1, 3))

    def test_ground_contradiction(self):
        sys_ = LinearSystem(2, (le([1, 1], 1), le([-1, -1], -2)))
        assert solve_feasibility(sys_) is None

    def test_strict_cycle_contradiction(self):
        # x < y, y < z, z < x
        sys_ = LinearSystem(
            3, (lt([1, -1, 0], 0), lt([0, 1, -1], 0), lt([-1, 0, 1], 0))
        )
        assert solve_feasibility(sys_) is None

    def test_mixed_scale_coefficients(self):
        sys_ = LinearSystem(
            2,
            (
                le([F(2, 3), F(1, 5)], F(7, 15)),
                le([F(-2, 3), F(-1, 5)], F(-7, 15)),
                le([0, 1], F(1)),
                le([0, -1], F(0)),
            ),
        )
        w = solve_feasibility(sys_)
        assert w is not None
        assert F(2, 3) * w[0] + F(1, 5) * w[1] == F(7, 15)

    def test_chamber_shaped_system(self):
        # three weights: pairs small, total strictly above 2 is impossible
        cons = [le([1, 1, 0], 1), le([1, 0, 1], 1), le([0, 1, 1], 1)]
        cons.append(lt([-1, -1, -1], -2))
        assert solve_feasibility(LinearSystem(3, tuple(cons))) is None
        # relaxing every pair to 3/2 allows totals up to 9/4
        relaxed = (
            le([1, 1, 0], F(3, 2)),
            le([1, 0, 1], F(3, 2)),
            le([0, 1, 1], F(3, 2)),
            lt([-1, -1, -1], -2),
        )
        w = solve_feasibility(LinearSystem(3, relaxed))
        assert w is not None and sum(w) > 2


def random_fraction(rng, span=4, denom_max=6):
    return F(rng.randint(-span, span), rng.randint(1, denom_max))


def sparse_coeffs(rng, nv):
    """At most three nonzero entries, like the facet rows the solver serves."""
    support = rng.sample(range(nv), k=rng.randint(1, min(3, nv)))
    row = [F(0)] * nv
    for j in support:
        c = F(0)
        while c == 0:
            c = random_fraction(rng)
        row[j] = c
    return tuple(row)


def planted_feasible(rng, nv, nc, fraction=random_fraction, row=sparse_coeffs):
    """A system built around a secret solution point."""
    point = tuple(fraction(rng) for _ in range(nv))
    cons = []
    for _ in range(nc):
        coeffs = row(rng, nv)
        value = sum((c * x for c, x in zip(coeffs, point)), F(0))
        kind = rng.choice(["<=", "<", "=", "slack"])
        if kind == "<=":
            cons.append(Constraint(coeffs, "<=", value))
        elif kind == "<":
            cons.append(Constraint(coeffs, "<", value + F(1, rng.randint(1, 9))))
        elif kind == "=":
            cons.append(Constraint(coeffs, "=", value))
        else:
            cons.append(Constraint(coeffs, "<=", value + F(rng.randint(0, 3))))
    return LinearSystem(nv, tuple(cons)), point


def planted_infeasible(rng, nv, nc, fraction=random_fraction, row=sparse_coeffs):
    """A random system plus a pair of directly clashing constraints."""
    sys_, _ = planted_feasible(rng, nv, max(0, nc - 2), fraction, row)
    coeffs = row(rng, nv)
    bound = fraction(rng)
    clash = (
        Constraint(coeffs, "<=", bound),
        Constraint(tuple(-c for c in coeffs), "<", -bound),
    )
    return LinearSystem(nv, sys_.constraints + clash)


class TestPlanted:
    def test_feasible_systems_yield_verified_witnesses(self):
        rng = random.Random(20260817)
        for trial in range(120):
            nv = rng.randint(1, 5)
            nc = rng.randint(1, 2 * nv + 2)
            system, point = planted_feasible(rng, nv, nc)
            assert evaluate(system, point), "planting bug"
            w = solve_feasibility(system)
            assert w is not None, f"trial {trial}: lost a feasible system"
            assert evaluate(system, w)

    def test_contradictions_are_detected(self):
        rng = random.Random(8177)
        for trial in range(120):
            nv = rng.randint(1, 5)
            nc = rng.randint(2, 2 * nv + 2)
            system = planted_infeasible(rng, nv, nc)
            assert solve_feasibility(system) is None, f"trial {trial}"


BIG = 10**6


def big_fraction(rng):
    return F(rng.randint(-BIG, BIG), rng.randint(1, BIG))


def big_coeffs(rng, nv):
    """Up to three nonzero entries: a shared factor of up to 10^6 over a
    shared denominator of up to 10^6, times small integers, so that rows
    and their combinations carry large common factors."""
    factor = F(rng.randint(1, BIG), rng.randint(1, BIG))
    support = rng.sample(range(nv), k=rng.randint(1, min(3, nv)))
    row = [F(0)] * nv
    for j in support:
        row[j] = factor * rng.choice([-3, -2, -1, 1, 2, 3])
    return tuple(row)


@pytest.fixture
def compressed_rows(monkeypatch):
    """Every row the solver keeps after each compression."""
    seen = []
    compress = linear._compress

    def spy(rows):
        kept = compress(rows)
        seen.extend(kept or ())
        return kept

    monkeypatch.setattr(linear, "_compress", spy)
    return seen


def assert_coprime_integer_rows(rows):
    assert rows
    for coeffs, bound, strict in rows:
        assert all(type(v) is int for v in (*coeffs, bound))
        assert gcd(*coeffs, bound) == 1


class TestLargeCoefficients:
    def test_feasible_systems_yield_verified_witnesses(self, compressed_rows):
        rng = random.Random(60617)
        for trial in range(80):
            nv = rng.randint(1, 5)
            nc = rng.randint(1, 2 * nv + 2)
            system, point = planted_feasible(rng, nv, nc, big_fraction, big_coeffs)
            assert evaluate(system, point), "planting bug"
            w = solve_feasibility(system)
            assert w is not None, f"trial {trial}: lost a feasible system"
            assert evaluate(system, w)
        assert_coprime_integer_rows(compressed_rows)

    def test_contradictions_are_detected(self, compressed_rows):
        rng = random.Random(71)
        for trial in range(80):
            nv = rng.randint(1, 5)
            nc = rng.randint(2, 2 * nv + 2)
            system = planted_infeasible(rng, nv, nc, big_fraction, big_coeffs)
            assert solve_feasibility(system) is None, f"trial {trial}"
        assert_coprime_integer_rows(compressed_rows)

    def test_scaled_copies_collapse_to_one_row(self):
        # 10^6-scaled copies of x + 2y <= 3 and of x - y < 1 reduce to the
        # same coprime integer rows as the small ones.
        small = (le([1, 2], 3), lt([1, -1], 1))
        big = tuple(
            Constraint(tuple(c * F(BIG, 7) for c in con.coeffs), con.rel, con.bound * F(BIG, 7))
            for con in small
        )
        rows = linear._normalize(LinearSystem(2, small + big))
        assert linear._compress(rows) == [((1, -1), 1, True), ((1, 2), 3, False)]


@st.composite
def shuffled_systems(draw):
    """A system whose rows mix <=, < and = and repeat coefficient vectors,
    some scaled, with the same rows in a second, permuted order."""
    nv = draw(st.integers(min_value=1, max_value=4))
    coeff = st.integers(min_value=-3, max_value=3)
    vectors = draw(st.lists(st.tuples(*[coeff] * nv), min_size=1, max_size=4))
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        scale = draw(st.integers(min_value=1, max_value=3))
        rows.append(
            Constraint(
                tuple(F(scale * c) for c in draw(st.sampled_from(vectors))),
                draw(st.sampled_from(linear.RELATIONS)),
                draw(st.fractions(min_value=-4, max_value=4, max_denominator=4)),
            )
        )
    return LinearSystem(nv, tuple(rows)), draw(st.permutations(rows))


class TestRowOrder:
    @given(shuffled_systems())
    @settings(max_examples=300, deadline=None)
    def test_any_row_order_gives_the_same_answer(self, systems):
        system, permuted = systems
        again = LinearSystem(system.num_vars, tuple(permuted))
        assert solve_feasibility(again) == solve_feasibility(system)


class TestValidation:
    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            LinearSystem(2, (le([1], 0),))

    def test_unknown_relation_rejected(self):
        with pytest.raises(ValueError):
            Constraint((F(1),), ">=", F(0))

    def test_evaluate_dimension_check(self):
        with pytest.raises(ValueError, match="^point dimension does not match the system$"):
            evaluate(LinearSystem(2, ()), (F(0),))


def mixed_number(rng):
    """An int or a Fraction, zero about a third of the time."""
    if rng.random() < 0.3:
        return rng.choice([0, F(0)])
    if rng.random() < 0.5:
        return rng.randint(-5, 5)
    return random_fraction(rng, span=7, denom_max=9)


class TestEvaluate:
    """The integer check agrees with the Fraction row check."""

    def test_matches_fraction_row_check(self):
        rng = random.Random(20)
        for trial in range(3000):
            nv = rng.randint(0, 5)
            point = tuple(mixed_number(rng) for _ in range(nv))
            rows = []
            for _ in range(rng.randint(0, 4)):
                coeffs = tuple(mixed_number(rng) for _ in range(nv))
                value = sum((c * x for c, x in zip(coeffs, point)), F(0))
                # bounds at, just above and just below the row's value
                bound = value + rng.choice([0, 0, 1, -1, F(1, 7), F(-2, 9)])
                if isinstance(bound, F) and bound.denominator == 1 and rng.random() < 0.5:
                    bound = int(bound)
                rows.append(Constraint(coeffs, rng.choice(linear.RELATIONS), bound))
            system = LinearSystem(nv, tuple(rows))
            expected = all(row_holds(r.coeffs, r.rel, r.bound, point) for r in rows)
            assert evaluate(system, point) == expected, (trial, system, point)
            for row in rows:
                assert evaluate(LinearSystem(nv, (row,)), point) == row_holds(
                    row.coeffs, row.rel, row.bound, point
                ), (trial, row, point)

    def test_empty_point(self):
        for rel, bound, expected in [
            ("<=", 0, True), ("<", 0, False), ("=", F(0), True),
            ("<", F(1, 3), True), ("=", -1, False), ("<=", F(-1, 2), False),
        ]:
            assert evaluate(LinearSystem(0, (Constraint((), rel, bound),)), ()) is expected
