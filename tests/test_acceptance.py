"""Acceptance suite: one test per pinned end-to-end behavior.

Each test is self-contained and checks one headline capability of the
engine, so a verbose run reads as a pass/fail scorecard. Everything is
exact arithmetic; there are no tolerances anywhere.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction as F
from math import comb

from hassett.autgroup import (
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
    verify_keel_factorization,
)
from hassett.linear import evaluate, solve_feasibility
from hassett.strata import contracted_divisors, enumerate_boundary_divisors
from hassett.weights import WeightData, chamber_signature
from tests.oracles import (
    brute_admissible,
    brute_nodal_divisors,
    brute_signature,
    canonical_sets,
    naive_closure,
    transposition_image,
)
from tests.test_linear import planted_feasible, planted_infeasible


def test_criterion_01_classical_symmetric_groups():
    for n, order in ((5, 120), (6, 720), (7, 5040)):
        start = time.perf_counter()
        description = aut_group(WeightData(0, (F(1),) * n))
        elapsed = time.perf_counter() - start
        assert description.torus_rank == 0
        assert description.finite_order == order
        assert elapsed < 10.0, f"n={n} took {elapsed:.2f}s"


def test_criterion_02_one_and_two_heavy_table_with_six_markings():
    description = aut_group(kapranov_weights(1, 2, 6))
    assert (description.torus_rank, description.finite_order) == (3, 24)
    description = aut_group(kapranov_weights(1, 3, 6))
    assert (description.torus_rank, description.finite_order) == (3, 48)
    for s in (1, 2):
        assert aut_group(kapranov_weights(2, s, 6)).finite_order == 720


def test_criterion_03_del_pezzo_surface_group():
    description = aut_group(WeightData(0, (F(1, 3), F(1, 3), F(1, 3), F(2, 3), F(1))))
    assert (description.torus_rank, description.finite_order) == (2, 12)


def test_criterion_04_symmetric_blowup_and_contraction_families():
    for spec in (sym_spec(1, 6), sym_spec(2, 6), keel_spec(2, 6), keel_spec(3, 6)):
        description = aut_group(representative_weights(spec))
        assert description.finite_order == 720, spec.notation()


def test_criterion_05_contraction_census_of_the_five_marking_chain():
    first = contracted_divisors(
        WeightData(0, (F(1, 2), F(1, 2), F(1, 2), F(1), F(1))),
        WeightData(0, (F(1, 3), F(1, 3), F(1, 3), F(2, 3), F(1))),
    )
    assert len(first) == 1
    assert first[0].collapsed_side == (1, 2, 3)
    second = contracted_divisors(
        WeightData(0, (F(1, 3), F(1, 3), F(1, 3), F(2, 3), F(1))),
        WeightData(0, (F(1, 3), F(1, 3), F(1, 3), F(1, 3), F(1))),
    )
    assert [c.collapsed_side for c in second] == [(1, 2, 4), (1, 3, 4), (2, 3, 4)]


def test_criterion_06_nodal_divisor_counts_against_brute_force():
    for n, expected in ((5, 10), (6, 25), (7, 56), (8, 119)):
        w = WeightData(0, (F(1),) * n)
        nodal = {
            (d.genus_split[0], frozenset(d.side))
            for d in enumerate_boundary_divisors(w)
            if d.kind == "nodal"
        }
        assert len(nodal) == expected == 2 ** (n - 1) - n - 1
        assert nodal == brute_nodal_divisors(0, list(w.weights))


def test_criterion_07_pinned_admissibility_cases_with_closure_confirmed_orders():
    higher = WeightData(3, (F(1, 4), F(1, 4), F(1, 2), F(3, 4), F(1), F(1)))
    ok, witness = is_admissible(higher, 3, 4)
    assert not ok and witness == (1, 2)
    zero_weight = WeightData(1, (F(0), F(0), F(1, 3), F(1, 3), F(1, 3), F(2, 3)))
    ok, witness = is_admissible(zero_weight, 3, 6)
    assert not ok and witness == (4, 5)
    for w in (higher, zero_weight):
        description = aut_group(w)
        assert description.finite_order == 12
        closure = naive_closure(
            [transposition_image(i - 1, j - 1, 6) for i, j in admissible_generators(w)],
            6,
        )
        assert len(closure) == 12


def test_criterion_08_oracle_equivalence_for_admissibility_and_signatures():
    rng = random.Random(424242)
    checked = 0
    while checked < 1000:
        n = rng.randint(3, 10)
        weights = tuple(F(rng.randint(0, 12), 12) for _ in range(n))
        positive = [k for k in range(1, n + 1) if weights[k - 1] > 0]
        if len(positive) < 2:
            continue
        i, j = rng.sample(positive, 2)
        exclude_ij = checked % 2 == 1
        w = WeightData(1, weights)
        got = is_admissible(w, i, j, exclude_ij=exclude_ij)
        want = brute_admissible(list(weights), i, j, exclude_ij=exclude_ij)
        assert got == want, (weights, i, j, exclude_ij)
        assert got[1] is None or got[1] == tuple(sorted(set(got[1])))
        checked += 1
    for trial in range(45):
        n = 12 if trial < 5 else rng.randint(2, 12)
        weights = tuple(F(rng.randint(0, 8), 8) for _ in range(n))
        w = WeightData(1, weights)
        assert chamber_signature(w) == canonical_sets(brute_signature(list(weights)))


def test_criterion_09_contraction_family_reduction_chain():
    for n in (6, 7):
        report = verify_keel_factorization(n)
        assert report["all_pass"] is True
        for check in report["checks"]:
            assert check["reduces"] and check["revalidated"]
            if check["h"] == n - 3:
                assert check["fine_equivalent_to_kapranov_2_2"]


def test_criterion_10_feasibility_engine_on_planted_systems():
    rng = random.Random(101)
    for trial in range(500):
        nv = rng.randint(1, 5)
        system, point = planted_feasible(rng, nv, rng.randint(1, 2 * nv + 2))
        assert evaluate(system, point), "planting bug"
        witness = solve_feasibility(system)
        assert witness is not None, f"feasible trial {trial}"
        assert evaluate(system, witness), f"inexact witness, trial {trial}"
    for trial in range(500):
        nv = rng.randint(1, 5)
        system = planted_infeasible(rng, nv, rng.randint(2, 2 * nv + 2))
        assert solve_feasibility(system) is None, f"infeasible trial {trial}"


def test_criterion_11_special_case_table_and_honest_refusals():
    description = aut_group(WeightData(1, (F(1, 2),)))
    assert description.special == "PGL2"
    assert "ℂ*" in description.stack_note
    description = aut_group(WeightData(1, (F(1, 2), F(1, 2))))
    assert description.torus_rank == 2
    description = aut_group(WeightData(2, ()))
    assert description.special == "trivial" and description.finite_order == 1
    uncovered = (
        WeightData(0, (F(1, 3), F(1, 3), F(1, 3), F(1, 3), F(1))),
        representative_weights(keel_spec(1, 6)),
        WeightData(0, (F(1), F(1), F(1), F(1, 2), F(1, 4), F(1, 4))),
        WeightData(1, (F(0), F(1, 2))),
    )
    for w in uncovered:
        try:
            aut_group(w)
        except NotCoveredError:
            continue
        raise AssertionError(f"fabricated a group for {w}")
