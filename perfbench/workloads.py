"""The benchmark's workloads: fixed lists of CLI invocations and their checks.

Each op is one ``hassett`` argv plus a check that decides, without calling
the engine, whether the captured stdout is the right answer. Expected
values come from closed forms (binomial counts, group orders), from the
definitions in the README (chamber signatures, admissibility, boundary
divisors) evaluated by brute force here, and from values pinned in the
README and the acceptance tests.

Why these three workloads:

* ``chamber-enum`` runs the big genus-0 subset enumerations with large
  outputs. It stresses weights, the enumeration kernel, strata and JSON
  emission, and never reaches ``linear`` or ``perms``.
* ``family-dispatch`` runs the genus-0 family table: classification, the
  torus-times-symmetric automorphism groups behind it, Fourier-Motzkin
  feasibility. Its enumerations are small (n <= 11) and its output tiny,
  so it bypasses what ``chamber-enum`` stresses.
* ``positive-genus`` reaches some of the same layers by other routes:
  ``aut`` through admissibility and the stabilizer chain instead of
  classification, the interval-search kernel instead of enumeration, and
  strata consuming divisors (``contract``) instead of emitting them.

The seed permutes the markings of the relabeled inputs: the second
``classify``, the ``aut`` of the (1, 2, 10) Kapranov datum and the ``aut``
of the three-class genus-2 datum. Every other input keeps its order, and
every check holds for every seed.
"""

from __future__ import annotations

import json
import random
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, factorial
from pathlib import Path

F = Fraction


def canonical_line(obj: object) -> str:
    """The canonical stdout form the CLI promises: sorted keys, no spaces."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True) + "\n"


class WrongAnswer(Exception):
    """An op's stdout is not the expected answer."""


@dataclass(frozen=True)
class Op:
    """One CLI invocation, the verb it is billed to, and its output check.

    ``check`` is either the exact expected stdout, or a function that
    receives the parsed stdout object and raises :class:`WrongAnswer` (or
    a lookup error) when it is wrong.
    """

    verb: str
    argv: tuple[str, ...]
    check: Callable[[object], None] | str


def check_output(op: Op, exit_code: int | None, stdout: str) -> str | None:
    """Why the op's result is wrong, or None when it is right."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    if isinstance(op.check, str):
        return None if stdout == op.check else "stdout differs from the expected canonical JSON"
    try:
        obj = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON: {exc}"
    if canonical_line(obj) != stdout:
        return "stdout is not canonical JSON"
    try:
        op.check(obj)
    except (WrongAnswer, KeyError, IndexError, TypeError, ValueError) as exc:
        return f"wrong answer: {type(exc).__name__}: {exc}"
    return None


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise WrongAnswer(message)


def _fmt(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _weights_argv(verb: str, genus: int, weights: Iterable[Fraction], *extra: str) -> tuple[str, ...]:
    return (verb, *extra, "--genus", str(genus), "--weights", ",".join(map(_fmt, weights)))


def _by_size_then_lex(sets: Iterable[tuple[int, ...]]) -> list[list[int]]:
    return [list(s) for s in sorted(sets, key=lambda s: (len(s), s))]


def _relabel(weights: tuple[Fraction, ...], rng: random.Random) -> tuple[Fraction, ...]:
    """The weights with markings permuted, never in their positional order,
    so a relabeled input cannot match by position."""
    while True:
        out = tuple(rng.sample(weights, len(weights)))
        if out != weights:
            return out


def kapranov(r: int, s: int, n: int) -> tuple[Fraction, ...]:
    """The Kapranov member (r, s): n-r-1 weights 1/(n-r-1), one s/(n-r-1), r ones."""
    light = F(1, n - r - 1)
    return (light,) * (n - r - 1) + (s * light,) + (F(1),) * r


def _is_permutation(images: list[int], n: int) -> bool:
    return sorted(images) == list(range(1, n + 1))


def _check_group(weights, torus_rank, order, label, provenance):
    """``aut`` output with the given group data whose finite generators
    only exchange markings of equal weight."""
    n = len(weights)

    def check(obj):
        _expect(obj["torus_rank"] == torus_rank, f"torus rank {obj['torus_rank']}")
        _expect(obj["finite_order"] == order, f"finite order {obj['finite_order']}")
        _expect(obj["label"] == label, f"label {obj['label']!r}")
        _expect(obj["provenance"] == provenance, f"provenance {obj['provenance']!r}")
        _expect(obj["special"] is None and obj["stack_note"] is None, "special or stack note set")
        for g in obj["finite_generators"]:
            _expect(_is_permutation(g, n), f"generator {g} is not a permutation")
            _expect(
                all(weights[x] == weights[g[x] - 1] for x in range(n)),
                f"generator {g} moves a marking onto one of another weight",
            )

    return check


# ---------------------------------------------------------------------------
# chamber-enum
# ---------------------------------------------------------------------------


def _nodal_genus0(n: int, min_side: int) -> list[dict]:
    """Genus-0 nodal divisors whose sides both hold at least ``min_side``
    markings, each under its canonical side: fewer markings, then
    lexicographically first."""
    sides = []
    for k in range(min_side, n // 2 + 1):
        for side in combinations(range(1, n + 1), k):
            if 2 * k < n or side[0] == 1:
                sides.append(side)
    return [{"genus_split": [0, 0], "kind": "nodal", "side": list(s)} for s in sides]


def _divisors_equal_weights(n: int, min_side: int) -> list[dict]:
    """Boundary divisors of n equal weights 1/(min_side - 1) in genus 0:
    a side is stable when it weighs more than 1, and every pair may collide."""
    return _nodal_genus0(n, min_side) + [
        {"kind": "coincidence", "pair": list(p)} for p in combinations(range(1, n + 1), 2)
    ]


def _nodal_tree(n: int, side: list[int]) -> dict:
    return {
        "schema": "stable-tree/1",
        "vertices": [{"genus": 0}, {"genus": 0}],
        "edges": [[0, 1]],
        "markings": {str(m): 0 if m in side else 1 for m in range(1, n + 1)},
        "clusters": [[], []],
    }


def _coincidence_tree(n: int, pair: list[int]) -> dict:
    return {
        "schema": "stable-tree/1",
        "vertices": [{"genus": 0}],
        "edges": [],
        "markings": {str(m): 0 for m in range(1, n + 1)},
        "clusters": [[pair]],
    }


def _with_trees(n: int, divisors: list[dict]) -> list[dict]:
    out = []
    for d in divisors:
        tree = _nodal_tree(n, d["side"]) if d["kind"] == "nodal" else _coincidence_tree(n, d["pair"])
        out.append({**d, "tree": tree})
    return out


def _check_kblu(n: int) -> Callable[[object], None]:
    # Step 1 blows up the spans of 1..n-4 of the points p1..p_{n-2}; step r
    # the spans of p_{n-r+1}..p_{n-1} with up to n-3-r of p1..p_{n-r-1}.
    counts = [2 ** (n - 2) - n] + [2 ** (n - r - 1) - (n - r) for r in range(2, n - 2)]

    def check(obj):
        head = {k: obj[k] for k in ("schema", "construction", "n", "ambient")}
        _expect(
            head == {"schema": "blowup-schedule/1", "construction": "kblu", "n": n, "ambient": "P^{n-3}"},
            f"schedule header {head}",
        )
        got = [len(step["centers"]) for step in obj["steps"]]
        _expect([s["step"] for s in obj["steps"]] == list(range(1, n - 2)), "step numbering")
        _expect(got == counts, f"center counts {got}, expected {counts}")
        for step in obj["steps"]:
            keys = [(len(c), sorted(int(p[1:]) for p in c)) for c in step["centers"]]
            _expect(keys == sorted(keys), f"step {step['step']} centers out of order")
            _expect(len(set(map(str, keys))) == len(keys), f"step {step['step']} repeats a center")

    return check


def chamber_enum(seed: int, workdir: Path) -> list[Op]:
    sig20 = [c for k in range(2, 8) for c in combinations(range(1, 21), k)]
    assert len(sig20) == sum(comb(20, k) for k in range(2, 8)) == 137_959
    walls18 = list(combinations(range(1, 19), 6))
    assert len(walls18) == comb(18, 6)
    div16 = _divisors_equal_weights(16, 4)
    assert len(div16) == sum(comb(16, k) for k in range(4, 13)) // 2 + comb(16, 2)
    # genus 1, ten weights 1/5 and six zeros: at most five positive markings
    coarse = [
        c
        for k in range(3, 17)
        for c in combinations(range(1, 17), k)
        if sum(1 for m in c if m <= 10) <= 5
    ]
    return [
        Op("signature", _weights_argv("signature", 0, [F(1, 7)] * 20),
           canonical_line({"mode": "fine", "sets": _by_size_then_lex(sig20)})),
        Op("validate", _weights_argv("validate", 0, [F(1, 6)] * 18),
           canonical_line({"ok": True, "violations": [], "walls": _by_size_then_lex(walls18)})),
        Op("divisors", _weights_argv("divisors", 0, [F(1, 3)] * 16), canonical_line({"divisors": div16})),
        Op("signature", _weights_argv("signature", 1, [F(1, 5)] * 10 + [F(0)] * 6, "--mode", "coarse"),
           canonical_line({"mode": "coarse", "sets": _by_size_then_lex(coarse)})),
        Op("divisors", _weights_argv("divisors", 0, [F(1, 3)] * 10, "--trees"),
           canonical_line({"divisors": _with_trees(10, _divisors_equal_weights(10, 4))})),
        Op("schedule", ("schedule", "kblu", "16"), _check_kblu(16)),
    ]


# ---------------------------------------------------------------------------
# family-dispatch
# ---------------------------------------------------------------------------


def _check_classify(notation: str, rep: tuple, w: tuple) -> Callable[[object], None]:
    """The family, and a slot map carrying every representative slot onto
    a slot of the input with the same weight."""

    def check(obj):
        _expect(obj["family"] == notation, f"family {obj['family']!r}")
        sigma = obj["relabeling"]
        _expect(_is_permutation(sigma, len(w)), f"relabeling {sigma} is not a permutation")
        _expect(all(rep[j] == w[sigma[j] - 1] for j in range(len(w))), f"relabeling {sigma} mismatches weights")

    return check


def _check_verify_l1(n: int) -> Callable[[object], None]:
    def check(obj):
        _expect(obj["all_pass"] is True, "all_pass is not true")
        _expect(obj["range"] == [n - 4, 2 * n - 9], f"range {obj['range']}")
        _expect(obj["target"] == ["1", "1"] + [_fmt(F(1, n - 3))] * (n - 2), "target datum")
        _expect([c["h"] for c in obj["checks"]] == list(range(n - 4, 2 * n - 8)), "checked stages")
        for c in obj["checks"]:
            _expect(c["reduces"] is True and c["revalidated"] is True, f"stage {c['h']} fails")
        exchange = [c for c in obj["checks"] if c["h"] == n - 3]
        _expect(exchange[0]["fine_equivalent_to_kapranov_2_2"] is True, "exchange member")

    return check


def _sum_extremes(values: list[Fraction], size: int) -> tuple[Fraction, Fraction]:
    """Smallest and largest sum of ``size`` of the values."""
    ordered = sorted(values)
    return sum(ordered[:size], F(0)), sum(ordered[len(ordered) - size:], F(0))


def _check_valid_witness(w: list[Fraction]) -> None:
    _expect(all(0 < a <= 1 for a in w), "witness weight outside (0, 1]")
    _expect(sum(w) > 2, "witness total is not above 2")


def _check_sym(k: int, n: int) -> Callable[[object], None]:
    """n-1 lights and one full slot; after step k packets of up to n-k-2
    lights stay at or below 1 and larger ones exceed it."""

    def check(obj):
        _expect(obj["family"] == f"sym:k={k},n={n}", "family")
        w = [F(q) for q in obj["witness"]]
        _check_valid_witness(w)
        lights, heavy = w[:-1], w[-1]
        small = n - k - 2
        _expect(_sum_extremes(lights, small)[1] <= 1, f"a packet of {small} lights exceeds 1")
        _expect(_sum_extremes(lights, small + 1)[0] > 1, f"a packet of {small + 1} lights stays at 1")
        _expect(heavy + min(lights) > 1, "a light fits beside the full slot")

    return check


def _check_keel(h: int, n: int) -> Callable[[object], None]:
    """Three heavy slots with pairwise sums above 1; in the heavy-anchored
    phase (h <= n-4) a heavy slot plus up to n-h-3 lights stays at or below
    1 and plus one more light exceeds it."""
    assert h <= n - 4

    def check(obj):
        _expect(obj["family"] == f"keel:h={h},n={n}", "family")
        w = [F(q) for q in obj["witness"]]
        _check_valid_witness(w)
        heavies, lights = w[:3], w[3:]
        _expect(all(a + b > 1 for a, b in combinations(heavies, 2)), "two heavy slots fit together")
        k = n - h - 3
        for a in heavies:
            _expect(a + _sum_extremes(lights, k)[1] <= 1, f"a heavy slot with {k} lights exceeds 1")
            _expect(a + _sum_extremes(lights, k + 1)[0] > 1, f"a heavy slot with {k + 1} lights stays at 1")

    return check


def family_dispatch(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(seed)
    k239 = kapranov(2, 3, 9)
    k239_relabeled = _relabel(k239, rng)
    k1210 = _relabel(kapranov(1, 2, 10), rng)
    k1211 = kapranov(1, 2, 11)
    one_heavy = "genus-zero family table: kapranov:r=1,s=2,n={}"
    return [
        Op("classify", _weights_argv("classify", 0, k239),
           canonical_line({"family": "kapranov:r=2,s=3,n=9", "relabeling": list(range(1, 10))})),
        Op("classify", _weights_argv("classify", 0, k239_relabeled),
           _check_classify("kapranov:r=2,s=3,n=9", k239, k239_relabeled)),
        Op("aut", _weights_argv("aut", 0, k1210),
           _check_group(k1210, 7, factorial(8), "torus x S8", one_heavy.format(10))),
        Op("aut", _weights_argv("aut", 0, k1211),
           _check_group(k1211, 8, factorial(9), "torus x S9", one_heavy.format(11))),
        Op("factors_kapranov", _weights_argv("factors-kapranov", 0, kapranov(2, 2, 10)),
           canonical_line({"factors_kapranov": True})),
        Op("verify_l1", ("verify-l1", "10"), _check_verify_l1(10)),
        Op("feasible", ("feasible", "sym:k=3,n=10"), _check_sym(3, 10)),
        Op("feasible", ("feasible", "keel:h=4,n=10"), _check_keel(4, 10)),
    ]


# ---------------------------------------------------------------------------
# positive-genus
# ---------------------------------------------------------------------------


def admissibility_witness(weights: tuple, i: int, j: int) -> list[int] | None:
    """First packet (literal reading) on which swapping i and j changes
    whether anchor plus packet weighs at most 1, by brute force: packets
    away from {i, j} by size then lexicographically, then packets touching
    i or j in the same order. None when the swap is admissible."""
    n = len(weights)
    a_i, a_j = weights[i - 1], weights[j - 1]
    others = [x for x in range(1, n + 1) if x not in (i, j)]
    away = (c for size in range(2, len(others) + 1) for c in combinations(others, size))
    touching = (
        c
        for size in range(2, n + 1)
        for c in combinations(range(1, n + 1), size)
        if i in c or j in c
    )
    for packets in (away, touching):
        for packet in packets:
            total = sum((weights[x - 1] for x in packet), F(0))
            if (a_i + total <= 1) != (a_j + total <= 1):
                return list(packet)
    return None


def _contractions_to_quarter_weights(n: int) -> list[dict]:
    """Reducing n weights 1 to n weights 1/4 collapses every genus-0 side of
    three or four markings: it no longer weighs more than 1, and three or
    more positive markings map to a deeper stratum."""
    return [
        {
            "collapsed_genus": 0,
            "collapsed_side": list(side),
            "divisor": {"genus_split": [0, 0], "kind": "nodal", "side": list(side)},
        }
        for k in (3, 4)
        for side in combinations(range(1, n + 1), k)
    ]


def positive_genus(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(seed)
    three = (F(1, 10),) * 5 + (F(1, 7),) * 5 + (F(1, 4),) * 5
    three_relabeled = _relabel(three, rng)
    halves = (F(1, 2),) * 20
    ones = (F(1),) * 20
    positive = "admissible swaps and zero-weight swaps (positive genus)"
    witnesses = {j: admissibility_witness(three, 1, j) for j in range(2, 16)}
    # pinned: the first packet separating a tenth from a quarter
    assert witnesses[15] == [2, 11, 12, 13]
    source, target = workdir / "contract-from.json", workdir / "contract-to.json"
    source.write_text(json.dumps({"genus": 0, "weights": ["1"] * 12}))
    target.write_text(json.dumps({"genus": 0, "weights": ["1/4"] * 12}))
    return [
        Op("aut", _weights_argv("aut", 2, three_relabeled),
           _check_group(three_relabeled, 0, factorial(5) ** 3, "S5 x S5 x S5", positive)),
        Op("aut", _weights_argv("aut", 2, halves), _check_group(halves, 0, factorial(20), "S20", positive)),
        Op("aut", _weights_argv("aut", 0, ones),
           _check_group(ones, 0, factorial(20), "S20", "classical space with every weight one (genus zero)")),
        *(
            Op("admissible", _weights_argv("admissible", 2, three, "1", str(j)),
               canonical_line({"admissible": witnesses[j] is None, "witness": witnesses[j]}))
            for j in range(2, 16)
        ),
        Op("contract", ("contract", "--from", str(source), "--to", str(target)),
           canonical_line({"contractions": _contractions_to_quarter_weights(12)})),
    ]


WORKLOADS: dict[str, Callable[[int, Path], list[Op]]] = {
    "chamber-enum": chamber_enum,
    "family-dispatch": family_dispatch,
    "positive-genus": positive_genus,
}
