"""Command-line contract: verbs, exit codes, canonical JSON, round-trips."""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import random
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hassett.cli as cli
from hassett import weights as weights_module
from hassett.autgroup import NOT_COVERED_MESSAGE
from hassett.families import (
    CONSTRUCTIONS,
    BlowupSchedule,
    FamilySpec,
    InfeasibleFamilyError,
    blowup_schedule,
    family_conditions,
    family_grid,
    keel_spec,
    representative_weights,
)
from hassett.jsonio import canonical_line
from hassett.linear import evaluate
from hassett.strata import (
    BoundaryDivisor,
    Contraction,
    StableTree,
    contracted_divisors,
    divisor_tree,
    enumerate_boundary_divisors,
)
from hassett.weights import WeightData, chamber_signature, validate
from tests.oracles import (
    brute_contractions,
    brute_nodal_divisors,
    brute_signature,
    naive_closure,
)
from tests.test_signature_props import weight_data
from tests.test_strata import dominated_pair


def _captured(call) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``call()``, a CLI entry point."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = call()
        except SystemExit as exc:  # argparse exits on usage problems
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


def run_cli(*argv: str) -> tuple[int, str, str]:
    return _captured(lambda: cli.main(list(argv)))


def run_json(*argv: str):
    rc, out, err = run_cli(*argv)
    assert out.endswith("\n") and out.count("\n") == 1, (
        "JSON output must be one canonical line",
        out,
        err,
    )
    return rc, json.loads(out)


DEL_PEZZO = ("--genus", "0", "--weights", "1/3,1/3,1/3,2/3,1")


class TestAutVerb:
    def test_classical_space(self):
        rc, obj = run_json("aut", "--genus", "0", "--weights", "1,1,1,1,1")
        assert rc == 0
        assert obj["finite_order"] == 120
        assert obj["torus_rank"] == 0
        assert obj["label"] == "S5"
        # the emitted generators close to a group of the emitted order
        gens = [tuple(x - 1 for x in perm) for perm in obj["finite_generators"]]
        assert len(naive_closure(gens, 5)) == 120

    def test_del_pezzo_description(self):
        rc, obj = run_json("aut", *DEL_PEZZO)
        assert rc == 0
        assert obj["torus_rank"] == 2
        assert obj["finite_order"] == 12
        assert obj["label"] == "torus x S3 x S2"

    def test_invalid_weights_exit_one(self):
        rc, obj = run_json(
            "aut", "--genus", "0", "--weights", "1/5,1/5,1/5,1/5,1/5"
        )
        assert rc == 1
        assert obj["error"]["kind"] == "invalid-weight-data"
        assert "must be positive" in obj["error"]["message"]

    def test_not_covered_exit_one_with_pinned_message(self):
        rc, obj = run_json(
            "aut", "--genus", "0", "--weights", "1/3,1/3,1/3,1/3,1"
        )
        assert rc == 1
        assert obj["error"]["kind"] == "not-covered"
        assert obj["error"]["message"] == NOT_COVERED_MESSAGE
        assert obj["error"]["detail"]

    def test_strict_atrans_changes_the_group(self):
        weights = ("--genus", "3", "--weights", "1/4,1/4,1/2,3/4,1,1")
        rc, obj = run_json("aut", *weights)
        assert rc == 0 and obj["finite_order"] == 12
        rc, obj = run_json("aut", *weights, "--strict-atrans")
        assert rc == 0 and obj["finite_order"] == 36


def _weight_argv(w: WeightData) -> list[str]:
    text = ",".join(f"{q.numerator}/{q.denominator}" for q in w.weights)
    return ["--genus", str(w.genus), "--weights", text]


def _by_size_then_lex(sets) -> list[list[int]]:
    return sorted((sorted(s) for s in sets), key=lambda s: (len(s), s))


class TestEmittedOrder:
    """Emitted set lists equal the oracles' sets in (size, lexicographic)
    order, including zero weights and positive genus."""

    @given(weight_data)
    @settings(max_examples=150, deadline=None)
    def test_signature_fine_and_coarse(self, w):
        expected = _by_size_then_lex(brute_signature(list(w.weights)))
        rc, obj = run_json("signature", *_weight_argv(w))
        assert rc == 0 and obj["sets"] == expected
        rc, obj = run_json("signature", "--mode", "coarse", *_weight_argv(w))
        assert rc == 0 and obj["sets"] == [s for s in expected if len(s) >= 3]

    @given(weight_data)
    @settings(max_examples=100, deadline=None)
    def test_divisors(self, w):
        nodal = sorted(
            brute_nodal_divisors(w.genus, list(w.weights)),
            key=lambda d: (d[0], len(d[1]), sorted(d[1])),
        )
        expected = [
            {"kind": "nodal", "side": sorted(side), "genus_split": [g, w.genus - g]}
            for g, side in nodal
        ]
        if w.genus >= 1:
            expected.append({"kind": "irreducible"})
        expected += [
            {"kind": "coincidence", "pair": pair}
            for pair in _by_size_then_lex(brute_signature(list(w.weights)))
            if len(pair) == 2 and all(w.weights[i - 1] > 0 for i in pair)
        ]
        rc, obj = run_json("divisors", *_weight_argv(w))
        assert rc == 0 and obj["divisors"] == expected


class TestValidateVerb:
    def test_valid_with_walls(self):
        rc, obj = run_json("validate", *DEL_PEZZO)
        assert rc == 0
        assert obj["ok"] is True
        assert obj["violations"] == []
        assert obj["walls"] == [[1, 4], [2, 4], [3, 4], [1, 2, 3]]

    def test_invalid_exits_one_with_report(self):
        rc, obj = run_json(
            "validate", "--genus", "0", "--weights", "1/5,1/5,1/5,1/5,1/5"
        )
        assert rc == 1
        assert obj["ok"] is False
        assert obj["violations"]

    def test_text_mode(self):
        rc, out, _ = run_cli("validate", *DEL_PEZZO, "--format", "text")
        assert rc == 0
        assert out.splitlines()[0] == "valid"
        assert "wall: 1 2 3" in out


class TestSignatureVerb:
    def test_fine_matches_engine(self):
        rc, obj = run_json("signature", *DEL_PEZZO)
        assert rc == 0 and obj["mode"] == "fine"
        w = WeightData.from_strings(0, "1/3 1/3 1/3 2/3 1".split())
        assert [tuple(s) for s in obj["sets"]] == chamber_signature(w)

    def test_coarse_drops_pairs(self):
        rc, obj = run_json("signature", *DEL_PEZZO, "--mode", "coarse")
        assert rc == 0
        assert obj == {"mode": "coarse", "sets": [[1, 2, 3]]}


class TestDivisorsVerb:
    def test_pinned_census(self):
        rc, obj = run_json("divisors", *DEL_PEZZO)
        kinds = [d["kind"] for d in obj["divisors"]]
        assert rc == 0
        assert kinds.count("nodal") == 3
        assert kinds.count("coincidence") == 6

    def test_trees_attach_and_reparse(self):
        rc, obj = run_json(
            "divisors", "--genus", "0", "--weights", "1,1,1,1,1", "--trees"
        )
        assert rc == 0
        assert len(obj["divisors"]) == 10
        for entry in obj["divisors"]:
            tree = StableTree.from_json_dict(entry["tree"])
            assert tree.to_json_dict() == entry["tree"]

    @pytest.mark.parametrize("form", ["json", "text"])
    def test_one_datum_is_validated_at_most_twice(self, monkeypatch, form):
        # the verb and the divisor enumeration check the datum; the trees
        # of its 381 divisors do not check it again
        calls = []

        def counting(w):
            calls.append(w)
            return violations(w)

        violations = weights_module._violations
        monkeypatch.setattr(weights_module, "_violations", counting)
        rc, out, _ = run_cli(
            "divisors", "--genus", "0", "--weights", ",".join(["1/3"] * 10),
            "--trees", "--format", form,
        )
        assert rc == 0 and out
        assert 1 <= len(calls) <= 2


class TestContractVerb:
    def _write(self, path, genus, weights):
        path.write_text(
            json.dumps({"genus": genus, "weights": weights}), encoding="utf-8"
        )

    def test_pinned_second_reduction(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._write(a, 0, ["1/3", "1/3", "1/3", "2/3", "1"])
        self._write(b, 0, ["1/3", "1/3", "1/3", "1/3", "1"])
        rc, obj = run_json("contract", "--from", str(a), "--to", str(b))
        assert rc == 0
        sides = sorted(tuple(c["collapsed_side"]) for c in obj["contractions"])
        assert sides == [(1, 2, 4), (1, 3, 4), (2, 3, 4)]

    def test_pinned_first_reduction(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._write(a, 0, ["1/2", "1/2", "1/2", "1", "1"])
        self._write(b, 0, ["1/3", "1/3", "1/3", "2/3", "1"])
        rc, obj = run_json("contract", "--from", str(a), "--to", str(b))
        assert rc == 0
        assert [tuple(c["collapsed_side"]) for c in obj["contractions"]] == [
            (1, 2, 3)
        ]

    # stdout digests (json, text) taken before contractions were read off
    # the target's chamber signature: the benchmark's twelve weights 1 to
    # twelve weights 1/4 (715 contractions), and a genus-2 pair with zero
    # weights (168 contractions)
    DIGESTS = {
        "quarter": (
            (0, ["1"] * 12),
            (0, ["1/4"] * 12),
            "6d287403054964a724ec4cdbd5fcb3eaf0f75e472e73961f7f9decbe451a4093",
            "42204a84dd55de0ff24a5a5cf08a06c7899a1bf4c0f0d1dbfce6be861d5463d3",
        ),
        "genus2-zeros": (
            (2, ["1", "1", "1/2", "1/2", "0", "1/3", "1", "1/2", "0"]),
            (2, ["1/3", "1/4", "1/4", "1/4", "0", "1/6", "1/2", "1/4", "0"]),
            "04d3864044107cc66f5e9ed4487ba7697cfce40aab5aa6a2477eb69734c35dfa",
            "0ca659375d5b77e5ba25acc072ee70e7d51bf4c283a851221ae8abe51969ae2c",
        ),
    }

    @pytest.mark.parametrize("name", list(DIGESTS))
    @pytest.mark.parametrize("form", ["json", "text"])
    def test_stdout_digest(self, tmp_path, name, form):
        source, target, *digests = self.DIGESTS[name]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._write(a, *source)
        self._write(b, *target)
        rc, out, err = run_cli(
            "contract", "--from", str(a), "--to", str(b), "--format", form
        )
        assert rc == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digests[form == "text"]

    @given(dominated_pair())
    @settings(max_examples=150, deadline=None)
    def test_both_forms_match_the_subset_definition(self, tmp_path_factory, pair):
        """Both printed forms on random dominated pairs, genus 0-3 with zero
        weights, against output built from the brute-force oracle."""
        a, b = pair
        base = tmp_path_factory.getbasetemp()
        paths = base / "contract-a.json", base / "contract-b.json"
        for path, w in zip(paths, pair):
            self._write(path, w.genus, [str(q) for q in w.weights])
        expected = brute_contractions(list(a.weights), list(b.weights), a.genus)
        obj = {
            "contractions": [
                {
                    "collapsed_genus": 0,
                    "collapsed_side": list(side),
                    "divisor": {
                        "genus_split": [0, a.genus],
                        "kind": "nodal",
                        "side": list(canonical),
                    },
                }
                for side, canonical in expected
            ]
        }
        text = f"{len(expected)} contracted divisors\n" + "".join(
            f"collapse side {' '.join(map(str, side))} | genus 0\n"
            for side, _ in expected
        )
        argv = ["contract", "--from", str(paths[0]), "--to", str(paths[1])]
        assert run_cli(*argv, "--format", "json") == (0, canonical_line(obj), "")
        assert run_cli(*argv, "--format", "text") == (0, text, "")

    def test_missing_reduction_is_usage_error(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._write(a, 0, ["1/3", "1/3", "1/3", "2/3", "1"])
        self._write(b, 0, ["1", "1", "1", "1", "1"])
        rc, out, err = run_cli("contract", "--from", str(a), "--to", str(b))
        assert rc == 2 and out == "" and "error" in err

    def test_unreadable_file_is_usage_error(self, tmp_path):
        a = tmp_path / "a.json"
        self._write(a, 0, ["1", "1", "1", "1", "1"])
        rc, _, err = run_cli(
            "contract", "--from", str(a), "--to", str(tmp_path / "nope.json")
        )
        assert rc == 2 and "cannot read" in err

    def test_json_is_the_library_contractions_and_text_is_unchanged(self, tmp_path):
        """The JSON elements, filled into one template, are what
        ``Contraction.to_json_dict`` encodes, on seeded random dominated
        pairs, genus 0-3 with zero weights; the text form lists the same
        contractions."""
        rng = random.Random(25)
        values = [F(0), F(1, 5), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(1)]
        a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["contract", "--from", str(a_path), "--to", str(b_path)]
        contracting = 0
        while contracting < 60:
            genus = rng.randint(0, 3)
            a_ws = [rng.choice(values) for _ in range(rng.randint(0, 10))]
            b_ws = [w * rng.choice([F(1), F(1, 2), F(1, 4), F(0)]) for w in a_ws]
            if not all(2 * genus - 2 + sum(ws) > 0 for ws in (a_ws, b_ws)):
                continue
            if not a_ws and genus < 2:
                continue
            a, b = WeightData(genus, tuple(a_ws)), WeightData(genus, tuple(b_ws))
            for path, w in ((a_path, a), (b_path, b)):
                path.write_text(json.dumps(w.to_json_dict()), encoding="utf-8")
            contractions = contracted_divisors(a, b)
            contracting += bool(contractions)
            expected = {"contractions": [c.to_json_dict() for c in contractions]}
            assert run_cli(*argv) == (0, canonical_line(expected), "")
            text = f"{len(contractions)} contracted divisors\n" + "".join(
                f"collapse side {' '.join(map(str, c.collapsed_side))}"
                f" | genus {c.collapsed_genus}\n"
                for c in contractions
            )
            assert run_cli(*argv, "--format", "text") == (0, text, "")

    def test_invalid_source_is_reported_before_a_genus_mismatch(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._write(a, 0, ["3/2", "1", "1", "1", "1"])
        self._write(b, 1, ["1", "1", "1", "1", "1"])
        rc, obj = run_json("contract", "--from", str(a), "--to", str(b))
        assert rc == 1
        assert obj["error"]["kind"] == "invalid-weight-data"
        assert "outside [0, 1]" in obj["error"]["message"]

    @pytest.mark.parametrize("form", ["json", "text"])
    def test_each_datum_is_validated_once(self, tmp_path, monkeypatch, form):
        # the verb checks both data, and the reduction check and the
        # target's signature read the verdicts each datum keeps
        calls = []

        def counting(w):
            calls.append(w)
            return violations(w)

        violations = weights_module._violations
        monkeypatch.setattr(weights_module, "_violations", counting)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._write(a, 0, ["1"] * 12)
        self._write(b, 0, ["1/4"] * 12)
        rc, out, _ = run_cli(
            "contract", "--from", str(a), "--to", str(b), "--format", form
        )
        assert rc == 0 and out
        assert len(calls) == 2 and calls[0] is not calls[1]


class TestAdmissibleVerb:
    HIGHER_GENUS = ("--genus", "3", "--weights", "1/4,1/4,1/2,3/4,1,1")

    def test_pinned_refusal_with_witness(self):
        rc, obj = run_json("admissible", *self.HIGHER_GENUS, "3", "4")
        assert rc == 0
        assert obj == {"admissible": False, "witness": [1, 2]}

    def test_strict_reading_flips_pinned_pair(self):
        rc, obj = run_json("admissible", *self.HIGHER_GENUS, "1", "3")
        assert rc == 0
        assert obj == {"admissible": False, "witness": [1, 3]}
        rc, obj = run_json(
            "admissible", *self.HIGHER_GENUS, "1", "3", "--strict-atrans"
        )
        assert rc == 0
        assert obj == {"admissible": True, "witness": None}

    def test_bad_indices_are_usage_errors(self):
        for i, j in ((1, 1), (0, 2), (1, 9)):
            rc, out, err = run_cli(
                "admissible", *self.HIGHER_GENUS, str(i), str(j)
            )
            assert rc == 2, (i, j, out, err)

    def test_many_equal_weights_answer_with_first_away_packet(self):
        # the window kernel skips the packet sizes that cannot reach the
        # violation window (0.99, 0.995], so it starts at size 991; every
        # packet of that size lands, so the size is one whole block and no
        # extreme-sum row is built for it
        weights = ",".join(["1/200", "1/100"] + ["1/1000"] * 2000)
        rc, obj = run_json(
            "admissible", "--genus", "0", "--weights", weights, "1", "2"
        )
        assert rc == 0
        assert obj == {"admissible": False, "witness": list(range(3, 994))}

    # Marking 3 (3/5) fits no packet in the violation window (49/100, 1/2];
    # a walk over every packet of sizes 2..14 of the light markings before
    # the 15-packet that is the witness grows like 2^m.
    LIGHT_TAIL = ("--genus", "2", "--weights", "1/2,51/100,3/5," + ",".join(["33/1000"] * 40))

    def test_light_tail_witness_is_found_without_listing_smaller_packets(self):
        start = time.perf_counter()
        rc, obj = run_json("admissible", *self.LIGHT_TAIL, "1", "2")
        elapsed = time.perf_counter() - start
        assert rc == 0
        assert obj == {"admissible": False, "witness": list(range(4, 19))}
        assert elapsed < 2.0, f"took {elapsed:.2f}s"

    def test_light_tail_group_is_found_without_listing_smaller_packets(self):
        start = time.perf_counter()
        rc, obj = run_json("aut", *self.LIGHT_TAIL)
        elapsed = time.perf_counter() - start
        assert rc == 0
        assert (obj["label"], obj["finite_order"]) == ("S40", math.factorial(40))
        assert elapsed < 2.0, f"took {elapsed:.2f}s"

    def test_two_weight_classes_answer_with_a_mixed_packet(self):
        # no packet of fewer than 496 markings passes 0.99, and one of 496
        # lands in (0.99, 0.995] only with at most one 1/1000, so the first
        # is marking 3 and then the first 495 of the 1/500s; a walk over the
        # packets of size 496 in order would list every one that starts
        # with markings 3 and 4 first
        weights = ",".join(["1/200", "1/100"] + ["1/1000"] * 1000 + ["1/500"] * 1000)
        start = time.perf_counter()
        rc, obj = run_json("admissible", "--genus", "2", "--weights", weights, "1", "2")
        elapsed = time.perf_counter() - start
        assert rc == 0
        assert obj == {"admissible": False, "witness": [3, *range(1003, 1498)]}
        assert elapsed < 2.0, f"took {elapsed:.2f}s"

    def test_zero_weight_marking_is_usage_error(self):
        rc, _, err = run_cli(
            "admissible",
            "--genus",
            "1",
            "--weights",
            "0,0,1/3,1/3,1/3,2/3",
            "1",
            "3",
        )
        assert rc == 2 and "positive" in err


class TestClassifyVerb:
    def test_pinned_member(self):
        rc, obj = run_json("classify", *DEL_PEZZO)
        assert rc == 0
        assert obj == {
            "family": "kapranov:r=1,s=2,n=5",
            "relabeling": [1, 2, 3, 4, 5],
        }
        # round-trip: notation re-parses to the family spec
        assert FamilySpec.from_notation(obj["family"]).notation() == obj["family"]

    def test_no_match_is_null(self):
        rc, obj = run_json("classify", "--genus", "0", "--weights", "1,1,1,1,1")
        assert rc == 0
        assert obj == {"family": None, "relabeling": None}

    def test_positive_genus_is_usage_error(self):
        rc, _, err = run_cli("classify", "--genus", "1", "--weights", "1/2,1/2")
        assert rc == 2 and "genus zero" in err


class TestFactorsKapranovVerb:
    def test_pinned_true(self):
        rc, obj = run_json("factors-kapranov", *DEL_PEZZO)
        assert rc == 0 and obj == {"factors_kapranov": True}

    def test_pinned_false_for_product_family_start(self):
        rep = representative_weights(keel_spec(0, 5))
        weights = ",".join(str(q) for q in rep.weights)
        rc, obj = run_json("factors-kapranov", "--genus", "0", "--weights", weights)
        assert rc == 0 and obj == {"factors_kapranov": False}


class TestScheduleVerb:
    def test_pinned_first_construction(self):
        rc, obj = run_json("schedule", "kblu", "5")
        assert rc == 0
        assert obj["schema"] == "blowup-schedule/1"
        assert obj["ambient"] == "P^{n-3}"
        assert obj["steps"][0]["centers"] == [["p1"], ["p2"], ["p3"]]
        assert obj["steps"][1]["centers"] == [["p4"]]

    def test_small_n_is_usage_error(self):
        rc, _, err = run_cli("schedule", "kblu", "4")
        assert rc == 2

    def test_unknown_construction_is_usage_error(self):
        rc, _, _ = run_cli("schedule", "qblu", "5")
        assert rc == 2


WEIGHT_VALUES = [F(0), F(1), F(1, 2), F(1, 3), F(2, 3), F(1, 4), F(3, 4), F(1, 5), F(1, 7)]


@st.composite
def any_weight_data(draw):
    """Genus 0-3 and up to ten weights in [0, 1] with zeros, valid or not;
    each draw has one to three distinct values."""
    values = draw(st.lists(st.sampled_from(WEIGHT_VALUES), min_size=1, max_size=3))
    weights = draw(st.lists(st.sampled_from(values), max_size=10))
    return WeightData(draw(st.integers(0, 3)), tuple(weights))


def _datum_argv(w: WeightData) -> list[str]:
    return ["--genus", str(w.genus), "--weights", ",".join(map(str, w.weights))]


def _both_forms(*argv: str) -> tuple[tuple[int, str], tuple[int, str]]:
    rc, out, _ = run_cli(*argv, "--format", "json")
    rc_text, text, _ = run_cli(*argv, "--format", "text")
    return (rc, out), (rc_text, text)


def _text(lines) -> str:
    return "\n".join(lines) + "\n"


def _divisor_line(d) -> str:
    if d.kind == "nodal":
        side = " ".join(map(str, d.side))
        return f"nodal: side {side} | genus split {d.genus_split[0]}+{d.genus_split[1]}"
    if d.kind == "irreducible":
        return "irreducible node"
    return "coincidence: " + " ".join(map(str, d.pair))


class TestRenderedOutput:
    """The set-listing verbs join marking tokens themselves; their stdout
    equals canonical_line of the engine's integer tuples and objects, and
    the text lines built from them."""

    @given(any_weight_data())
    @settings(max_examples=300, deadline=None)
    def test_signature_validate_divisors(self, w):
        report = validate(w)
        expected = {
            "ok": report.ok,
            "violations": list(report.violations),
            "walls": report.walls,
        }
        lines = ["valid" if report.ok else "invalid"]
        lines += [f"violation: {v}" for v in report.violations]
        lines += ["wall: " + " ".join(map(str, wall)) for wall in report.walls]
        code = 0 if report.ok else 1
        assert _both_forms("validate", *_datum_argv(w)) == (
            (code, canonical_line(expected)), (code, _text(lines))
        )
        if not report.ok:
            return
        for mode, min_size in (("fine", 2), ("coarse", 3)):
            # canonical order is by size first, so the coarse sets are a tail
            sets = [s for s in chamber_signature(w) if len(s) >= min_size]
            lines = [f"{mode} signature: {len(sets)} sets"]
            lines += [" ".join(map(str, s)) for s in sets]
            assert _both_forms("signature", "--mode", mode, *_datum_argv(w)) == (
                (0, canonical_line({"mode": mode, "sets": sets})), (0, _text(lines))
            )
        divisors = enumerate_boundary_divisors(w)
        lines = [f"{len(divisors)} boundary divisors", *map(_divisor_line, divisors)]
        expected = {"divisors": [d.to_json_dict() for d in divisors]}
        assert _both_forms("divisors", *_datum_argv(w)) == (
            (0, canonical_line(expected)), (0, _text(lines))
        )

    def test_no_walls_no_sets_no_divisors(self):
        # three weights 1: every pair weighs 2, and no side has two markings
        # on each of its two components
        argv = ("--genus", "0", "--weights", "1,1,1")
        assert _both_forms("validate", *argv) == (
            (0, '{"ok":true,"violations":[],"walls":[]}\n'), (0, "valid\n")
        )
        assert _both_forms("signature", *argv) == (
            (0, '{"mode":"fine","sets":[]}\n'), (0, "fine signature: 0 sets\n")
        )
        assert _both_forms("divisors", *argv) == (
            (0, '{"divisors":[]}\n'), (0, "0 boundary divisors\n")
        )


def _expected_validate(w: WeightData) -> tuple[tuple[int, str], tuple[int, str]]:
    report = validate(w)
    obj = {"ok": report.ok, "violations": list(report.violations), "walls": report.walls}
    lines = ["valid" if report.ok else "invalid"]
    lines += [f"violation: {v}" for v in report.violations]
    lines += ["wall: " + " ".join(map(str, wall)) for wall in report.walls]
    code = 0 if report.ok else 1
    return (code, canonical_line(obj)), (code, _text(lines))


def _expected_signature(w: WeightData, mode: str) -> tuple[tuple[int, str], tuple[int, str]]:
    sets = [s for s in chamber_signature(w) if len(s) >= (3 if mode == "coarse" else 2)]
    lines = [f"{mode} signature: {len(sets)} sets", *(" ".join(map(str, s)) for s in sets)]
    return (0, canonical_line({"mode": mode, "sets": sets})), (0, _text(lines))


def _expected_divisors(w: WeightData) -> tuple[tuple[int, str], tuple[int, str]]:
    divisors = enumerate_boundary_divisors(w)
    lines = [f"{len(divisors)} boundary divisors", *map(_divisor_line, divisors)]
    obj = {"divisors": [d.to_json_dict() for d in divisors]}
    return (0, canonical_line(obj)), (0, _text(lines))


def _datum(genus: int, weights: str) -> WeightData:
    return WeightData.from_strings(genus, weights.split(","))


class TestListingBytes:
    """The listing verbs' stdout, rendered from the window search, against
    output assembled here from the library's tuples, in both forms."""

    @pytest.mark.parametrize("mode", ["fine", "coarse"])
    @pytest.mark.parametrize(
        "genus, weights",
        [
            (0, "1/3,1/3,1/3,1/4,1/4,2/3,0"),
            (0, ",".join(["1/7"] * 15)),
            (1, "1/5,1/5,1/5,2/5,0,0,0"),
            # the coarse window of chamber-enum scaled down: heads with
            # equal sums reach the same states
            (1, ",".join(["1/5"] * 6 + ["0"] * 4)),
        ],
    )
    def test_signature(self, mode, genus, weights):
        w = _datum(genus, weights)
        assert validate(w).ok
        got = _both_forms("signature", "--mode", mode, *_datum_argv(w))
        assert got == _expected_signature(w, mode)
        assert got[0][1].count("],[") >= 2  # more than one set

    @pytest.mark.parametrize(
        "genus, weights, ok",
        [
            (0, "1/2,1/2,1/2,1/4,1/4,1/4,0", True),
            (0, ",".join(["1/6"] * 13), True),
            (0, "1/2,1/2,1/2", False),
            (1, "3/2,1/2", False),
        ],
    )
    def test_validate(self, genus, weights, ok):
        w = _datum(genus, weights)
        expected = _expected_validate(w)
        assert (expected[0][0] == 0) is ok
        assert _both_forms("validate", *_datum_argv(w)) == expected

    def test_validate_one_block_of_few_long_rows(self):
        # genus 1, 2001 weights 1/2000: the walls are the 2001 sets of 2000
        # markings, one block at the root of the window (about 20 MB of text)
        w = WeightData(1, (F(1, 2000),) * 2001)
        expected = _expected_validate(w)
        assert expected[1][1].count("\nwall: ") == 2001
        assert _both_forms("validate", *_datum_argv(w)) == expected

    def test_divisors_genus_zero_even_n_cuts_the_half_sides(self):
        w = _datum(0, "1/3,1/3,1/3,1/3,1/3,1/3,1/2,1/2")
        half = [d.side for d in enumerate_boundary_divisors(w) if d.side and len(d.side) == 4]
        # the sides of four markings hold marking 1, one per divisor
        assert half and all(side[0] == 1 for side in half)
        assert len(half) == len({frozenset(range(1, 9)) - set(s) for s in half})
        assert _both_forms("divisors", *_datum_argv(w)) == _expected_divisors(w)

    @pytest.mark.parametrize("weights", ["1/2,1/3,1/4,0", "1/2,1/2,1/2", ""])
    def test_divisors_genus_two_empty_side_and_irreducible_node(self, weights):
        w = _datum(2, weights) if weights else WeightData(2, ())
        divisors = enumerate_boundary_divisors(w)
        assert any(d.kind == "nodal" and d.side == () for d in divisors)
        assert any(d.kind == "irreducible" for d in divisors)
        assert _both_forms("divisors", *_datum_argv(w)) == _expected_divisors(w)
        assert _both_forms("divisors", "--trees", *_datum_argv(w))[1] == (
            _expected_divisors(w)[1]
        )

    @pytest.mark.parametrize("construction", CONSTRUCTIONS)
    @pytest.mark.parametrize("n", range(5, 13))
    def test_schedule_matches_to_json_dict(self, construction, n):
        assert _both_forms("schedule", construction, str(n)) == _expected_schedule(
            construction, n
        )

    @pytest.mark.parametrize("n", [13, 14, 15])
    def test_kblu_schedule_with_few_long_rows(self, n):
        # from n = 13 on, step 1 lists m of the k = n - 2 labels with
        # m > 2 * (k - m) + 4 (from n = 14 on step 2 too), which the text
        # expansion joins row by row instead of from its suffix memo
        assert _both_forms("schedule", "kblu", str(n)) == _expected_schedule("kblu", n)

    @given(weight_data)
    @settings(max_examples=200, deadline=None)
    def test_divisor_trees(self, w):
        # valid data of genus 0-3 with up to eight weights, zeros included
        _check_divisor_trees(w)

    @pytest.mark.parametrize(
        "genus, weights",
        [
            (0, ",".join(["1/3"] * 10)),
            (1, "1/2,1/3,0,1/4,1/2,1/5,1,0,1/3,1/4,1/2"),
            (2, "1/2,0,1/3,1/4,1,1/5,2/3,0,1/2,1/3"),
        ],
    )
    def test_divisor_trees_from_ten_markings(self, genus, weights):
        # marking 10 sorts between 1 and 2 in the trees' marking maps
        _check_divisor_trees(_datum(genus, weights))


def _check_divisor_trees(w: WeightData) -> None:
    """``divisors --trees`` prints canonical_line of the library's divisors
    with their trees, and every printed tree reads back unchanged."""
    entries = []
    for d in enumerate_boundary_divisors(w):
        entry = d.to_json_dict()
        entry["tree"] = divisor_tree(w, d).to_json_dict()
        entries.append(entry)
    rc, out, _ = run_cli("divisors", "--trees", *_datum_argv(w))
    assert (rc, out) == (0, canonical_line({"divisors": entries}))
    for entry in json.loads(out)["divisors"]:
        tree = StableTree.from_json_dict(entry["tree"])
        assert tree.to_json_dict() == entry["tree"]


class TestJsonFromLibrary:
    """The printed divisors, trees, contractions and schedules are cut from
    the objects' own ``to_json_dict``: a key added there is printed."""

    @pytest.fixture(autouse=True)
    def extra_key(self, monkeypatch):
        for cls in (BoundaryDivisor, Contraction, StableTree, BlowupSchedule):
            def to_json_dict(self, original=cls.to_json_dict):
                return {**original(self), "extra": [0]}

            monkeypatch.setattr(cls, "to_json_dict", to_json_dict)

    @pytest.mark.parametrize(
        "genus, weights",
        [(0, "1/3,1/3,1/3,1/3,1/3,1/3,1/2,1/2"), (2, "1/2,1/3,1/4,0")],
    )
    def test_divisors(self, genus, weights):
        w = _datum(genus, weights)
        divisors = enumerate_boundary_divisors(w)
        assert {d.kind for d in divisors} >= {"nodal", "coincidence"}
        plain = {"divisors": [d.to_json_dict() for d in divisors]}
        assert run_cli("divisors", *_datum_argv(w)) == (0, canonical_line(plain), "")
        _check_divisor_trees(w)
        out = run_json("divisors", "--trees", *_datum_argv(w))[1]
        assert all(e["extra"] == e["tree"]["extra"] == [0] for e in out["divisors"])

    def test_contract(self, tmp_path):
        source = _datum(1, ",".join(["1"] * 6))
        target = _datum(1, ",".join(["1/4"] * 6))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path, w in ((a, source), (b, target)):
            path.write_text(json.dumps(w.to_json_dict()), encoding="utf-8")
        entries = [c.to_json_dict() for c in contracted_divisors(source, target)]
        assert entries and entries[0]["extra"] == entries[0]["divisor"]["extra"] == [0]
        argv = ["contract", "--from", str(a), "--to", str(b)]
        assert run_cli(*argv) == (0, canonical_line({"contractions": entries}), "")

    @pytest.mark.parametrize("construction", CONSTRUCTIONS)
    def test_schedule(self, construction):
        assert _both_forms("schedule", construction, "7") == _expected_schedule(
            construction, 7
        )
        assert run_json("schedule", construction, "7")[1]["extra"] == [0]


def _expected_schedule(construction: str, n: int) -> tuple[tuple[int, str], tuple[int, str]]:
    obj = blowup_schedule(construction, n).to_json_dict()
    lines = [f"{construction} on {obj['ambient']}, n={n}"]
    lines += [
        f"step {step['step']}: "
        + "; ".join(
            c if isinstance(c, str) else "{" + " ".join(c) + "}"
            for c in step["centers"]
        )
        for step in obj["steps"]
    ]
    return (0, canonical_line(obj)), (0, _text(lines))


class TestVerifyL1Verb:
    def test_six_markings_all_pass(self):
        rc, obj = run_json("verify-l1", "6")
        assert rc == 0
        assert obj["all_pass"] is True
        assert [c["h"] for c in obj["checks"]] == [2, 3]

    def test_five_markings_note_empty_second_phase(self):
        rc, obj = run_json("verify-l1", "5")
        assert rc == 0
        assert "empty second phase" in obj["note"]

    def test_small_n_is_usage_error(self):
        rc, _, _ = run_cli("verify-l1", "4")
        assert rc == 2

    def test_seven_markings_pinned(self):
        # Witness pairs and relabeling as found by exact elimination; any
        # change to row scaling, row order or pivot choice shows here.
        rc, out, _ = run_cli("verify-l1", "7")
        assert rc == 0
        assert out == (
            '{"all_pass":true,"checks":[{"h":3,"reduces":true,"revalidated":true,'
            '"witness_source":["15/16","15/16","13/16","3/16","3/16","3/16","3/16"],'
            '"witness_target":["7/8","7/8","9/16","1/8","1/8","1/8","1/8"]},'
            '{"fine_equivalent_to_kapranov_2_2":true,"h":4,"reduces":true,'
            '"relabeling":[3,4,5,6,7,1,2],"revalidated":true,'
            '"witness_source":["61/64","61/64","1/8","1/8","1/8","1/8","91/128"],'
            '"witness_target":["29/32","29/32","3/32","3/32","3/32","3/32","43/64"]},'
            '{"h":5,"reduces":true,"revalidated":true,'
            '"witness_source":["71/80","71/80","2/3","2/3","2/3","2/3","2/3"],'
            '"witness_target":["31/40","31/40","9/40","9/40","9/40","9/40","9/40"]}],'
            '"family":"keel","n":7,"range":[3,5],"target":["1","1","1/4","1/4","1/4","1/4","1/4"]}\n'
        )


class TestFeasibleVerb:
    def test_witness_satisfies_the_family_conditions(self):
        rc, obj = run_json("feasible", "sym:k=1,n=6")
        assert rc == 0
        weights = tuple(F(tok) for tok in obj["witness"])
        assert all(0 <= q <= 1 for q in weights)
        system = family_conditions(FamilySpec.from_notation("sym:k=1,n=6"))
        assert evaluate(system, weights)

    @pytest.mark.parametrize(
        "notation,witness",
        [
            ("kapranov:r=2,s=2,n=7", '"1/4","1/4","1/4","1/4","1/2","1","1"'),
            ("sym:k=2,n=7", '"7/24","7/24","7/24","7/24","7/24","7/24","41/48"'),
            ("keel:h=3,n=7", '"3/4","3/4","3/4","3/16","3/16","3/16","3/16"'),
        ],
    )
    def test_witness_pinned_per_family(self, notation, witness):
        rc, out, _ = run_cli("feasible", notation)
        assert rc == 0
        assert out == f'{{"family":"{notation}","witness":[{witness}]}}\n'

    def test_infeasible_system_is_a_domain_error(self, monkeypatch):
        # every in-range spec is feasible, so the outcome is forced here
        def infeasible(spec):
            raise InfeasibleFamilyError(f"{spec.notation()} is infeasible")

        monkeypatch.setattr(cli, "feasible_representative", infeasible)
        error = '{"error":{"kind":"infeasible-family","message":"sym:k=1,n=6 is infeasible"}}\n'
        assert run_cli("feasible", "sym:k=1,n=6") == (1, error, "")
        assert run_cli("feasible", "sym:k=1,n=6", "--format", "text") == (
            1, "error: sym:k=1,n=6 is infeasible\n", ""
        )

    def test_malformed_notation_is_usage_error(self):
        for text in ("bogus:n=5", "kapranov:r=1,n=5", "kapranov:r=1,s=x,n=5"):
            rc, _, _ = run_cli("feasible", text)
            assert rc == 2, text

    def test_out_of_range_parameters_are_usage_errors(self):
        rc, _, _ = run_cli("feasible", "keel:h=3,n=5")
        assert rc == 2

    @pytest.mark.parametrize(
        "text,part",
        [
            ("kapranov:r=--1,s=2,n=7", "r=--1"),
            ("sym:k=²,n=7", "k=²"),
            ("sym:k=٣,n=7", "k=٣"),  # a digit to int(), but not ASCII
            ("keel:h=+1,n=7", "h=+1"),
        ],
    )
    def test_values_must_be_ascii_integers(self, text, part):
        rc, out, err = run_cli("feasible", text)
        key = part.partition("=")[0]
        assert (rc, out) == (2, "")
        assert f"expected {key}=<integer>, got {part!r}" in err


class TestInputHandling:
    def test_input_file_equals_inline(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(
            json.dumps({"genus": 0, "weights": ["1/3", "1/3", "1/3", "2/3", "1"]}),
            encoding="utf-8",
        )
        rc1, out1, _ = run_cli("aut", "--input", str(path))
        rc2, out2, _ = run_cli("aut", *DEL_PEZZO)
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_byte_identical_for_equal_rationals(self):
        _, out1, _ = run_cli("aut", *DEL_PEZZO)
        _, out2, _ = run_cli("aut", "--genus", "0", "--weights", "2/6,1/3,1/3,2/3,1")
        assert out1 == out2

    def test_decimal_weights_rejected(self):
        rc, _, err = run_cli("aut", "--genus", "0", "--weights", "0.5,1,1,1,1")
        assert rc == 2 and "exact rational" in err

    def test_input_conflicts_with_inline(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"genus": 0, "weights": ["1"]}), encoding="utf-8")
        rc, _, err = run_cli(
            "aut", "--input", str(path), "--weights", "1,1,1,1,1"
        )
        assert rc == 2 and "not both" in err

    def test_missing_weight_source(self):
        rc, _, err = run_cli("aut")
        assert rc == 2

    def test_malformed_json_file(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text("{not json", encoding="utf-8")
        rc, _, err = run_cli("validate", "--input", str(path))
        assert rc == 2 and "not JSON" in err

    @staticmethod
    def _run_with_file_in(slot, tmp_path, bad):
        """``validate --input`` or ``contract`` with ``bad`` in ``slot``
        and a valid datum in the other."""
        good = tmp_path / "good.json"
        good.write_text(
            json.dumps({"genus": 0, "weights": ["1"] * 5}), encoding="utf-8"
        )
        if slot == "--input":
            argv = ["validate", "--input", str(bad)]
        else:
            files = {"--from": good, "--to": good, slot: bad}
            argv = ["contract", "--from", str(files["--from"]),
                    "--to", str(files["--to"])]
        return run_cli(*argv)

    @pytest.mark.parametrize("slot", ["--input", "--from", "--to"])
    def test_too_deeply_nested_json_file(self, tmp_path, slot):
        # nesting past the decoder's recursion limit is a usage error, not
        # a RecursionError traceback
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        rc, out, err = self._run_with_file_in(slot, tmp_path, deep)
        assert (rc, out) == (2, "")
        assert f"error: {deep} is not JSON" in err

    @pytest.mark.parametrize("slot", ["--input", "--from", "--to"])
    def test_file_that_is_not_utf8(self, tmp_path, slot):
        # a decoding error names the file, as the "is not JSON" error does
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'\xff\xfe{"genus": 0}')
        rc, out, err = self._run_with_file_in(slot, tmp_path, bad)
        assert (rc, out) == (2, "")
        assert err.startswith(f"hassett: error: {bad} is not JSON: 'utf-8' codec")

    @pytest.mark.parametrize("verb", ["validate", "signature", "divisors", "aut"])
    @pytest.mark.parametrize("genus", [1, 2])
    @pytest.mark.parametrize("form", ["json", "text"])
    def test_empty_weights_mean_no_markings(self, tmp_path, verb, genus, form):
        # an empty --weights value answers as a file with no weights does
        path = tmp_path / "w.json"
        path.write_text(json.dumps({"genus": genus, "weights": []}), encoding="utf-8")
        from_file = run_cli(verb, "--input", str(path), "--format", form)
        inline = run_cli(verb, "--genus", str(genus), "--weights", "", "--format", form)
        assert inline == from_file
        assert inline[0] == (0 if genus == 2 else 1)

    def test_empty_weight_between_commas_rejected(self):
        rc, out, err = run_cli("aut", "--genus", "2", "--weights", "1/2,,1/2")
        assert rc == 2 and out == "" and "exact rational" in err

    def test_unknown_verb_and_bad_format(self):
        assert run_cli("frobnicate")[0] == 2
        assert run_cli("aut", *DEL_PEZZO, "--format", "yaml")[0] == 2


class TestTextMode:
    def test_aut_text(self):
        rc, out, _ = run_cli("aut", *DEL_PEZZO, "--format", "text")
        assert rc == 0
        assert out.splitlines()[0] == "label: torus x S3 x S2"
        assert "torus rank: 2" in out
        assert "finite order: 12" in out

    def test_error_text(self):
        rc, out, _ = run_cli(
            "aut",
            "--genus",
            "0",
            "--weights",
            "1/3,1/3,1/3,1/3,1",
            "--format",
            "text",
        )
        assert rc == 1
        assert out.splitlines()[0] == f"error: {NOT_COVERED_MESSAGE}"

    def test_admissible_text(self):
        rc, out, _ = run_cli(
            "admissible",
            "--genus",
            "3",
            "--weights",
            "1/4,1/4,1/2,3/4,1,1",
            "3",
            "4",
            "--format",
            "text",
        )
        assert rc == 0
        assert "not admissible" in out and "witness packet 1 2" in out


G0_ZEROS = ("--genus", "0", "--weights", "1/3,0,1/4,1/2,0,1/5,1/6,2/3,0")
G1_ZEROS = ("--genus", "1", "--weights", "1/2,1/3,0,1/4,1/5,1/6,0,3/4")
G0_DIV = ("--genus", "0", "--weights", "1/2,1/3,0,1/4,2/3,1/5,1,0")
G2_DIV = ("--genus", "2", "--weights", "1/2,0,1/3,1/4,1,1/5,2/3")
G3_DIV = ("--genus", "3", "--weights", "1/3,1/2,0,1/4,1,1/6")
# kapranov:r=1,s=2,n=7 factors; the keel:h=0,n=7 representative does not
FACTORS_TRUE = ("--genus", "0", "--weights", "1/5,1/5,1/5,1/5,1/5,2/5,1")
FACTORS_FALSE = ("--genus", "0", "--weights", "11/20,11/20,11/20,1/10,1/10,1/10,1/10")

# the ops of the chamber-enum benchmark workload: long runs of equal
# weights, named in test ids by their weights, as their verb and genus
# repeat the ids of the data above
CE_FINE = ("signature", "--genus", "0", "--weights", ",".join(["1/7"] * 20))
CE_WALLS = ("validate", "--genus", "0", "--weights", ",".join(["1/6"] * 18))
CE_DIV = ("divisors", "--genus", "0", "--weights", ",".join(["1/3"] * 16))
CE_COARSE = (
    "signature", "--mode", "coarse", "--genus", "1",
    "--weights", ",".join(["1/5"] * 10 + ["0"] * 6),
)
CE_TREES = ("divisors", "--trees", "--genus", "0", "--weights", ",".join(["1/3"] * 10))
CHAMBER_ENUM_NAMES = {
    CE_FINE: "20 x 1/7",
    CE_WALLS: "18 x 1/6",
    CE_DIV: "16 x 1/3",
    CE_COARSE: "10 x 1/5, 6 x 0",
    CE_TREES: "10 x 1/3",
}


def _digest_id(argv: tuple[str, ...]) -> str:
    """A pinned op's test id: its argv without the weights, which only
    the chamber-enum data name."""
    if "--weights" not in argv:
        return " ".join(argv)
    name = " ".join(argv[:-2])
    return f"{name} {CHAMBER_ENUM_NAMES[argv]}" if argv in CHAMBER_ENUM_NAMES else name


# sha256 of stdout as (JSON, text); the text of ``divisors`` ignores
# ``--trees``, so each such pair shares its text digest
STDOUT_SHA256 = {
    ("signature", *G0_ZEROS): (
        "cf1a71d2eadc5c0bd3f080d3a5b9da7c2f7ef1971f7945859d816380904d5349",
        "7a64c4d4d51ed8aa0ce06ff5bad39e8a39dc1d2d1be78c381f7fc24434a86e77",
    ),
    ("signature", "--mode", "coarse", *G0_ZEROS): (
        "24b01fa2b9b78f4f1a5776804f593d59d8f67727c5777562db40855461a0beda",
        "9fc84a09f1a7c7f357f798faeb8195b65c001a22a64b00a607fc7cfc8312d72b",
    ),
    ("signature", *G1_ZEROS): (
        "3603d13e4cc534f0e269c19a4da07a4566e5c58e05e5f609d66b04a2f4beb748",
        "1b96763f247eea4d955304b29773820cee47d81b25cca4607a54f24014d37dcf",
    ),
    ("signature", "--mode", "coarse", *G1_ZEROS): (
        "27da29d57564c2f7e96a56d6c145949a0b8b346dc56e6057c29a795b3faff3b1",
        "1326c848394ac3226359a0bc975f05feddaf1ec30b08804620a37869cb18438f",
    ),
    ("validate", "--genus", "0", "--weights", "1/2,1/2,0,1/4,1/4,1/2,0,3/4"): (
        "8bf386394a4c75c8ffc1134291998070bc7c5fef083898318af39a85726f659c",
        "656026fdb150fc56777b8347d36ac73e1efb61bd4a8721c72fff4b184af0b4d5",
    ),
    ("divisors", *G0_DIV): (
        "5e764125c953443093c4405b9b082a98d0e722bd85a2a03bdae5ca48fb5fd558",
        "7a59c81485bf214636b76687c3647a3e762da988805fafe8c8879416a99c7dfe",
    ),
    ("divisors", "--trees", *G0_DIV): (
        "7b2361302802737d3bd591cc1b6eb16c88130e367a1ad52479f2a76dc50d3290",
        "7a59c81485bf214636b76687c3647a3e762da988805fafe8c8879416a99c7dfe",
    ),
    ("divisors", *G2_DIV): (
        "ad1d15c5d2cd2a0b031a643446cb76f6c41e281e47658e6b97c552e4fd9ddb99",
        "1daaf479f7a1b9cae7b1c42d3b49a55125fb6d3d686c574963c1cb5069a98a75",
    ),
    ("divisors", "--trees", *G2_DIV): (
        "86796a3244d72ee956796d16cbf2c2f24f452299e441e60902eabe2576ae3a11",
        "1daaf479f7a1b9cae7b1c42d3b49a55125fb6d3d686c574963c1cb5069a98a75",
    ),
    ("divisors", *G3_DIV): (
        "d1e830bea0ca8dd28ee3963c84fa36a2f9a905ea2443976087053595907ff070",
        "d955259541939007c07e520db348a2061a53ddf000adea2c112b34f7768a0263",
    ),
    ("divisors", "--trees", *G3_DIV): (
        "b63c7e98d1540a1fdbb848b4c8b30fc8332eefff1abfebd4784a1a0cb169f3bf",
        "d955259541939007c07e520db348a2061a53ddf000adea2c112b34f7768a0263",
    ),
    ("schedule", "kblu", "9"): (
        "d4ca53d5ccd185ac01a2e3a9251046452c96f19208e1b0b9b47484fbafeb326e",
        "fd0c4c6087f2d51c103a897a3a83cb7a63c9acc210ec3d5849571b0b2b9c0677",
    ),
    ("schedule", "kblusym", "9"): (
        "c900107292803baa512f69a9cb13000a18b7407f5dc1ff42860cf03191171cf2",
        "e777233a24a74d497de43ac2b7eccfafe90bc0da43ae85d39037829ab1299c22",
    ),
    ("schedule", "con2", "9"): (
        "9f4a713a0b61502873ba02656edbbdaa2bbbe03a0e0edca2ea530c4f77e770b0",
        "f7777ff88d85bf226e408136d862521d72b9c44d70a76c0703ec30201a18d59b",
    ),
    # the Fourier-Motzkin verbs: one feasible spec per row shape (Kapranov
    # r=1 and r>=2, sym, Keel h=0, heavy-anchored, exchange, pure-light)
    ("feasible", "kapranov:r=1,s=2,n=7"): (
        "d4e104223709613895b62ac80d280c8947cffb4bcb3900b3634ac5ebe6580b84",
        "dce01c497cede48bacd62ac2cc38ae7eb18bdb68aad46fa2bc888c363ac52fb2",
    ),
    ("feasible", "kapranov:r=2,s=2,n=7"): (
        "0b382ec44a6d7a303a09c5c0d672af6fe8b9d6952dd44d742361286313ee241f",
        "5c55e323795130486260a8dbbacc2e614afdc54ca0d75742bccf58c41df304c2",
    ),
    ("feasible", "sym:k=2,n=7"): (
        "2788938df00ce71df579aa09fac2bdba87efe6541b6b6ff02e2f06682a25d42d",
        "4754971009859dffa4babbfb90499b76ee610b485c7878e3c6abfa3c25d06f5e",
    ),
    ("feasible", "keel:h=0,n=7"): (
        "81df0d1b664dbf18b727716fdab6ad1f8b4d243cf0b30bf550ee65596848b5a9",
        "ce9095e4d797e3773242f9d674ccaeabb3df346c97d8ac578a1399f91e0a2155",
    ),
    ("feasible", "keel:h=2,n=7"): (
        "4cb20831163e50de603fb72777f9909d620371bd99e361db6608c5a37e388851",
        "eda2335564726cc3f942412da6f80a5ef697263b61786e32b0c1df9c2dd21dc0",
    ),
    ("feasible", "keel:h=4,n=7"): (
        "954df63bb5706d709e1a1b0f037b95e8c8afe55d9c371dcf286cef74fbe89313",
        "6d8b111be89498e0c8c27aa8437c2817e7f437341f00252db724e4eb3f5cedeb",
    ),
    ("feasible", "keel:h=5,n=7"): (
        "39fa6543226519a84626f65282e564e5ecb9497b572d4487dc8f8fd88bedc64d",
        "8fc4a8bb7c1056ca6c983a41941eec742ffcd57f03f3f5f266617bece684261f",
    ),
    ("factors-kapranov", *FACTORS_TRUE): (
        "1489a43fdff9b41c611b0aeb85103cf0b8265c7df47c1d24f43b97026232d41b",
        "5035a402580966e07941fa471f25abf4c93e027c6fd81990ecc876b56c62e5da",
    ),
    ("factors-kapranov", *FACTORS_FALSE): (
        "0baf14db12442d26de646d90d8d53af5d2311652955a2063da85b51d83c23c06",
        "12c9d906796f3b64954a929896b3e7ac460429831fa1126242ac1f18fb1b9afd",
    ),
    ("verify-l1", "5"): (
        "8c47577b0943150fba5838a8667c22710a6535d0fb8a04c2da65283886318fc6",
        "1927aecd2847be3828d49459a245fd9f2178ac7a3ed0eca7205e0ad21fa0a5b0",
    ),
    ("verify-l1", "6"): (
        "7cc548ae90d2fbfdf9578d693601d01fc2c17fb31886222f12b1cee2d2677980",
        "1139028d093a0d1fee5607534eda92308c7404dc304cd2933e13d93293f58c08",
    ),
    ("verify-l1", "7"): (
        "558c5f91943e23fab5dc7878025ed7a7e2e6f9f516c6b6408778b77781494664",
        "c9eaabdf9b4fe8a979f32f8fa8cadb063af645ca61ace881da7fb54e6c1bd46d",
    ),
    ("verify-l1", "8"): (
        "e9832c3b8b16ccd8202269ace513947aa1949e5dd4d5e8ba9558a3fbc824ca74",
        "b0dba1642e2b90a02e9a24ecfad5f62c82c03a3cc174459fcd904176f0e61e53",
    ),
    ("verify-l1", "9"): (
        "dc598c983ec0c5ddccb919dfbbf24bac74d20a753539f3aed43981391d01fcf1",
        "6e4fe3d0331db2f48c97230bd2d04d653fd548b5c1062c2bce3fa93369c32426",
    ),
    ("verify-l1", "10"): (
        "0a4d1c49afa19d304f185c34a2475d3f2df1ed3cd3f43ab3f855ca28dd409203",
        "c11678d7463237ed1589a8b95207f7a881475e2c51f61c43792303e2845480b4",
    ),
    # classify and aut on one shuffled family representative per n = 5..12
    # (random.Random(n) picks a member that aut covers and shuffles it)
    # sym:k=1,n=5
    ("classify", "--genus", "0", "--weights", "1/2,1/2,1,1/2,1/2"): (
        "9b69ad054cef6bf41396c701aa987cac7585ef308a1d59d0db99ade91fdfb2e3",
        "66941e4289f18522a6d69d837580dff7257341b2b1f24f21c2d6cd863ac67ef5",
    ),
    ("aut", "--genus", "0", "--weights", "1/2,1/2,1,1/2,1/2"): (
        "e6f6cbd3db0831f4af831ded4306f0b51a09a05511cd858a1bb89b141f7866c9",
        "b2d1c146cf5924c1ef62d8b45d65f7580752e4d7abc888b2ecbde4b6733e206f",
    ),
    # kapranov:r=1,s=3,n=6
    ("classify", "--genus", "0", "--weights", "1/4,1/4,1/4,1,3/4,1/4"): (
        "4e8a592f660162932cedbb0e58ab48e18718978e5b7e7601b89ee9b62a0b092c",
        "e2c68df2f127ed583c36cf24b6b24b176d7677baa6dfb201a3b946329bccc1e3",
    ),
    ("aut", "--genus", "0", "--weights", "1/4,1/4,1/4,1,3/4,1/4"): (
        "4015e5d530313ffc81a0d71d1c903d8091931232e5f3c25f3aa1b265c73a44ed",
        "7345202dd38321c43d57d4cd0cd2a9345a09b1dd51f29016612261a6a5f87d57",
    ),
    # kapranov:r=2,s=3,n=7
    ("classify", "--genus", "0", "--weights", "1/4,1/4,1/4,3/4,1/4,1,1"): (
        "af56dc9969f803fe272180330353458667efb65ecd4973cd856ac5b656817156",
        "2e040f6015f568dfbd65179c8f25d0302431f19cdab10f6559235967eafc2f81",
    ),
    ("aut", "--genus", "0", "--weights", "1/4,1/4,1/4,3/4,1/4,1,1"): (
        "14294dd80d238338011ee86db85d8ad20404ef3c9e2f3489541509d0afc54afa",
        "23dd0b7e78d75048f75c257631f5d8cfb3c881bba832fef53ea716fcfdba8667",
    ),
    # kapranov:r=2,s=4,n=8
    ("classify", "--genus", "0", "--weights", "4/5,1/5,1/5,1,1/5,1,1/5,1/5"): (
        "f0c8f95b4a0b493e8673cb5b8e48315950054df27cf7b5663b18d23b9abd7cb3",
        "f93650be1bc141f48dd068c6628dbe989265417fad13ed1293b54444621a2c00",
    ),
    ("aut", "--genus", "0", "--weights", "4/5,1/5,1/5,1,1/5,1,1/5,1/5"): (
        "dd0b12d40a3a28bcdde18d6a597a9320ad7d388717e631d5185628350754cd61",
        "bd1cc2904f30576d42c4a29688c159ee52098f0aa014f3ce6203c2c19659a5c6",
    ),
    # kapranov:r=4,s=1,n=9
    ("classify", "--genus", "0", "--weights", "1,1/4,1/4,1,1/4,1/4,1/4,1,1"): (
        "af5fe61c0de63fbd3f22a5d13e988ddff45fab2a826e4471e9d55329ea92ff16",
        "1fc94758deef9d69d0e3af6d793d373e0cbf1942dd00768fd3b9cefe7020f788",
    ),
    ("aut", "--genus", "0", "--weights", "1,1/4,1/4,1,1/4,1/4,1/4,1,1"): (
        "a687415427ec3db11927acddf934a614c237ac0246a1c2a17eadc8264c03ea1d",
        "a8bb34f68279510bbcd834f1027d341b4d70d2d2a6197fd20fc99e3805fadefa",
    ),
    # keel:h=9,n=10
    ("classify", "--genus", "0", "--weights", "1,2/9,2/9,2/9,2/9,1,2/9,2/9,2/9,2/9"): (
        "9dfeb34b57732383ce0f6a47709237bf327bd78701352eb18a4bdd18d47c9434",
        "4105cb93dd2df73b092e0193b7c5d24da9ffebbb7cb3a98b3f18a04563e3e53b",
    ),
    ("aut", "--genus", "0", "--weights", "1,2/9,2/9,2/9,2/9,1,2/9,2/9,2/9,2/9"): (
        "f4fb124706edd6d92ee56c3de11a7d365e1cfd6256ca874ae8195b1858c57609",
        "52e6f58fbcb3c43e804081c3dddaf193dcc4bbfc81f14e94b2401f1461b9faf3",
    ),
    # kapranov:r=5,s=4,n=11
    ("classify", "--genus", "0", "--weights", "1,1,1,1/5,1/5,1/5,1,1,1/5,4/5,1/5"): (
        "3f07be83a4cc00807bee0dcf2e61129b064b1da63787a5441aa33efd57257580",
        "d52b53b18edfc75348a5266c2d9821ccf2ed147073dc226933cd8530072953ec",
    ),
    ("aut", "--genus", "0", "--weights", "1,1,1,1/5,1/5,1/5,1,1,1/5,4/5,1/5"): (
        "f4528238826a39cd91dc34eb888a429952ca331a208e3d74d5edc801e33e82d9",
        "f19ba48ab8c637658bfcd5534f6d0b9536134758dd5a9c6197df4b4998cb7ce7",
    ),
    # kapranov:r=5,s=2,n=12
    ("classify", "--genus", "0", "--weights", "1/6,1,1,1/6,1/6,1/6,1/6,1,1/3,1/6,1,1"): (
        "0d426a1501e7446a50dd9adbfbe143d6b28c4f814555d1333cf2811c7bf2a0e0",
        "41d813733b86d620ca50a98e9460bfd64bcfa5a770e386216d21c275a59e01ab",
    ),
    ("aut", "--genus", "0", "--weights", "1/6,1,1,1/6,1/6,1/6,1/6,1,1/3,1/6,1,1"): (
        "33451fbac5d09180220cb63cf4e246148ca49b08b12a18b54a9c10b0019b17d3",
        "efb25f7a86327a211c4ec65db7134da5cebf402e041277b959a376748cdcb5e5",
    ),
    # the six chamber-enum ops, and kblusym at the same n
    CE_FINE: (
        "4dc29fe1450fe2361f869f45594cc195bb3c0e2c41a1cd1c07e8b79833b15582",
        "8808a9b0de1fdb6409a4d6168f1a2c83b00b55fc67db5a699c951f68d1229b68",
    ),
    CE_WALLS: (
        "91c9aca0aea44a208177c0d2854312b4c1b1ff1ae357d301e05d4c3056b89fbb",
        "13b42c8e066b1a1457629c3b3bdb8926ef1330fedd7e5e2483c1c1b491f63ecd",
    ),
    CE_DIV: (
        "aa1adeb30d3d0a6ac3821b130d62aa52470272676437476caef1301cb34825be",
        "53047c44efbd3187d35d2dd6c09607af5d259062dda0bd8306fa11e54c1131b0",
    ),
    CE_COARSE: (
        "c87d556ec356f0af2718a667dcfd09bf048ddacacfd1f622edef2edc32d2f0b4",
        "a7afeae20ba0d8328ba76db7b3b40b1abb845ab6425e27998a0380ba24ba2085",
    ),
    CE_TREES: (
        "05b9e873a8b724fce8d48ad64568fd8f186a1ad0c90af5c7d37e50f864ca154e",
        "912dc78dae8aae2a4ba303a3117a841592c1b339a3d2efa50677d810791bb645",
    ),
    ("schedule", "kblu", "16"): (
        "c4883cd953416d074c1c1a205f359e6c2801c09f0109c88e4949d70b6cc705f7",
        "fb4178d5aa40afadb4a6f6c18a247cb64cbd42d008d347d1ae91fcda89b82fa9",
    ),
    ("schedule", "kblusym", "16"): (
        "b1ec838bf8f27e8d2fec3c797f7b34887d87aafb940add9f2501e8a077a75549",
        "befef7f93f8d93723735c65f628d9292c0054cafaa10c5ca1abba7d9f6f1ccd1",
    ),
}


# exit code and stdout sha256 as (JSON, text) of the shapes at the edges
# of the set-listing verbs
EDGE_SHAPES = {
    # an empty signature
    ("signature", "--genus", "0", "--weights", "1,1,1"): (
        0,
        "b136bb955a83c45b4d04deb23fb5c59964c5afcd602bdfed4d00e6610baa7c49",
        "39dbb6465dc253ecf5873c741d698ba29a813cda6299ac35b314fadc526028de",
    ),
    # a datum with no divisors
    ("divisors", "--genus", "0", "--weights", "1,1,1"): (
        0,
        "37d80affccb53a5df2d4f3d6d0294b2f17982abfa4d6f41be570d250a0e09d39",
        "2c0d0fbb9be887ea1b60f09b00e7c321e710446677ad0a00be3fad50b73598d5",
    ),
    # genus one: the irreducible entry between the nodal and the
    # coincidence divisors, and a zero weight left out of the pairs
    ("divisors", "--genus", "1", "--weights", "1/2,1/3,0,1/4"): (
        0,
        "fd039086d9042e0b9128ccf2d81347dc4232f5d9454a75b929c975b2b28cb7c5",
        "75e530c6f3b6eacb340661634a3e522f6490088c717d408fd94573f66143497b",
    ),
    ("divisors", "--trees", "--genus", "1", "--weights", "1/2,1/3,0,1/4"): (
        0,
        "76f6619ce63f5a08f92f76c733ce53d86e0a7532b9d0be5a8576c61978eef571",
        "75e530c6f3b6eacb340661634a3e522f6490088c717d408fd94573f66143497b",
    ),
    # invalid data: the report, no walls, exit 1
    ("validate", "--genus", "0", "--weights", "1/2,3/2,0,1/4"): (
        1,
        "bceb4397a87991bb906bd7699d49d751e2bb8a7a93ac17fafc7adb4e15100ed1",
        "d07bc711d8b5c75eefc557771b52244c5dc511825e644b520044f84d51d1b116",
    ),
    ("validate", "--genus", "0", "--weights", "1,1,1"): (
        0,
        "755d1ed0ae2a6efc6fb4b6e03370861cdbe16076c510b8a19bb82516e2305cc9",
        "009d962905920ad0e3ff46c6987fad36418982deb81796fd1f58e326d167c268",
    ),
    ("schedule", "kblu", "5"): (
        0,
        "a27be8d2316b60632f085cc158e74a32c693714d8757df6bdde66d2178d252ae",
        "63732b56712a25252cd3d846b2e5177028be94989aca13b30fa24925446c258c",
    ),
    ("schedule", "kblusym", "5"): (
        0,
        "c3f90fdac3b29739ac77fc6e0f768954b0b823caac6f81f7a20b8168c1ba3bd5",
        "883a092cafa217d30665c1c9bb6773c24a165c74a3258d6cd68a25578a416da0",
    ),
}


class TestStdoutPinned:
    """Stdout digests of the set-listing verbs, of the Fourier-Motzkin
    verbs (``feasible``, ``factors-kapranov``, ``verify-l1``) and of the
    family-table verbs (``classify``, ``aut``) on relabeled inputs, in both
    output forms: zero weights, splits of positive genus and divisor trees
    included."""

    @pytest.mark.parametrize(
        "argv",
        list(STDOUT_SHA256),
        ids=_digest_id,
    )
    @pytest.mark.parametrize("form", ["json", "text"])
    def test_stdout_digest(self, argv, form):
        rc, out, err = run_cli(*argv, "--format", form)
        assert rc == 0, err
        expected = STDOUT_SHA256[argv][form == "text"]
        assert hashlib.sha256(out.encode()).hexdigest() == expected

    @pytest.mark.parametrize("argv", list(EDGE_SHAPES), ids=" ".join)
    @pytest.mark.parametrize("form", ["json", "text"])
    def test_edge_shape_digest(self, argv, form):
        rc, out, err = run_cli(*argv, "--format", form)
        exit_code, *digests = EDGE_SHAPES[argv]
        assert rc == exit_code, err
        assert hashlib.sha256(out.encode()).hexdigest() == digests[form == "text"]


HIGHER_GENUS = TestAdmissibleVerb.HIGHER_GENUS

PARSER_CASES = [
    *([verb, "--help"] for verb in cli.VERBS),
    # every verb with its required arguments missing
    *([verb] for verb in cli.VERBS),
    # an option no verb takes: the top-level usage error
    *([verb, "--bogus"] for verb in cli.VERBS),
    ["schedule", "nosuch", "6"],
    ["admissible", *HIGHER_GENUS, "3", "4"],
    ["admissible", *HIGHER_GENUS, "1", "x"],
    ["aut", *DEL_PEZZO, "--bogus"],
    # abbreviated options, and an option with its value after "="
    ["signature", *DEL_PEZZO, "--mo", "coarse"],
    ["signature", *DEL_PEZZO, "--form", "text"],
    ["signature", *DEL_PEZZO, "--mode=coarse"],
    # "--" ends the options
    ["admissible", *HIGHER_GENUS, "--", "3", "4"],
    ["aut", *DEL_PEZZO, "--"],
    ["aut", "--", *DEL_PEZZO],
    # an extra positional after a valid datum
    ["aut", *DEL_PEZZO, "extra"],
    ["admissible", *HIGHER_GENUS, "3", "4", "5"],
    ["aut", *DEL_PEZZO, "--format", "xml"],
    ["aut", *DEL_PEZZO, "-h"],
    ["schedule", "kblu", "6", "-h"],
    ["--help"],
    ["-h"],
    [],
    ["frobnicate"],
    ["--format", "json", "aut", *DEL_PEZZO],
]


def run_full_parser(*argv: str) -> tuple[int, str, str]:
    """:func:`run_cli` with every request parsed by the full parser, with
    a subparser per verb, and run by the same handlers."""
    return _captured(lambda: cli._run(cli.build_parser().parse_args(list(argv))))


class TestParserFloor:
    """``main`` builds one parser for a leading verb, the verb's own;
    every answer, help and usage error included, is the full parser's."""

    @pytest.mark.parametrize(
        "argv", PARSER_CASES, ids=lambda argv: " ".join(argv) or "(none)"
    )
    def test_answers_as_the_full_parser(self, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        assert run_cli(*argv) == run_full_parser(*argv)

    @pytest.mark.parametrize(
        "argv, parsers, subparsers",
        [
            (("admissible", *HIGHER_GENUS, "3", "4"), 1, 0),
            (("--help",), 12, 11),
            # arguments the verb does not take: the full parser's error
            (("aut", *DEL_PEZZO, "--bogus"), 13, 11),
        ],
    )
    def test_parsers_built_per_run(self, monkeypatch, argv, parsers, subparsers):
        built, added = [], []
        init = argparse.ArgumentParser.__init__
        add_parser = argparse._SubParsersAction.add_parser

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        def counting_add(self, name, **kwargs):
            added.append(name)
            return add_parser(self, name, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting_add)
        run_cli(*argv)
        assert (len(built), len(added)) == (parsers, subparsers)

    def test_terminal_width_read_once(self, monkeypatch):
        # argparse reads it for every formatter, one per add_argument
        calls = []
        size = shutil.get_terminal_size

        def counting(*args):
            calls.append(args)
            return size(*args)

        monkeypatch.setattr(shutil, "get_terminal_size", counting)
        rc, _, _ = run_cli("admissible", *HIGHER_GENUS, "3", "4")
        assert rc == 0 and len(calls) == 1

    def test_module_help_reads_sys_argv(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        proc = subprocess.run(
            [sys.executable, "-m", "hassett.cli", "admissible", "--help"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        in_process = run_cli("admissible", "--help")
        assert (proc.returncode, proc.stdout, proc.stderr) == in_process


class TestProcessEntryPoint:
    def test_module_invocation_matches_in_process(self):
        proc = subprocess.run(
            [sys.executable, "-m", "hassett.cli", "aut", *DEL_PEZZO],
            capture_output=True,
            text=True,
            timeout=120,
        )
        _, out, _ = run_cli("aut", *DEL_PEZZO)
        assert proc.returncode == 0
        assert proc.stdout == out


def _shuffled(w: WeightData, seed: str) -> WeightData:
    order = list(w.weights)
    random.Random(seed).shuffle(order)
    return WeightData(w.genus, tuple(order))


def _transcript_digest(argvs) -> str:
    """sha256 over exit code, stdout and stderr of each run, in order."""
    digest = hashlib.sha256()
    for argv in argvs:
        rc, out, err = run_cli(*argv)
        digest.update(f"{rc}\0{out}\0{err}\0".encode())
    return digest.hexdigest()


def _datum_runs(tmp_path, verb: str, data) -> list[list[str]]:
    """``verb`` on each datum, read from a file, in both output forms."""
    runs = []
    for index, w in enumerate(data):
        path = tmp_path / f"w{index}.json"
        path.write_text(json.dumps(w.to_json_dict()), encoding="utf-8")
        runs += (
            [verb, "--input", str(path), "--format", form] for form in ("json", "text")
        )
    return runs


def _grid_data(n: int) -> list[WeightData]:
    """Every family_grid representative at n, each followed by a seeded
    shuffle of it."""
    data = []
    for spec in family_grid(n):
        rep = representative_weights(spec)
        data += [rep, _shuffled(rep, spec.notation())]
    return data


INVALID_DATA = [
    WeightData(-1, (F(1, 2), F(1, 3))),
    WeightData(-2, ()),
    WeightData(0, ()),
    WeightData(1, ()),
    WeightData(0, (F(-1, 3), F(1), F(4, 3), F(1, 2))),
    WeightData(0, (F(1, 2), F(3, 2), F(0), F(1, 4))),
    WeightData(0, (F(1, 3), F(1, 6), F(1, 2))),
    WeightData(0, (F(0), F(0), F(0))),
    WeightData(1, (F(0), F(-5, 7))),
    WeightData(0, (F(2), F(-1), F(-1, 6), F(7, 6), F(1, 4))),
    WeightData(3, (F(-2),) * 5),
]

GENUS_ZERO_DIGESTS = {
    ('classify', 5): "1ed2b1f3a03570335e8db9161474f55624dad8f960cac3f5370b76b0d1847341",
    ('classify', 6): "9b1363543ca042a2b56f2d97bc1a447c6a483ea9fd2b1b6396506baf9f2da15f",
    ('classify', 7): "d6ddfda2f9ee1a23590cb4ed9dfbbe5d20f1e031f565e91abd19f6b01986864c",
    ('classify', 8): "a0aa9053c3cc5f552880e8b7f4aaadcde65ab2d8ac0b8cf7e2f05649f11ecc85",
    ('classify', 9): "4659936564ec33e117609a18c86195d35ff1cb7ff414b7807121eb75f56e7f1e",
    ('classify', 10): "769ed2a1bd06829c76fe41b8468a4ac5bec020edfc61a402cbc19d9c4ea1fb59",
    ('aut', 5): "894262312705ab640cbae5493ce017475197ac6f4100ce1470092f9012330d63",
    ('aut', 6): "30707cfb6d331b70b05e9f6ff6291f38411ac0db0bff439b08c98a62e18ff04e",
    ('aut', 7): "65f5f6b92e93a4447d27045d161f598607330e225ca94bb8052ea91571f76d4e",
    ('aut', 8): "394224fadddb34c3fe53e3658b0157732081a7e99a27f91e75febc230a5f267b",
    ('aut', 9): "906a0d49266280245d22a55ce3d663412e3bf03f2fd57167464006be5ed84f29",
    ('aut', 10): "fae38c15e0b99338e4e1ce90ca0bc84eea98a435e6dc368cb510b3993473e53a",
    ('factors-kapranov', 5): "65305245f022e21006a738d554ddd87e010c34b3bbe58987fd11369c9cf2a2f0",
    ('factors-kapranov', 6): "38b05539b2e910015839a60ed0779eeb7cfebd8ce37736809983258377fbd407",
    ('factors-kapranov', 7): "d69b17ca097f546b100c5fa8bdb1a68b2b68d156a5261270c819b04617b0afe0",
    ('factors-kapranov', 8): "2e6a0192f441c74e12a2a7db9de4dd4834938334a64cd0de1fa614f7b10f755c",
    ('factors-kapranov', 9): "aff8c432e5550a7fb730457104a9d25662e6c9d90c85099865c022a3367bc420",
    ('factors-kapranov', 10): "713e99db9bd13845743db4ee729bc066daf2b5806958673394bb16a109c74fb1",
    ('feasible', 5): "97d61a059ecba874af3087151c27260f37944682e32a94147841776591985396",
    ('feasible', 6): "8bc9f870292ae214489ef439bc9cb64de2a4f2ff8d113b987ae75ea4c922f148",
    ('feasible', 7): "0e7e65285042edd4a0542deda333b451ee7c38d857249c55f7717bd2d062447b",
    ('feasible', 8): "d02bbe32fbbc6bb8bd7f38615f6d0e411c595532b727a5727145b44deaa058be",
    ('feasible', 9): "1ff42ccc9a964ef0e1b83cfa2d8ae51436905995f03d92263395d99386177090",
    ('feasible', 10): "7b4a9773b75217733163528248061e44d13c88d200317ceeb49ab7c69e412c57",
    ('verify-l1', 5): "11f2d166cf95f78f1ebc56ff4b677fc1c24db2de5d0b23e683fc956d360e20b8",
    ('verify-l1', 6): "8c39a8ac09238859027028dbd0f537989c074bee20d131d450e038fe8de1a255",
    ('verify-l1', 7): "e986115a6dc9825af5b1cc5e8b5ceebeb077200407076350e87613d07c494cbe",
    ('verify-l1', 8): "0952809b2e71a68b8a4b84cbf27b449bcbcf4eddd6ef0fc98b9ec1f76d822737",
    ('verify-l1', 9): "4bfb5086ebce2536eb4e4fb131cbe4f3af4e101481751d68d1260989a2fc3933",
    ('verify-l1', 10): "f3a16e6e38e515f7d6ca806567e19f7f19ed90a169bf6eaf2fea560ddf6767e1",
    'validate': "d0f89c012d0ec4a6e373dcda702fad776e658b0a8dff43e67210cca246a2b81e",
}


class TestGenusZeroDispatchPinned:
    """Exit codes, stdout and stderr of the genus-zero family verbs, in both
    output forms, pinned as one digest per verb and n: ``classify``,
    ``aut`` and ``factors-kapranov`` on every family representative and a
    seeded shuffle of it, ``feasible`` on every family notation,
    ``verify-l1``, and ``validate`` on invalid data."""

    @pytest.mark.parametrize("verb", ["classify", "aut", "factors-kapranov"])
    @pytest.mark.parametrize("n", range(5, 11))
    def test_family_representatives(self, tmp_path, verb, n):
        runs = _datum_runs(tmp_path, verb, _grid_data(n))
        assert _transcript_digest(runs) == GENUS_ZERO_DIGESTS[verb, n]

    @pytest.mark.parametrize("n", range(5, 11))
    def test_feasible_notations(self, n):
        runs = [
            ["feasible", spec.notation(), "--format", form]
            for spec in family_grid(n)
            for form in ("json", "text")
        ]
        assert _transcript_digest(runs) == GENUS_ZERO_DIGESTS["feasible", n]

    @pytest.mark.parametrize("n", range(5, 11))
    def test_verify_l1(self, n):
        runs = [["verify-l1", str(n), "--format", form] for form in ("json", "text")]
        assert _transcript_digest(runs) == GENUS_ZERO_DIGESTS["verify-l1", n]

    def test_validate_invalid_data(self, tmp_path):
        runs = _datum_runs(tmp_path, "validate", INVALID_DATA)
        assert _transcript_digest(runs) == GENUS_ZERO_DIGESTS["validate"]
