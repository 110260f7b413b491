"""Tests of the benchmark itself: tracing must not change what the program
prints and must leave the program as it found it, a hung op must count as
failed instead of stalling the run, and the per-op reset must give every
op a cold start.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import hassett.cli as cli  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _main(argv):
    # looked up at call time, so an installed tracer sees the call
    return cli.main(argv)


def _stdouts(ops, caches) -> list[str]:
    outputs = []
    for op in ops:
        for cache in caches:
            cache.cache_clear()
        _, code, stdout, error, _ = run.run_op(_main, op.argv)
        assert error is None and workloads.check_output(op, code, stdout) is None, op.argv
        outputs.append(stdout)
    return outputs


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_and_untraced_ops_print_identical_bytes(name, tmp_path):
    ops = workloads.WORKLOADS[name](1, tmp_path)
    caches = tracing.function_caches()
    plain = _stdouts(ops, caches)
    with tracing.Tracer() as tracer:
        traced = _stdouts(ops, caches)
    assert traced == plain
    assert sum(1 for rec in tracer.spans if rec[0] == "cli.main") == len(ops)


def test_tracer_patches_every_binding_and_restores_each_original(tmp_path):
    def bindings():
        return {(m.__name__, k): v for m in tracing.hassett_modules() for k, v in vars(m).items()}

    before = bindings()
    op = workloads.WORKLOADS["positive-genus"](1, tmp_path)[0]
    with tracing.Tracer() as tracer:
        patched = {(m.__name__, attr) for m, attr, _ in tracer._patched}
        # names bound by ``from ... import`` are patched, not only the definitions
        assert {
            ("hassett.cli", "canonical_line"),
            ("hassett.strata", "chamber_signature"),
            ("hassett.families", "chamber_signature"),
            ("hassett.autgroup", "classify_with_relabeling"),
            ("hassett.kernels", "find_subset_in_interval"),
        } <= patched
        assert all(getattr(sys.modules[m], attr) is not before[(m, attr)] for m, attr in patched)
        run.run_op(_main, op.argv)
    with pytest.raises(RuntimeError), tracing.Tracer():
        raise RuntimeError("an op that blows up inside the traced run")
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_hung_op_counts_as_failed_without_stalling_the_run():
    def main(argv):
        if argv[0] == "hang":
            time.sleep(60)
        sys.stdout.write('{"ok":true}\n')
        return 0

    ok = '{"ok":true}\n'
    ops = [workloads.Op("hang", ("hang",), ok), workloads.Op("fine", ("fine",), ok)]
    runner = run.Runner(ops, main, [], workloads.check_output)
    runner.cap_s = 0.2
    start = time.perf_counter()
    done = runner.run_pass()
    assert time.perf_counter() - start < 5
    assert runner.attempted == 2
    assert len(runner.failures) == 1 and "cap" in runner.failures[0]
    assert done.results[0].error is not None and done.results[1].error is None


def test_speed_samples_are_taken_during_an_op_and_left_out_of_its_time(monkeypatch):
    def reference():
        time.sleep(0.05)
        return 0.05

    monkeypatch.setattr(run, "time_reference", reference)

    def main(argv):
        # half a second of CPU work; the samples' sleeps use none of it
        until = time.process_time() + 0.5
        while time.process_time() < until:
            pass
        return 0

    seconds, code, _, error, samples = run.run_op(main, ("spin",), sample_s=0.1)
    assert code == 0 and error is None
    assert len(samples) >= 3
    assert abs(seconds - 0.5) < 0.1


def test_reset_gives_each_op_a_cold_start(tmp_path):
    op = workloads.WORKLOADS["family-dispatch"](1, tmp_path)[0]
    assert op.argv[0] == "classify"
    runner = run.Runner([op], _main, tracing.function_caches(), workloads.check_output)
    passes = [runner.run_pass() for _ in range(4)]
    misses = {p.cache_misses for p in passes}
    assert len(misses) == 1 and misses.pop() > 0
    # latency in reference units, so drift in machine speed cannot fake a change
    costs = sorted(p.in_reference_units for p in passes)
    assert costs[-1] < 2 * costs[0]
    # without the reset, the next op would start with warm family caches
    runner.reset = lambda: None
    warm = runner.run_pass()
    assert warm.cache_misses == 0 and warm.cache_hits > 0
    assert warm.in_reference_units < costs[0] / 2
    assert runner.failures == []


def test_checks_reject_wrong_outputs(tmp_path):
    for name, build in workloads.WORKLOADS.items():
        for op in build(1, tmp_path):
            assert workloads.check_output(op, 0, "{}\n") is not None, op.argv
            assert workloads.check_output(op, 1, "{}\n") == "exit code 1"
    ops = workloads.family_dispatch(1, tmp_path)
    relabeled = ops[1]
    identity = {"family": "kapranov:r=2,s=3,n=9", "relabeling": list(range(1, 10))}
    assert "mismatches weights" in workloads.check_output(relabeled, 0, workloads.canonical_line(identity))
    sym = ops[6]
    assert sym.argv == ("feasible", "sym:k=3,n=10")
    wrong_chamber = {"family": "sym:k=3,n=10", "witness": ["1/4"] * 9 + ["1"]}
    assert workloads.check_output(sym, 0, workloads.canonical_line(wrong_chamber)) is not None


def test_seed_sets_the_relabeling_and_nothing_else(tmp_path):
    def argvs(seed):
        return {name: [op.argv for op in build(seed, tmp_path)] for name, build in workloads.WORKLOADS.items()}

    one, again, two = argvs(1), argvs(1), argvs(2)
    assert one == again
    assert one["chamber-enum"] == two["chamber-enum"]
    changed = [(name, i) for name in one for i, (a, b) in enumerate(zip(one[name], two[name])) if a != b]
    assert changed == [("family-dispatch", 1), ("family-dispatch", 2), ("positive-genus", 0)]


def test_without_the_program_the_benchmark_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "positive-genus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
