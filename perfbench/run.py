"""End-to-end benchmark of the ``hassett`` CLI, one workload per run.

Run from the repository root:

    python3 perfbench/run.py --workload chamber-enum --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each op is one in-process ``hassett.cli.main(argv)`` call with stdout
captured, in a closed loop: one client, one thread, one op at a time.
Before every op the benchmark clears every ``functools`` cache of the
``hassett`` modules and collects garbage, because a user pays that lazy
set-up in every ``hassett`` process. Passes over the workload's ops repeat
until ``--seconds`` are spent; every output is checked (see
``workloads.py``), and an op that fails its check, exits non-zero, raises,
or runs past a wall-clock cap counts as failed.

``--trace 0`` reports the end-to-end metrics. ``wall_ref`` is one pass
over the workload's ops with each op's time divided by the time of a fixed
reference computation sampled before, during (every 0.2 s) and after the
op; the median over passes. On a shared 2-vCPU VM the speed of identical
work was seen to switch between levels up to 1.8x apart every few seconds,
so a run's median pass time in seconds (``wall_s``, printed) moved by up
to 30% between runs, while ``wall_ref``, which divides that drift out,
stayed within a few percent. ``setup_s`` is
the median of several fresh interpreters importing ``hassett.cli`` and
building its parser, and ``peak_rss_mb`` the peak resident memory.
``--trace 1`` alternates untraced and traced passes (see ``tracing.py``)
and reports the per-layer metrics and the tracing overhead.

Human-readable lines come first: wall_s with its tail, the per-verb
latencies in seconds, ops_failed_ratio and every layer metric. The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and the ``metrics`` BENCHMARK.json lists. Those leave out the
per-verb latencies (each verb runs on one or two workloads only) and the
busy times of layers that some workload bypasses (they would read 0
there); every traced function's call count stays in. ``--record FILE``
also writes the whole run as JSON for ``compare.py``.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

# An op past this wall-clock cap is abandoned and counted as failed.
OP_CAP_S = 30.0
# No op starts later than this past the requested run length, so a run
# stays under three minutes (at --seconds 60) even when ops hang.
LOOP_GRACE_S = 60.0
SETUP_SAMPLES = 11
# How often a running op is paused to sample the machine's speed.
SAMPLE_INTERVAL_S = 0.2
SETUP_CODE = "import hassett.cli as cli; cli.build_parser()"


class OpTimeout(BaseException):
    """Raised into a running op when it reaches its cap. A BaseException,
    so no ``except Exception`` inside the program can swallow it."""


def reference_work() -> int:
    """A fixed computation of the engine's kind (exact rational subset sums,
    frozensets, sorting), written here so no change to the program can
    change it. Its time gauges the machine's current speed."""
    weights = [Fraction(1, k) for k in range(3, 15)]
    small = [
        frozenset(c)
        for size in range(2, 5)
        for c in combinations(range(len(weights)), size)
        if sum((weights[i] for i in c), Fraction(0)) <= 1
    ]
    small.sort(key=lambda s: (len(s), sorted(s)))
    return len(small)


def time_reference() -> float:
    """Seconds one :func:`reference_work` takes, with the collector paused
    so it does not collect the op's garbage on the op's behalf."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def run_op(
    main, argv, cap_s: float = OP_CAP_S, sample_s: float = SAMPLE_INTERVAL_S
) -> tuple[float, int | None, str, str | None, list[float]]:
    """Run ``main(argv)`` with stdout and stderr captured.

    Every ``sample_s`` a timer interrupts the op to time the reference
    computation, a sample of the machine's speed during the op whose time
    is left out of the op's, and to stop the op once it has run for
    ``cap_s``. Returns (seconds, exit code, stdout, error, samples).
    """
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    samples: list[float] = []
    paused = 0.0
    start = time.perf_counter()

    def tick(signum, frame):
        nonlocal paused
        begin = time.perf_counter()
        if begin - start >= cap_s:
            raise OpTimeout
        samples.append(time_reference())
        paused += time.perf_counter() - begin

    previous = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, sample_s, sample_s)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(list(argv))
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        error = f"exceeded the {cap_s:g} s cap"
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        error = traceback.format_exc(limit=-3).strip().replace("\n", " | ")
    finally:
        seconds = time.perf_counter() - start - paused
        signal.signal(signal.SIGALRM, previous)
    return seconds, code, out.getvalue(), error, samples


@dataclass
class OpResult:
    seconds: float
    error: str | None
    # mean time of the reference computation before, during and after the op
    reference_s: float


@dataclass
class Pass:
    """One pass over a workload's ops, with the op ids the tracer saw."""

    results: list[OpResult] = field(default_factory=list)
    op_ids: set[int] = field(default_factory=set)
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def seconds(self) -> float:
        return sum(r.seconds for r in self.results)

    @property
    def in_reference_units(self) -> float:
        """Pass time with each op measured in reference computations
        timed around it, which divides out the machine's speed at the time."""
        return sum(r.seconds / r.reference_s for r in self.results)


class Runner:
    """Runs passes over one workload's ops and checks every output."""

    def __init__(self, ops, main, caches, check_output):
        self.ops = ops
        self.main = main
        self.caches = caches
        self.check_output = check_output
        self.cap_s = OP_CAP_S
        self.attempted = 0
        self.failures: list[str] = []
        self.next_op_id = 0

    def reset(self) -> None:
        """Clear the program's caches; collect, then freeze what survives
        (the benchmark's own data), so the program's collections during
        the op scan only what the op allocates, as in a fresh process."""
        for cache in self.caches:
            cache.cache_clear()
        gc.collect()
        gc.freeze()

    def family_cache_counts(self) -> tuple[int, int]:
        infos = [c.cache_info() for c in self.caches if c.__module__ == "hassett.families"]
        return sum(i.hits for i in infos), sum(i.misses for i in infos)

    def run_pass(self, tracer=None, stop_at: float = float("inf")) -> Pass | None:
        """One pass; None when ``stop_at`` came before it finished."""
        done = Pass()
        reference_before = time_reference()
        for op in self.ops:
            if time.perf_counter() > stop_at:
                return None
            self.reset()
            if tracer is not None:
                tracer.op = self.next_op_id
            done.op_ids.add(self.next_op_id)
            self.next_op_id += 1
            hits, misses = self.family_cache_counts()
            # traced passes take no speed samples, which would land inside spans
            sample_s = SAMPLE_INTERVAL_S if tracer is None else self.cap_s
            seconds, code, stdout, error, samples = run_op(self.main, op.argv, self.cap_s, sample_s)
            after_hits, after_misses = self.family_cache_counts()
            done.cache_hits += after_hits - hits
            done.cache_misses += after_misses - misses
            if error is None:
                error = self.check_output(op, code, stdout)
            self.attempted += 1
            if error is not None:
                self.failures.append(f"{' '.join(op.argv)[:120]}: {error}")
            reference_after = time_reference()
            speed = statistics.mean([reference_before, *samples, reference_after])
            done.results.append(OpResult(seconds, error, speed))
            reference_before = reference_after
        return done

    def run_for(self, seconds: float, tracers=(None,)) -> list[list[Pass]]:
        """Cycles of one pass per entry of ``tracers`` (None: untraced)
        until ``seconds`` are spent; a cycle starts only while half a
        typical cycle still fits in the time left. Alternating traced and
        untraced passes keeps drift in machine speed out of their difference."""
        start = time.perf_counter()
        stop_at = start + seconds + LOOP_GRACE_S
        runs: list[list[Pass]] = [[] for _ in tracers]
        cycles: list[float] = []
        while not cycles or time.perf_counter() - start + statistics.median(cycles) / 2 < seconds:
            cycle_start = time.perf_counter()
            for passes, tracer in zip(runs, tracers):
                if tracer is None:
                    done = self.run_pass(None, stop_at)
                else:
                    with tracer:
                        done = self.run_pass(tracer, stop_at)
                if done is None:
                    return runs
                passes.append(done)
            cycles.append(time.perf_counter() - cycle_start)
        return runs


def setup_seconds(samples: int = SETUP_SAMPLES) -> list[float]:
    """Wall time of fresh interpreters that import the CLI and build its parser."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
    return times


def environment(hassett, kernels) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    return {
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "commit": commit,
        "hassett_version": hassett.__version__,
        "backend": kernels.BACKEND,
    }


def tail_summary(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            value = statistics.quantiles(samples, n=1000, method="inclusive")[round(p * 10) - 1]
            return f"p{p:g} {value:.4f} s (n={n})"
    return f"no percentile has ten samples beyond it (n={n})"


def _median_by_key(rows: list[dict]) -> dict:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def _as_number(value: float, unit: str):
    return int(value) if unit in ("count", "B") and float(value).is_integer() else value


def per_verb(ops, passes: list[Pass]) -> dict[str, float]:
    """Median over passes of the seconds a pass spends in each verb's ops."""
    rows = []
    for p in passes:
        row: dict[str, float] = {}
        for op, result in zip(ops, p.results):
            row[f"{op.verb}_s"] = row.get(f"{op.verb}_s", 0.0) + result.seconds
        rows.append(row)
    return _median_by_key(rows)


def _import_hassett():
    """The package under ``src/`` of this checkout, and nothing else."""
    sys.path.insert(0, str(SRC))
    try:
        import hassett
        import hassett.cli
        from hassett import kernels
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import hassett from {SRC}: {exc}")
    if not Path(hassett.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: hassett was imported from {hassett.__file__}, not {SRC}")
    return hassett, hassett.cli, kernels


def run_workload(args) -> int:
    hassett, cli, kernels = _import_hassett()
    import tracing
    import workloads

    env = environment(hassett, kernels)
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        ops = workloads.WORKLOADS[args.workload](args.seed, workdir)
        runner = Runner(ops, lambda argv: cli.main(argv), tracing.function_caches(), workloads.check_output)
        print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
        print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
        print("closed loop: 1 client, 1 thread, 1 op at a time; caches cleared before every op")
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "env": env, "argv": [list(op.argv) for op in ops]}
        if args.trace:
            metrics, units = traced_run(args, runner, ops, tracing, record)
        else:
            metrics, units = untraced_run(args, runner, ops, record)
    finally:
        for path in workdir.iterdir():
            path.unlink()
        workdir.rmdir()

    failed = len(runner.failures)
    for failure in runner.failures:
        print(f"FAILED {failure}")
    print(f"ops_failed_ratio: {failed / runner.attempted:.4g} ({failed} of {runner.attempted} ops attempted)")
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": _as_number(metrics[name], units[name]), "unit": units[name]}
                    for name in (m["name"] for m in BENCH["per_layer" if args.trace else "end_to_end"])},
    }
    record["result"] = result
    if args.record:
        Path(args.record).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def untraced_run(args, runner, ops, record):
    setups = setup_seconds()
    (passes,) = runner.run_for(args.seconds)
    walls = [p.seconds for p in passes]
    normalized = [p.in_reference_units for p in passes]
    verbs = per_verb(ops, passes)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"wall_s: median {statistics.median(walls):.4f} s over {len(walls)} passes; {tail_summary(walls)}")
    print(f"wall_ref: median {statistics.median(normalized):.2f} ref over {len(walls)} passes "
          f"(1 ref: one reference computation, median {statistics.median(r.reference_s for p in passes for r in p.results) * 1000:.2f} ms here)")
    print(f"setup_s: median {statistics.median(setups):.4f} s over {len(setups)} fresh interpreters")
    print(f"peak_rss_mb: {rss_mb:.1f} MB")
    for name, value in sorted(verbs.items()):
        print(f"{name}: {value:.4f} s (median over {len(walls)} passes)")
    record.update(walls=walls, normalized=normalized, setups=setups, verbs=verbs,
                  op_seconds=[[r.seconds for r in p.results] for p in passes])
    metrics = {"wall_s": statistics.median(walls), "wall_ref": statistics.median(normalized),
               "setup_s": statistics.median(setups), "peak_rss_mb": rss_mb}
    units = {"wall_s": "s", "wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}
    return metrics, units


def traced_run(args, runner, ops, tracing, record):
    tracer = tracing.Tracer()
    untraced, traced = runner.run_for(args.seconds, (None, tracer))
    rows = []
    for p in traced:
        totals = tracing.layer_totals(tracer.spans, p.op_ids)
        totals.update({"families.cache_hits": p.cache_hits, "families.cache_misses": p.cache_misses})
        rows.append(tracing.layer_metrics(totals))
    layers = _median_by_key(rows)
    counts = [{k: v for k, v in row.items() if tracing.LAYER_METRICS[k][0] == "count"} for row in rows]
    overhead = statistics.median(p.seconds for p in traced) - statistics.median(p.seconds for p in untraced)
    print(f"traced passes: {len(traced)}, untraced passes: {len(untraced)}, spans: {len(tracer.spans)}")
    print(f"trace.overhead_s: {overhead:.4f} s per pass")
    print(f"state reset: per-pass counts identical across traced passes: {all(c == counts[0] for c in counts)}")
    for name, value in layers.items():
        unit = tracing.LAYER_METRICS[name][0]
        print(f"{name}: {_as_number(value, unit)} {unit}")
    record.update(layers=layers)
    units = {name: tracing.LAYER_METRICS[name][0] for name in layers} | {"trace.overhead_s": "s"}
    return {**layers, "trace.overhead_s": overhead}, units


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="FILE", help="also write the whole run as JSON")
    args = parser.parse_args(argv)
    if args.workload != "all":
        return run_workload(args)
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.record:
            cmd += ["--record", f"{args.record}.{name}.json"]
        status = max(status, subprocess.run(cmd).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
