"""Summarise benchmark records, or compare two sets of them.

    python3 perfbench/compare.py BASE.json ...
    python3 perfbench/compare.py BASE.json ... --against NEW.json ...

Records are the files ``run.py --record FILE`` writes. For every workload
and metric (the end-to-end or per-layer metrics of the run, and the
per-verb latencies) it prints the median over records, the quartiles, and
the spread: the distance between the quartiles as a share of the median.
With ``--against`` it also prints the change of the median and, for the
end-to-end metrics, whether it stays within the bound BENCHMARK.json fixes.
Records taken on different kernel backends are not comparable; the
comparison says so and exits with status 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCH = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: (m["bound"], m["better"]) for m in BENCH["end_to_end"]}


def load(paths: list[str]) -> dict[tuple[str, int], dict[str, list[float]]]:
    """(workload, trace) -> metric -> values over the records."""
    groups: dict = defaultdict(lambda: defaultdict(list))
    for path in paths:
        record = json.loads(Path(path).read_text())
        values = groups[(record["workload"], record["trace"])]
        for name, metric in record["result"]["metrics"].items():
            values[name].append(metric["value"])
        for name, value in record.get("verbs", {}).items():
            values[name].append(value)
        values["backend:" + record["env"]["backend"]].append(1)
    return groups


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and spread (quartile distance
    over the median); quartiles as ``statistics.quantiles(values, n=4)``."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", nargs="+", metavar="RECORD")
    parser.add_argument("--against", nargs="+", default=[], metavar="RECORD")
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.against)
    status = 0
    for key in sorted(base):
        workload, trace = key
        print(f"== {workload} (trace {trace})")
        backends = {n for n in base[key] if n.startswith("backend:")}
        if key in new:
            new_backends = {n for n in new[key] if n.startswith("backend:")}
            if backends != new_backends:
                print(f"NOT COMPARABLE: backends differ ({sorted(backends)} vs {sorted(new_backends)})")
                status = 1
                continue
        for name, values in sorted(base[key].items()):
            if name.startswith("backend:"):
                continue
            median, q1, q3, spread = summary(values)
            line = f"{name:44} n={len(values):<3} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:.3f}"
            if name in new.get(key, {}):
                new_median = summary(new[key][name])[0]
                change = new_median / median - 1 if median else 0.0
                line += f" | new median {new_median:<12.6g} change {change:+.3f}"
                if name in BOUNDS:
                    bound, better = BOUNDS[name]
                    worse = change if better == "lower" else -change
                    line += " within bound" if worse <= bound else f" WORSE THAN BOUND {bound}"
            elif name in BOUNDS:
                bound = BOUNDS[name][0]
                line += f" bound {bound} ({'ok' if spread <= bound / 3 else 'spread above a third of the bound'})"
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
