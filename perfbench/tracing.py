"""Outside-in layer tracing for the benchmark's traced run.

The program carries no tracing of its own. :class:`Tracer` replaces each
public function listed in :data:`TRACED` with a wrapper, at every module
attribute of the ``hassett`` package that is bound to it: ``cli``,
``strata``, ``families`` and ``autgroup`` use ``from ... import``, so
patching the defining module alone would miss their calls. ``lru_cache``
functions are wrapped outside the cache, so cache hits still count as calls.

Each call records a span ``[name, start, end, parent, op, counts]`` in
memory; layer metrics are computed from the spans after the run, and
:meth:`Tracer.restore` puts every original attribute back.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from collections.abc import Callable


def _len_of(attr: str | None = None) -> Callable:
    def count(args, result):
        return len(result if attr is None else getattr(result, attr))

    return count


# name -> per-call counter over (args, result); a dict result adds
# several counts (keys ending in "_max" keep the maximum), anything else
# is summed as "out"
TRACED: dict[str, Callable | None] = {
    "cli.main": None,
    "jsonio.canonical_line": lambda args, result: len(result),
    "weights.validate": _len_of("walls"),
    "weights.chamber_signature": _len_of(),
    "weights.chamber_reduction_exists": None,
    "kernels.enumerate_small_subsets": _len_of(),
    "kernels.find_subset_in_interval": lambda args, result: int(result != -1),
    "strata.enumerate_boundary_divisors": lambda args, result: {
        "out": len(result),
        "sides_tried": (args[0].genus // 2 + 1) * 2 ** args[0].n,
    },
    "strata.divisor_tree": None,
    "strata.contracted_divisors": None,
    "families.classify_with_relabeling": None,
    "families.signature_relabeling": lambda args, result: int(result is not None),
    "families.family_conditions": lambda args, result: len(result.constraints),
    "families.representative_weights": None,
    "families.factors_kapranov": None,
    "families.verify_keel_factorization": None,
    "families.feasible_representative": None,
    "families.blowup_schedule": None,
    "linear.solve_feasibility": lambda args, result: {
        "rows": len(args[0].constraints),
        "vars": args[0].num_vars,
        "out": int(result is None),
    },
    "linear.evaluate": lambda args, result: len(args[0].constraints),
    "perms.generate_group": lambda args, result: {"out": len(args[0]), "degree_max": args[1]},
    "autgroup.aut_group": None,
    "autgroup.is_admissible": lambda args, result: int(result[0]),
}


def hassett_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "hassett" or name.startswith("hassett.")]


def function_caches() -> list:
    """Every ``functools`` cache among the attributes of the hassett modules."""
    found = {}
    for module in hassett_modules():
        for value in vars(module).values():
            if hasattr(value, "cache_clear") and hasattr(value, "cache_info"):
                found[id(value)] = value
    return list(found.values())


class Tracer:
    """Patches the :data:`TRACED` functions while installed; use as a
    context manager so the originals come back even on error."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, original: Callable, count: Callable | None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            record = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if count is not None:
                record[5] = count(args, result)
            return result

        return traced

    def install(self) -> None:
        modules = hassett_modules()
        for name, count in TRACED.items():
            layer, func = name.split(".")
            original = getattr(sys.modules[f"hassett.{layer}"], func)
            wrapper = self._wrap(name, original, count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def _ratio(numerator: str, denominator: str) -> Callable[[dict], float]:
    # 0 when the layer made no attempts; its ``.calls`` metric says so
    return lambda t: t[numerator] / t[denominator] if t[denominator] else 0.0


# Layer metrics by name: unit, and the totals key (or function of the
# totals) that gives the value; None means the totals key of the same name.
LAYER_METRICS: dict[str, tuple[str, str | Callable | None]] = {
    **{f"{name}.calls": ("count", None) for name in TRACED},
    "cli.main.self_s": ("s", None),
    "jsonio.canonical_line.s": ("s", None),
    "jsonio.bytes_out": ("B", "jsonio.canonical_line.out"),
    "weights.validate.self_s": ("s", None),
    "weights.walls_out": ("count", "weights.validate.out"),
    "weights.chamber_signature.self_s": ("s", None),
    "weights.sets_out": ("count", "weights.chamber_signature.out"),
    "weights.chamber_reduction_exists.self_s": ("s", None),
    "kernels.enumerate_small_subsets.s": ("s", None),
    "kernels.masks_out": ("count", "kernels.enumerate_small_subsets.out"),
    "kernels.find_subset_in_interval.s": ("s", None),
    "kernels.interval_hit_ratio": (
        "ratio", _ratio("kernels.find_subset_in_interval.out", "kernels.find_subset_in_interval.calls")),
    "strata.enumerate_boundary_divisors.self_s": ("s", None),
    "strata.divisors_out": ("count", "strata.enumerate_boundary_divisors.out"),
    # computed from each call's input as (floor(g/2) + 1) * 2^n, not counted
    "strata.sides_tried": ("count", "strata.enumerate_boundary_divisors.sides_tried"),
    "strata.divisor_yield": (
        "ratio", _ratio("strata.enumerate_boundary_divisors.out", "strata.enumerate_boundary_divisors.sides_tried")),
    "strata.divisor_tree.self_s": ("s", None),
    "strata.contracted_divisors.self_s": ("s", None),
    "families.classify_with_relabeling.self_s": ("s", None),
    "families.signature_relabeling.s": ("s", None),
    "families.relabel_hit_ratio": (
        "ratio", _ratio("families.signature_relabeling.out", "families.signature_relabeling.calls")),
    "families.family_conditions.self_s": ("s", None),
    "families.condition_rows": ("count", "families.family_conditions.out"),
    "families.representative_weights.self_s": ("s", None),
    "families.cache_hits": ("count", None),
    "families.cache_misses": ("count", None),
    "families.factors_kapranov.self_s": ("s", None),
    "families.verify_keel_factorization.self_s": ("s", None),
    "families.feasible_representative.self_s": ("s", None),
    "families.blowup_schedule.s": ("s", None),
    "linear.solve_feasibility.s": ("s", None),
    "linear.rows_in": ("count", "linear.solve_feasibility.rows"),
    "linear.vars_in": ("count", "linear.solve_feasibility.vars"),
    "linear.infeasible": ("count", "linear.solve_feasibility.out"),
    "linear.evaluate.s": ("s", None),
    "linear.rows_checked": ("count", "linear.evaluate.out"),
    "perms.generate_group.s": ("s", None),
    "perms.generators_in": ("count", "perms.generate_group.out"),
    "perms.degree_max": ("count", "perms.generate_group.degree_max"),
    "autgroup.aut_group.self_s": ("s", None),
    "autgroup.is_admissible.self_s": ("s", None),
    "autgroup.admissible_ratio": ("ratio", _ratio("autgroup.is_admissible.out", "autgroup.is_admissible.calls")),
}


def layer_metrics(totals: dict[str, float]) -> dict[str, float]:
    """The named layer metrics from one pass's totals."""
    totals = defaultdict(float, totals)
    out = {}
    for name, (_unit, source) in LAYER_METRICS.items():
        out[name] = source(totals) if callable(source) else totals[source or name]
    return out


def layer_totals(spans: list[list], ops: set[int]) -> dict[str, float]:
    """Calls, inclusive and self seconds, and counters per traced function,
    summed over the spans of the given op ids.

    Self time is a span's duration minus the durations of its direct
    children; the trace is single-threaded, so children nest inside it.
    """
    child_time: dict[int, float] = defaultdict(float)
    for rec in spans:
        if rec[3] >= 0:
            child_time[rec[3]] += rec[2] - rec[1]
    totals: dict[str, float] = defaultdict(float)
    maxima: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _parent, op, counts) in enumerate(spans):
        if op not in ops:
            continue
        totals[f"{name}.calls"] += 1
        totals[f"{name}.s"] += end - start
        totals[f"{name}.self_s"] += end - start - child_time[index]
        if isinstance(counts, dict):
            for key, value in counts.items():
                if key.endswith("_max"):
                    maxima[f"{name}.{key}"] = max(maxima[f"{name}.{key}"], value)
                else:
                    totals[f"{name}.{key}"] += value
        elif counts is not None:
            totals[f"{name}.out"] += counts
    totals.update(maxima)
    return totals
