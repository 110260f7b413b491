"""Command-line front end.

Every verb maps to exactly one engine operation and runs batch,
single-shot. Results go to standard output; JSON output is canonical
(sorted keys, no optional whitespace, lowest-term rationals), so identical
inputs produce byte-identical bytes.

The verbs that list sets (``signature``, ``validate``, ``divisors`` and
``schedule``) ask the engine's windows for tuples of marking tokens
(``"1"``...``"n"``, or the schedule's point labels) and build both output
forms by joining those tokens, in C, once per set; the JSON text reaches
:func:`~hassett.jsonio.canonical_line` as a
:class:`~hassett.jsonio.Rendered` value, and no integer is encoded one by
one. Only ``divisors --trees`` in JSON builds divisor objects, for their
dual graphs.

Each run builds the subparser of the requested verb only, when the first
argument names one; help, a missing or unknown verb, or an option before
the verb builds them all.

Exit status: 0 on success, 1 on domain errors (invalid weight data, weight
data no covering theorem applies to, infeasible family systems) with a
machine-readable error object on standard output, 2 on usage errors with a
message on standard error.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain

from hassett.autgroup import (
    NOT_COVERED_MESSAGE,
    NotCoveredError,
    aut_group,
    is_admissible,
)
from hassett.families import (
    CONSTRUCTIONS,
    SCHEDULE_SCHEMA,
    FamilySpec,
    InfeasibleFamilyError,
    blowup_schedule,
    classify_with_relabeling,
    factors_kapranov,
    feasible_representative,
    verify_keel_factorization,
)
from hassett.jsonio import Rendered, canonical_dumps, canonical_line
from hassett.strata import (
    _divisor_windows,
    contracted_divisors,
    divisor_tree,
    enumerate_boundary_divisors,
)
from hassett.weights import (
    InvalidWeightDataError,
    WeightData,
    _signature_sets,
    format_rational,
    require_valid,
    validate,
)


def _add_weight_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--genus", type=int, default=None, help="genus of the datum")
    sub.add_argument(
        "--weights",
        default=None,
        help="comma-separated rational weights, p/q or integer form",
    )
    sub.add_argument(
        "--input",
        default=None,
        metavar="FILE",
        help='weight-datum JSON file {"genus": g, "weights": ["1/3", ...]}',
    )


def _add_format_argument(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--format",
        choices=("json", "text"),
        default="json",
        help="output form (default json)",
    )


class _UsageError(Exception):
    """Arguments parsed but do not name a runnable request."""


def _load_weight_file(path: str) -> WeightData:
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _UsageError(f"{path} is not JSON: {exc}") from exc
    try:
        return WeightData.from_json_dict(payload)
    except ValueError as exc:
        raise _UsageError(f"{path}: {exc}") from exc


def _weights_from(args: argparse.Namespace) -> WeightData:
    if args.input is not None:
        if args.genus is not None or args.weights is not None:
            raise _UsageError("give either --input or --genus/--weights, not both")
        return _load_weight_file(args.input)
    if args.genus is None or args.weights is None:
        raise _UsageError("weight data needed: --genus and --weights, or --input")
    try:
        # an empty value is the datum with no markings
        tokens = args.weights.split(",") if args.weights else []
        return WeightData.from_strings(args.genus, tokens)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _emit(args: argparse.Namespace, obj: object, lines: Iterable[str]) -> None:
    """Write ``obj`` as canonical JSON, or ``lines`` as text; verbs with
    large outputs pass ``lines`` as a lazy iterable, unused in JSON mode."""
    if args.format == "json":
        sys.stdout.write(canonical_line(obj))
    else:
        sys.stdout.write("\n".join(lines) + "\n")


def _domain_error(args: argparse.Namespace, kind: str, message: str, **extra) -> int:
    payload = {"error": {"kind": kind, "message": message, **extra}}
    lines = [f"error: {message}"]
    lines.extend(f"{key}: {value}" for key, value in sorted(extra.items()) if value)
    _emit(args, payload, lines)
    return 1


def _index_set(s) -> list[int]:
    return sorted(s)


def _marking_tokens(n: int) -> tuple[str, ...]:
    """Marking k's output token, ``str(k)``, the same in both forms."""
    return tuple(map(str, range(1, n + 1)))


def _joined(
    rows: Sequence[Sequence[str]],
    sep: str,
    before: str = "",
    after: str = "",
    between: str = "\n",
) -> Iterator[str]:
    """Lazily, one piece: each row's tokens joined by ``sep`` and set
    between ``before`` and ``after``, the rows joined by ``between``; no
    piece for no rows. Each row is one ``str.join`` in C."""
    if rows:
        yield before + (after + between + before).join(map(sep.join, rows)) + after


def _json_array(pieces: Iterable[str]) -> Rendered:
    """The JSON array whose elements are the comma-joined pieces."""
    return Rendered(chain("[", [",".join(pieces)], "]"))


def _json_rows(rows: Sequence[Sequence[str]]) -> Rendered:
    """Rows of tokens as a JSON array of arrays."""
    return _json_array(_joined(rows, ",", "[", "]", ","))


# ---------------------------------------------------------------------------
# Verb handlers
# ---------------------------------------------------------------------------


def _cmd_validate(args: argparse.Namespace) -> int:
    w = _weights_from(args)
    report = validate(w, labels=_marking_tokens(w.n))
    walls = report.walls  # token tuples, in canonical order
    obj = {
        "ok": report.ok,
        "violations": list(report.violations),
        "walls": _json_rows(walls),
    }
    lines = chain(
        ["valid" if report.ok else "invalid"],
        (f"violation: {v}" for v in report.violations),
        _joined(walls, " ", "wall: "),
    )
    _emit(args, obj, lines)
    return 0 if report.ok else 1


def _cmd_signature(args: argparse.Namespace) -> int:
    w = _weights_from(args)
    require_valid(w)
    min_size = 3 if args.mode == "coarse" else 2
    ordered = _signature_sets(w, min_size, _marking_tokens(w.n))
    obj = {"mode": args.mode, "sets": _json_rows(ordered)}
    lines = chain(
        [f"{args.mode} signature: {len(ordered)} sets"], _joined(ordered, " ")
    )
    _emit(args, obj, lines)
    return 0


def _cmd_divisors(args: argparse.Namespace) -> int:
    w = _weights_from(args)
    require_valid(w)
    if args.trees and args.format == "json":
        items = []
        for d in enumerate_boundary_divisors(w):
            entry = d.to_json_dict()
            entry["tree"] = divisor_tree(w, d).to_json_dict()
            items.append(entry)
        _emit(args, {"divisors": items}, ())
        return 0
    # the text form has no trees
    nodal, irreducible, pairs = _divisor_windows(w, _marking_tokens(w.n))
    # each element as BoundaryDivisor.to_json_dict gives it, keys sorted
    nodal_json = '{{"genus_split":[{},{}],"kind":"nodal","side":['
    items = chain(
        *(
            _joined(sides, ",", nodal_json.format(*split), "]}", ",")
            for split, sides in nodal
        ),
        ['{"kind":"irreducible"}'] if irreducible else [],
        _joined(pairs, ",", '{"kind":"coincidence","pair":[', "]}", ","),
    )
    count = sum(len(sides) for _, sides in nodal) + irreducible + len(pairs)
    nodal_text = " | genus split {}+{}"
    lines = chain(
        [f"{count} boundary divisors"],
        *(
            _joined(sides, " ", "nodal: side ", nodal_text.format(*split))
            for split, sides in nodal
        ),
        ["irreducible node"] if irreducible else [],
        _joined(pairs, " ", "coincidence: "),
    )
    _emit(args, {"divisors": _json_array(items)}, lines)
    return 0


def _cmd_contract(args: argparse.Namespace) -> int:
    source = _load_weight_file(args.from_path)
    target = _load_weight_file(args.to_path)
    require_valid(source)
    require_valid(target)
    contractions = contracted_divisors(source, target)
    obj = {"contractions": [c.to_json_dict() for c in contractions]}
    lines = [f"{len(contractions)} contracted divisors"]
    lines.extend(
        "collapse side "
        + " ".join(map(str, _index_set(c.collapsed_side)))
        + f" | genus {c.collapsed_genus}"
        for c in contractions
    )
    _emit(args, obj, lines)
    return 0


def _cmd_admissible(args: argparse.Namespace) -> int:
    w = _weights_from(args)
    ok, witness = is_admissible(w, args.i, args.j, exclude_ij=args.strict_atrans)
    obj = {
        "admissible": ok,
        "witness": None if witness is None else _index_set(witness),
    }
    if ok:
        lines = [f"swap {args.i} {args.j}: admissible"]
    else:
        lines = [
            f"swap {args.i} {args.j}: not admissible; witness packet "
            + " ".join(map(str, _index_set(witness)))
        ]
    _emit(args, obj, lines)
    return 0


def _cmd_aut(args: argparse.Namespace) -> int:
    w = _weights_from(args)
    description = aut_group(w, exclude_ij=args.strict_atrans)
    obj = description.to_json_dict()
    lines = [f"label: {description.label}"]
    if description.special is not None:
        lines.append(f"special: {description.special}")
    if description.torus_rank is not None:
        lines.append(f"torus rank: {description.torus_rank}")
    if description.finite_order is not None:
        lines.append(f"finite order: {description.finite_order}")
    if description.stack_note is not None:
        lines.append(description.stack_note)
    lines.append(f"by: {description.provenance}")
    _emit(args, obj, lines)
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    w = _weights_from(args)
    require_valid(w)
    if w.genus != 0:
        raise _UsageError("classification is defined for genus zero")
    hit = classify_with_relabeling(w)
    obj = {
        "family": None if hit is None else hit[0].notation(),
        "relabeling": None if hit is None else list(hit[1]),
    }
    if hit is None:
        lines = ["no family matches"]
    else:
        lines = [
            f"family: {hit[0].notation()}",
            "slots: " + " ".join(map(str, hit[1])),
        ]
    _emit(args, obj, lines)
    return 0


def _cmd_factors_kapranov(args: argparse.Namespace) -> int:
    w = _weights_from(args)
    require_valid(w)
    result = factors_kapranov(w)
    _emit(
        args,
        {"factors_kapranov": result},
        ["factors through the one-heavy tower" if result else "does not factor"],
    )
    return 0


def _centers_json(centers: Sequence[tuple[str, ...] | str]) -> str:
    """A step's centers as the JSON array ``to_json_dict`` gives."""
    if str in map(type, centers):  # named loci
        return canonical_dumps([c if isinstance(c, str) else list(c) for c in centers])
    # spans of point labels: p1...pn need no escaping
    return "[" + "".join(_joined(centers, '","', '["', '"]', ",")) + "]"


def _centers_text(centers: Sequence[tuple[str, ...] | str]) -> str:
    if str in map(type, centers):  # named loci
        return "; ".join(
            c if isinstance(c, str) else "{" + " ".join(c) + "}" for c in centers
        )
    return "".join(_joined(centers, " ", "{", "}", "; "))


def _cmd_schedule(args: argparse.Namespace) -> int:
    schedule = blowup_schedule(args.construction, args.n)
    # to_json_dict's keys, with the steps built from the label tuples
    obj = {
        "schema": SCHEDULE_SCHEMA,
        "construction": schedule.construction,
        "n": schedule.n,
        "ambient": schedule.ambient,
        "steps": _json_array(
            f'{{"centers":{_centers_json(step.centers)},"step":{step.index}}}'
            for step in schedule.steps
        ),
    }
    lines = chain(
        [f"{schedule.construction} on {schedule.ambient}, n={schedule.n}"],
        (
            f"step {step.index}: {_centers_text(step.centers)}"
            for step in schedule.steps
        ),
    )
    _emit(args, obj, lines)
    return 0


def _cmd_verify_l1(args: argparse.Namespace) -> int:
    report = verify_keel_factorization(args.n)
    lines = [
        f"n={report['n']}: stages {report['range'][0]}..{report['range'][1]}",
    ]
    for check in report["checks"]:
        verdicts = ["reduces", "revalidated"] if check["reduces"] else ["NO REDUCTION"]
        if "fine_equivalent_to_kapranov_2_2" in check:
            verdicts.append(
                "exchange member matches"
                if check["fine_equivalent_to_kapranov_2_2"]
                else "EXCHANGE MISMATCH"
            )
        lines.append(f"h={check['h']}: " + ", ".join(verdicts))
    if "note" in report:
        lines.append(report["note"])
    lines.append("all pass" if report["all_pass"] else "FAILURES PRESENT")
    _emit(args, report, lines)
    return 0


def _cmd_feasible(args: argparse.Namespace) -> int:
    spec = FamilySpec.from_notation(args.family)
    try:
        witness = feasible_representative(spec).weights
    except InfeasibleFamilyError:
        # infeasibility is a result, not a failure
        witness = None
    obj = {
        "family": spec.notation(),
        "witness": None
        if witness is None
        else [format_rational(q) for q in witness],
    }
    if witness is None:
        lines = [f"{spec.notation()}: infeasible"]
    else:
        lines = [
            f"{spec.notation()}: "
            + " ".join(format_rational(q) for q in witness)
        ]
    _emit(args, obj, lines)
    return 0


# ---------------------------------------------------------------------------
# Parser assembly and entry point
# ---------------------------------------------------------------------------


def _add_signature_arguments(sub: argparse.ArgumentParser) -> None:
    _add_weight_arguments(sub)
    sub.add_argument(
        "--mode",
        choices=("fine", "coarse"),
        default="fine",
        help="fine keeps all small sets; coarse drops pairs (default fine)",
    )


def _add_divisors_arguments(sub: argparse.ArgumentParser) -> None:
    _add_weight_arguments(sub)
    sub.add_argument(
        "--trees",
        action="store_true",
        help="attach the dual graph of each divisor",
    )


def _add_contract_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--from",
        dest="from_path",
        required=True,
        metavar="FILE",
        help="source weight-datum JSON file",
    )
    sub.add_argument(
        "--to",
        dest="to_path",
        required=True,
        metavar="FILE",
        help="target weight-datum JSON file",
    )


def _add_strict_argument(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--strict-atrans",
        action="store_true",
        help="draw witness packets strictly away from the swapped pair",
    )


def _add_admissible_arguments(sub: argparse.ArgumentParser) -> None:
    _add_weight_arguments(sub)
    sub.add_argument("i", type=int, help="first marking, 1-based")
    sub.add_argument("j", type=int, help="second marking, 1-based")
    _add_strict_argument(sub)


def _add_aut_arguments(sub: argparse.ArgumentParser) -> None:
    _add_weight_arguments(sub)
    _add_strict_argument(sub)


def _add_marking_count_argument(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("n", type=int, help="number of markings")


def _add_schedule_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("construction", choices=CONSTRUCTIONS)
    _add_marking_count_argument(sub)


def _add_feasible_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "family",
        help='family notation, e.g. "kapranov:r=1,s=2,n=5" or "sym:k=1,n=6"',
    )


# verb -> (handler, help text, adder of the verb's own arguments), in the
# order ``hassett --help`` lists them
VERBS = {
    "validate": (
        _cmd_validate,
        "check a weight datum, report walls",
        _add_weight_arguments,
    ),
    "signature": (
        _cmd_signature,
        "chamber signature of a datum",
        _add_signature_arguments,
    ),
    "divisors": (
        _cmd_divisors,
        "enumerate boundary divisors",
        _add_divisors_arguments,
    ),
    "contract": (
        _cmd_contract,
        "divisors a reduction contracts",
        _add_contract_arguments,
    ),
    "admissible": (
        _cmd_admissible,
        "test a marking transposition",
        _add_admissible_arguments,
    ),
    "aut": (
        _cmd_aut,
        "describe the automorphism group",
        _add_aut_arguments,
    ),
    "classify": (
        _cmd_classify,
        "recognize a named family member",
        _add_weight_arguments,
    ),
    "factors-kapranov": (
        _cmd_factors_kapranov,
        "does the datum factor through the one-heavy tower",
        _add_weight_arguments,
    ),
    "schedule": (
        _cmd_schedule,
        "blow-up schedule of a construction",
        _add_schedule_arguments,
    ),
    "verify-l1": (
        _cmd_verify_l1,
        "verify the contraction-to-tower chain",
        _add_marking_count_argument,
    ),
    "feasible": (
        _cmd_feasible,
        "solve a family's condition system",
        _add_feasible_arguments,
    ),
}


def build_parser(names: Iterable[str] = VERBS) -> argparse.ArgumentParser:
    """The parser with a subparser for each named verb, by default all."""
    parser = argparse.ArgumentParser(
        prog="hassett",
        description=(
            "Exact combinatorics of moduli spaces of weighted pointed "
            "stable curves."
        ),
    )
    verbs = parser.add_subparsers(dest="verb", required=True, metavar="verb")
    for name in names:
        handler, help_text, add_arguments = VERBS[name]
        sub = verbs.add_parser(name, help=help_text)
        sub.set_defaults(handler=handler)
        _add_format_argument(sub)
        add_arguments(sub)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # A leading verb name is all the parser needs; anything else (help,
    # no argument, an unknown verb, an option first) gets every verb.
    names = argv[:1] if argv and argv[0] in VERBS else VERBS
    parser = build_parser(names)
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except _UsageError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    except NotCoveredError as exc:
        return _domain_error(
            args, "not-covered", NOT_COVERED_MESSAGE, detail=exc.detail
        )
    except InvalidWeightDataError as exc:
        return _domain_error(args, "invalid-weight-data", str(exc))
    except InfeasibleFamilyError as exc:
        return _domain_error(args, "infeasible-family", str(exc))
    except ValueError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
