"""Command-line front end.

Every verb maps to exactly one engine operation and runs batch,
single-shot. Results go to standard output; JSON output is canonical
(sorted keys, no optional whitespace, lowest-term rationals), so identical
inputs produce byte-identical bytes. This module parses, dispatches, maps
errors to exit codes and writes; :mod:`hassett.render` prints the answers.

A leading verb builds one parser, the verb's own, with the help width
read once; anything else, or an argument the verb does not take, goes to
the full parser (:func:`build_parser`), which prints the usage error.

Exit status: 0 on success, 1 on domain errors (invalid weight data, weight
data no covering theorem applies to, infeasible family systems) with a
machine-readable error object on standard output, 2 on usage errors with a
message on standard error. An infeasible family system is always the
``infeasible-family`` error of :func:`_run`, never a printed answer.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from collections.abc import Sequence
from functools import partial

from hassett import render
from hassett.autgroup import (
    NOT_COVERED_MESSAGE,
    NotCoveredError,
    aut_group,
    is_admissible,
)
from hassett.families import (
    CONSTRUCTIONS,
    FamilySpec,
    InfeasibleFamilyError,
    classify_with_relabeling,
    factors_kapranov,
    feasible_representative,
    verify_keel_factorization,
)
from hassett.jsonio import canonical_line
from hassett.strata import contracted_divisors
from hassett.weights import InvalidWeightDataError, WeightData, require_valid


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
    # JSON text is UTF-8; a RecursionError is nesting too deep to decode
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
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


def _emit(args: argparse.Namespace, printed: object) -> int:
    """Write an answer (a JSON object or text lines); its exit status is 0."""
    if args.format == "json":
        sys.stdout.write(canonical_line(printed))
    else:
        sys.stdout.write("\n".join(printed) + "\n")
    return 0


def _domain_error(args: argparse.Namespace, kind: str, message: str, **extra) -> int:
    payload = {"error": {"kind": kind, "message": message, **extra}}
    lines = [f"error: {message}"]
    lines.extend(f"{key}: {value}" for key, value in sorted(extra.items()) if value)
    _emit(args, payload if args.format == "json" else lines)
    return 1


# ---------------------------------------------------------------------------
# Verb handlers
# ---------------------------------------------------------------------------


def _cmd_validate(args: argparse.Namespace) -> int:
    w = _weights_from(args)
    _emit(args, render.validate(w, args.format))
    return 1 if w.violations else 0


def _cmd_signature(args: argparse.Namespace) -> int:
    w = _weights_from(args)
    require_valid(w)
    return _emit(args, render.signature(w, args.mode, args.format))


def _cmd_divisors(args: argparse.Namespace) -> int:
    w = _weights_from(args)
    require_valid(w)
    return _emit(args, render.divisors(w, args.trees, args.format))


def _cmd_contract(args: argparse.Namespace) -> int:
    source = _load_weight_file(args.from_path)
    target = _load_weight_file(args.to_path)
    require_valid(source)
    require_valid(target)
    contractions = contracted_divisors(source, target)
    return _emit(args, render.contractions(contractions, args.format))


def _cmd_admissible(args: argparse.Namespace) -> int:
    w = _weights_from(args)
    ok, witness = is_admissible(w, args.i, args.j, exclude_ij=args.strict_atrans)
    return _emit(args, render.admissible(args.i, args.j, ok, witness, args.format))


def _cmd_aut(args: argparse.Namespace) -> int:
    w = _weights_from(args)
    description = aut_group(w, exclude_ij=args.strict_atrans)
    return _emit(args, render.aut(description, args.format))


def _cmd_classify(args: argparse.Namespace) -> int:
    w = _weights_from(args)
    return _emit(args, render.classify(classify_with_relabeling(w), args.format))


def _cmd_factors_kapranov(args: argparse.Namespace) -> int:
    w = _weights_from(args)
    require_valid(w)
    return _emit(args, render.factors_kapranov(factors_kapranov(w), args.format))


def _cmd_schedule(args: argparse.Namespace) -> int:
    return _emit(args, render.schedule(args.construction, args.n, args.format))


def _cmd_verify_l1(args: argparse.Namespace) -> int:
    report = verify_keel_factorization(args.n)
    return _emit(args, render.verify_l1(report, args.format))


def _cmd_feasible(args: argparse.Namespace) -> int:
    spec = FamilySpec.from_notation(args.family)
    witness = feasible_representative(spec).weights
    return _emit(args, render.feasible(spec, witness, args.format))


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
        help="attach the dual graph of each divisor (JSON output only)",
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


def _add_verb_arguments(parser: argparse.ArgumentParser, name: str) -> None:
    """The verb's handler, ``--format`` and the verb's own arguments."""
    handler, _, add_arguments = VERBS[name]
    parser.set_defaults(handler=handler)
    _add_format_argument(parser)
    add_arguments(parser)


def build_parser() -> argparse.ArgumentParser:
    """The parser with a subparser for every verb."""
    parser = argparse.ArgumentParser(
        prog="hassett",
        description=(
            "Exact combinatorics of moduli spaces of weighted pointed "
            "stable curves."
        ),
    )
    verbs = parser.add_subparsers(dest="verb", required=True, metavar="verb")
    for name in VERBS:
        _add_verb_arguments(verbs.add_parser(name, help=VERBS[name][1]), name)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args, extra = None, ()
    if argv and argv[0] in VERBS:
        # argparse reads the width for the formatter of every add_argument
        width = shutil.get_terminal_size().columns - 2
        parser = argparse.ArgumentParser(
            prog=f"hassett {argv[0]}",
            formatter_class=partial(argparse.HelpFormatter, width=width),
        )
        _add_verb_arguments(parser, argv[0])
        args, extra = parser.parse_known_args(argv[1:])
    if args is None or extra:  # the full parser prints the usage error
        args = build_parser().parse_args(argv)
    return _run(args)


def _run(args: argparse.Namespace) -> int:
    """Run a parsed request's verb, mapping its errors to exit codes."""
    try:
        return args.handler(args)
    except NotCoveredError as exc:
        return _domain_error(
            args, "not-covered", NOT_COVERED_MESSAGE, detail=exc.detail
        )
    except InvalidWeightDataError as exc:
        return _domain_error(args, "invalid-weight-data", str(exc))
    except InfeasibleFamilyError as exc:
        return _domain_error(args, "infeasible-family", str(exc))
    except (_UsageError, ValueError) as exc:
        print(f"hassett: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
