"""Command-line front end.

Every verb maps to exactly one engine operation and runs batch,
single-shot. Results go to standard output; JSON output is canonical
(sorted keys, no optional whitespace, lowest-term rationals), so identical
inputs produce byte-identical bytes. This module parses, dispatches, maps
errors to exit codes and writes; :mod:`hassett.render` prints the answers.

Each verb's arguments are declared once, as rows of :data:`VERBS`: name,
dest, converter, choices, default, required, help and metavar, in
``add_argument`` keywords. A valid run builds no parser: :func:`_read_argv`
reads the namespace off the rows when every token is an exact option of
the verb followed by its value, an exact flag or a positional, and every
conversion, choice and required option holds. Anything else (help,
abbreviated options, ``--opt=value``, ``--``, values starting with "-", a
missing or extra argument, every usage error) goes to the full parser,
:func:`build_parser`, built from the same rows, which answers as argparse
does.

Exit status: 0 on success, 1 on domain errors (invalid weight data, weight
data no covering theorem applies to, infeasible family systems) with a
machine-readable error object on standard output, 2 on usage errors with a
message on standard error. An infeasible family system is always the
``infeasible-family`` error of :func:`_run`, never a printed answer.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence

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
from hassett.weights import _INTEGER_RE, InvalidWeightDataError, WeightData, require_valid


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
# Argument table, parsing and entry point
# ---------------------------------------------------------------------------


def _integer(text: str) -> int:
    """An integer argument: ASCII digits after an optional sign, as in
    :func:`hassett.weights.parse_rational`."""
    if _INTEGER_RE.fullmatch(text.strip()) is None:
        # argparse's own wording for a value ``type=int`` refuses
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


# Each argument is one ``(name, add_argument keywords)`` row: an option
# (``--name``, with its ``dest``), a flag (``action="store_true"``) or a
# positional (its name is its dest). build_parser() hands every row to
# argparse; _read_argv() reads the same rows.
_FORMAT = (
    "--format",
    dict(
        dest="format", choices=("json", "text"), default="json", help="output form (default json)"
    ),
)
_WEIGHT_ARGUMENTS = (
    ("--genus", dict(dest="genus", type=_integer, help="genus of the datum")),
    (
        "--weights",
        dict(dest="weights", help="comma-separated rational weights, p/q or integer form"),
    ),
    (
        "--input",
        dict(
            dest="input",
            metavar="FILE",
            help='weight-datum JSON file {"genus": g, "weights": ["1/3", ...]}',
        ),
    ),
)
_STRICT = (
    "--strict-atrans",
    dict(
        dest="strict_atrans",
        action="store_true",
        default=False,
        help="draw witness packets strictly away from the swapped pair",
    ),
)
_MARKING_COUNT = ("n", dict(type=_integer, help="number of markings"))

# verb -> (handler, help text, the verb's arguments after --format), in the
# order ``hassett --help`` lists them
VERBS = {
    "validate": (_cmd_validate, "check a weight datum, report walls", _WEIGHT_ARGUMENTS),
    "signature": (
        _cmd_signature,
        "chamber signature of a datum",
        (
            *_WEIGHT_ARGUMENTS,
            (
                "--mode",
                dict(
                    dest="mode",
                    choices=("fine", "coarse"),
                    default="fine",
                    help="fine keeps all small sets; coarse drops pairs (default fine)",
                ),
            ),
        ),
    ),
    "divisors": (
        _cmd_divisors,
        "enumerate boundary divisors",
        (
            *_WEIGHT_ARGUMENTS,
            (
                "--trees",
                dict(
                    dest="trees",
                    action="store_true",
                    default=False,
                    help="attach the dual graph of each divisor (JSON output only)",
                ),
            ),
        ),
    ),
    "contract": (
        _cmd_contract,
        "divisors a reduction contracts",
        (
            (
                "--from",
                dict(
                    dest="from_path",
                    required=True,
                    metavar="FILE",
                    help="source weight-datum JSON file",
                ),
            ),
            (
                "--to",
                dict(
                    dest="to_path",
                    required=True,
                    metavar="FILE",
                    help="target weight-datum JSON file",
                ),
            ),
        ),
    ),
    "admissible": (
        _cmd_admissible,
        "test a marking transposition",
        (
            *_WEIGHT_ARGUMENTS,
            ("i", dict(type=_integer, help="first marking, 1-based")),
            ("j", dict(type=_integer, help="second marking, 1-based")),
            _STRICT,
        ),
    ),
    "aut": (_cmd_aut, "describe the automorphism group", (*_WEIGHT_ARGUMENTS, _STRICT)),
    "classify": (_cmd_classify, "recognize a named family member", _WEIGHT_ARGUMENTS),
    "factors-kapranov": (
        _cmd_factors_kapranov,
        "does the datum factor through the one-heavy tower",
        _WEIGHT_ARGUMENTS,
    ),
    "schedule": (
        _cmd_schedule,
        "blow-up schedule of a construction",
        (("construction", dict(choices=CONSTRUCTIONS)), _MARKING_COUNT),
    ),
    "verify-l1": (_cmd_verify_l1, "verify the contraction-to-tower chain", (_MARKING_COUNT,)),
    "feasible": (
        _cmd_feasible,
        "solve a family's condition system",
        (("family", dict(help='family notation, e.g. "kapranov:r=1,s=2,n=5" or "sym:k=1,n=6"')),),
    ),
}


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
    for name, (handler, help_text, arguments) in VERBS.items():
        sub = verbs.add_parser(name, help=help_text)
        sub.set_defaults(handler=handler)
        for flag_or_name, keywords in (_FORMAT, *arguments):
            sub.add_argument(flag_or_name, **keywords)
    return parser


def _read_argv(verb: str, tokens: Sequence[str]) -> argparse.Namespace | None:
    """The namespace ``build_parser().parse_args([verb, *tokens])`` gives,
    without ``verb``, read off the verb's rows; None unless every token is
    an exact option of the verb followed by a value not starting with
    "-", an exact flag, or a positional not starting with "-", with every
    positional, conversion, choice and required option met. Help,
    abbreviations, ``--opt=value``, ``--``, values starting with "-" and
    every usage error are the full parser's to answer."""
    handler, _, arguments = VERBS[verb]
    arguments = (_FORMAT, *arguments)
    options = {name: keywords for name, keywords in arguments if name[0] == "-"}
    positionals = [(name, keywords) for name, keywords in arguments if name[0] != "-"]
    read = {}
    given = iter(tokens)
    for token in given:
        if token[:1] != "-":
            if not positionals:
                return None
            dest, keywords = positionals.pop(0)
            value = token
        else:
            keywords = options.get(token)
            if keywords is None or keywords["dest"] in read:
                return None
            dest = keywords["dest"]
            if keywords.get("action") == "store_true":
                read[dest] = True
                continue
            value = next(given, "-")
            if value[:1] == "-":
                return None
        if "type" in keywords:
            try:
                value = keywords["type"](value)
            except argparse.ArgumentTypeError:
                return None
        choices = keywords.get("choices")
        if choices is not None and value not in choices:
            return None
        read[dest] = value
    if positionals:
        return None
    for name, keywords in arguments:
        dest = keywords.get("dest", name)
        if dest not in read:
            if keywords.get("required"):
                return None
            read[dest] = keywords.get("default")
    return argparse.Namespace(handler=handler, **read)


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv[0], argv[1:]) if argv and argv[0] in VERBS else None
    if args is None:  # the full parser prints help and usage errors
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
