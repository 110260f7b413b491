"""Command-line front end.

Every verb maps to exactly one engine operation and runs batch,
single-shot. Results go to standard output; JSON output is canonical
(sorted keys, no optional whitespace, lowest-term rationals), so identical
inputs produce byte-identical bytes.

The verbs that list sets (``signature``, ``validate`` and ``divisors``)
hand the engine's kernel windows and each marking's output token
(``"1"``...``"n"``) to :func:`hassett.kernels.render_small_subsets`, which
builds the form asked for straight from the window search, with no tuple
per set. ``schedule`` does the same with the point labels of each
``kblu`` and ``kblusym`` step: the step's spec
(:data:`hassett.families.SpanStep`) is every subset of a label pool, the
all-zero window, followed by a fixed chain. ``divisors --trees`` in JSON
takes each side and pair from the kernel as a token tuple and fills it
into one template per tree shape, built once through
:func:`hassett.strata._divisor_tree`; no divisor or tree object is built
per divisor. ``contract`` fills the two sides of each contraction into
one template, the JSON of its first. The JSON text reaches
:func:`~hassett.jsonio.canonical_line` as a
:class:`~hassett.jsonio.Rendered` value, and no integer is encoded one by
one.

A leading verb builds one parser, the verb's own, with the help width
read once; anything else, or an argument the verb does not take, goes to
the full parser (:func:`build_parser`), which prints the usage error.

Exit status: 0 on success, 1 on domain errors (invalid weight data, weight
data no covering theorem applies to, infeasible family systems) with a
machine-readable error object on standard output, 2 on usage errors with a
message on standard error.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from collections.abc import Iterable, Sequence
from functools import partial

from hassett import kernels
from hassett.autgroup import (
    NOT_COVERED_MESSAGE,
    NotCoveredError,
    aut_group,
    is_admissible,
)
from hassett.families import (
    AMBIENTS,
    CONSTRUCTIONS,
    SCHEDULE_SCHEMA,
    FamilySpec,
    InfeasibleFamilyError,
    SpanStep,
    _span_specs,
    blowup_schedule,
    classify_with_relabeling,
    factors_kapranov,
    feasible_representative,
    verify_keel_factorization,
)
from hassett.jsonio import Rendered, canonical_dumps, canonical_line
from hassett.strata import (
    BoundaryDivisor,
    _divisor_tree,
    _divisor_windows,
    contracted_divisors,
)
from hassett.weights import (
    InvalidWeightDataError,
    WeightData,
    _signature_window,
    _wall_windows,
    format_rational,
    require_valid,
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
    except (json.JSONDecodeError, RecursionError) as exc:  # too deeply nested
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


def _marking_tokens(n: int) -> tuple[str, ...]:
    """Marking k's output token, ``str(k)``, the same in both forms."""
    return tuple(map(str, range(1, n + 1)))


def _rows(
    windows: Iterable[tuple], sep: str, before: str, after: str, between: str
) -> tuple[list[str], int]:
    """The sets of kernel windows as text, and how many there are: each
    set's tokens joined by ``sep`` and set between ``before`` and
    ``after``, the sets joined by ``between``
    (:func:`hassett.kernels.render_small_subsets`). The text comes as
    fragments to concatenate, ``between`` first, so that it is copied
    only into the line that holds it."""
    fragments, count = [], 0
    for window in windows:
        text, rows = kernels.render_small_subsets(
            *window, sep=sep, rowsep=after + between + before
        )
        if rows:
            fragments += (between, before, text, after)
            count += rows
    return fragments, count


def _json_rows(fragments: list[str]) -> Rendered:
    """The JSON array of the elements that :func:`_rows` (with ``between``
    a comma) lists."""
    return Rendered(["[", *fragments[1:], "]"])


# ---------------------------------------------------------------------------
# Verb handlers
# ---------------------------------------------------------------------------


def _cmd_validate(args: argparse.Namespace) -> int:
    w = _weights_from(args)
    problems, windows = _wall_windows(w, _marking_tokens(w.n))
    if args.format == "json":
        walls, _ = _rows(windows, ",", "[", "]", ",")
        obj = {"ok": not problems, "violations": problems, "walls": _json_rows(walls)}
        lines: list[str] = []
    else:
        walls, _ = _rows(windows, " ", "wall: ", "", "\n")
        head = ["invalid" if problems else "valid"]
        head += [f"violation: {v}" for v in problems]
        obj, lines = None, ["".join(["\n".join(head), *walls])]
    _emit(args, obj, lines)
    return 1 if problems else 0


def _cmd_signature(args: argparse.Namespace) -> int:
    w = _weights_from(args)
    require_valid(w)
    min_size = 3 if args.mode == "coarse" else 2
    windows = [_signature_window(w, min_size, _marking_tokens(w.n))]
    if args.format == "json":
        sets, _ = _rows(windows, ",", "[", "]", ",")
        obj, lines = {"mode": args.mode, "sets": _json_rows(sets)}, []
    else:
        sets, count = _rows(windows, " ", "", "", "\n")
        obj, lines = None, ["".join([f"{args.mode} signature: {count} sets", *sets])]
    _emit(args, obj, lines)
    return 0


# a hole in an entry's template: its JSON text, "\u0000", is in no entry
_HOLE = "\0"


def _entry_template(w: WeightData, d: BoundaryDivisor) -> list[str]:
    """The ``divisors --trees`` JSON element of divisor ``d`` with its dual
    graph, cut at the holes every divisor of its shape fills in: a nodal
    divisor's side and marking map, a coincidence divisor's pair (twice),
    none for the irreducible node. The tree is built by
    :func:`~hassett.strata._divisor_tree`, so :class:`StableTree` checks
    each shape the verb prints."""
    tree = _divisor_tree(w, d).to_json_dict()
    entry = d.to_json_dict()
    if d.kind == "nodal":
        entry["side"] = tree["markings"] = _HOLE
    elif d.kind == "coincidence":
        entry["pair"], tree["clusters"] = _HOLE, [[_HOLE]]
    entry["tree"] = tree
    return canonical_dumps(entry).split(canonical_dumps(_HOLE))


def _tree_entries(w: WeightData) -> list[str]:
    """The JSON elements of ``divisors --trees``, in the order of
    :func:`~hassett.strata.enumerate_boundary_divisors`, each filled into
    the template of its shape (:func:`_entry_template`), which the first
    divisor of the shape builds: the sides and pairs are token tuples from
    the kernel windows of :func:`~hassett.strata._divisor_windows`, and no
    divisor or tree object is built per divisor. A nodal tree has the
    side's markings on vertex 0 and the rest on vertex 1, its map keyed in
    string order, as canonical JSON sorts keys."""
    tokens = _marking_tokens(w.n)
    nodal, irreducible, pairs = _divisor_windows(w, tokens)
    keys = sorted(tokens)
    slot = {key: i for i, key in enumerate(keys)}
    away = [f'"{key}":1' for key in keys]
    near = [f'"{key}":0' for key in keys]
    entries = []
    for split, windows in nodal:
        sides = [
            side
            for window in windows
            for side in kernels.enumerate_small_subsets(*window)
        ]
        if not sides:
            continue
        first = BoundaryDivisor("nodal", tuple(map(int, sides[0])), split)
        before, middle, after = _entry_template(w, first)
        for side in sides:
            row = away.copy()
            for i in map(slot.__getitem__, side):
                row[i] = near[i]
            entries.append(
                f"{before}[{','.join(side)}]{middle}{{{','.join(row)}}}{after}"
            )
    if irreducible:
        entries += _entry_template(w, BoundaryDivisor(kind="irreducible"))
    pairs = kernels.enumerate_small_subsets(*pairs)
    if pairs:
        first = BoundaryDivisor(kind="coincidence", pair=tuple(map(int, pairs[0])))
        template = _entry_template(w, first)
        entries += (f"[{a},{b}]".join(template) for a, b in pairs)
    return entries


def _cmd_divisors(args: argparse.Namespace) -> int:
    w = _weights_from(args)
    require_valid(w)
    if args.trees and args.format == "json":
        entries = _tree_entries(w)
        _emit(args, {"divisors": Rendered(["[", ",".join(entries), "]"])}, ())
        return 0
    # the text form has no trees
    nodal, irreducible, pairs = _divisor_windows(w, _marking_tokens(w.n))
    if args.format == "json":
        # each element as BoundaryDivisor.to_json_dict gives it, keys sorted
        sep, between = ",", ","
        side = ('{{"genus_split":[{},{}],"kind":"nodal","side":[', "]}}")
        node, pair = '{"kind":"irreducible"}', ('{"kind":"coincidence","pair":[', "]}")
    else:
        sep, between = " ", "\n"
        side = ("nodal: side ", " | genus split {}+{}")
        node, pair = "irreducible node", ("coincidence: ", "")
    items, count = [], 0
    for split, windows in nodal:
        more, rows = _rows(
            windows, sep, side[0].format(*split), side[1].format(*split), between
        )
        items += more
        count += rows
    if irreducible:
        items += (between, node)
        count += 1
    more, rows = _rows([pairs], sep, *pair, between)
    items += more
    count += rows
    if args.format == "json":
        _emit(args, {"divisors": _json_rows(items)}, ())
    else:
        _emit(args, None, ["".join([f"{count} boundary divisors", *items])])
    return 0


def _cmd_contract(args: argparse.Namespace) -> int:
    source = _load_weight_file(args.from_path)
    target = _load_weight_file(args.to_path)
    require_valid(source)
    require_valid(target)
    contractions = contracted_divisors(source, target)
    if args.format == "json":
        # each element as Contraction.to_json_dict gives it, keys sorted; the
        # contractions of one reduction differ only in their two sides
        entries = []
        if contractions:
            entry = contractions[0].to_json_dict()
            entry["collapsed_side"] = entry["divisor"]["side"] = _HOLE
            before, middle, after = canonical_dumps(entry).split(canonical_dumps(_HOLE))
            entries = [
                f"{before}[{','.join(map(str, c.collapsed_side))}]{middle}"
                f"[{','.join(map(str, c.divisor.side))}]{after}"
                for c in contractions
            ]
        obj, lines = {"contractions": Rendered(["[", ",".join(entries), "]"])}, []
    else:
        obj, lines = None, [f"{len(contractions)} contracted divisors"]
        for c in contractions:
            side = " ".join(map(str, c.collapsed_side))
            lines.append(f"collapse side {side} | genus {c.collapsed_genus}")
    _emit(args, obj, lines)
    return 0


def _cmd_admissible(args: argparse.Namespace) -> int:
    w = _weights_from(args)
    ok, witness = is_admissible(w, args.i, args.j, exclude_ij=args.strict_atrans)
    obj = {
        "admissible": ok,
        "witness": None if witness is None else list(witness),
    }
    if ok:
        lines = [f"swap {args.i} {args.j}: admissible"]
    else:
        lines = [
            f"swap {args.i} {args.j}: not admissible; witness packet "
            + " ".join(map(str, witness))
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


def _span_centers(
    step: SpanStep, sep: str, before: str, after: str, between: str
) -> list[str]:
    """A point-span step's centers as text fragments to concatenate: each
    center's labels joined by ``sep`` and set between ``before`` and
    ``after``, the centers joined by ``between``. The subsets of the pool
    are the all-zero window (-1, 0] (:func:`_rows`), by size and then
    lexicographically, with the chain in their row separator; the bare
    chain, the empty subset's center, comes first."""
    _, pool, min_size, max_size, chain = step
    fragments = []
    if min_size == 0:
        fragments += (between, before + sep.join(chain) + after)
    window = ([0] * len(pool), -1, 0, max(min_size, 1), max_size, pool)
    tail = "".join(sep + label for label in chain)
    more, _ = _rows([window], sep, before, tail + after, between)
    return (fragments + more)[1:]


def _cmd_schedule(args: argparse.Namespace) -> int:
    construction, n = args.construction, args.n
    specs = _span_specs(construction, n)
    # (step index, its centers' text as fragments): con2's named loci from
    # the library's steps, the point spans from their specs
    named = [] if specs is not None else blowup_schedule(construction, n).steps
    ambient = AMBIENTS[construction]
    if args.format == "json":
        steps = [(s.index, [canonical_dumps(list(s.centers))]) for s in named]
        steps += (
            (spec[0], ["[", *_span_centers(spec, '","', '["', '"]', ","), "]"])
            for spec in specs or ()
        )
        pieces = []
        for index, centers in steps:
            pieces += (",", '{"centers":', *centers, f',"step":{index}}}')
        # BlowupSchedule.to_json_dict's keys
        obj = {
            "schema": SCHEDULE_SCHEMA,
            "construction": construction,
            "n": n,
            "ambient": ambient,
            "steps": _json_rows(pieces),
        }
        _emit(args, obj, ())
    else:
        steps = [(s.index, ["; ".join(s.centers)]) for s in named]
        steps += (
            (spec[0], _span_centers(spec, " ", "{", "}", "; ")) for spec in specs or ()
        )
        pieces = [f"{construction} on {ambient}, n={n}"]
        for index, centers in steps:
            pieces += (f"\nstep {index}: ", *centers)
        _emit(args, None, ["".join(pieces)])
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
