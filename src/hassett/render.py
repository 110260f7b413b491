"""The printed form of each verb's answer.

One function per verb takes what the verb computed (for the verbs that
list sets, the datum) and the output form, and builds that form only: for
``"json"`` the object :func:`~hassett.jsonio.canonical_line` prints, for
``"text"`` the lines. :mod:`hassett.cli` writes it.

Sets are listed straight from the engine's kernel windows by
:func:`hassett.kernels.render_small_subsets`, with no tuple per set and no
integer encoded one by one: the sets of ``signature``, ``validate`` and
``divisors`` with each marking's output token (``"1"``...``"n"``), the
centers of a ``kblu`` or ``kblusym`` step with the point labels of its
spec (:data:`hassett.families.SpanStep`: every subset of a label pool,
the all-zero window, then a fixed chain). In JSON those labels arrive
already encoded (``'"p1"'``), so a center is its labels joined by ``,``
between ``[`` and ``]``, like a set of markings: the row separator then
ends in a ``[`` that no label holds, and the kernel joins the rows with
it directly (see :func:`~hassett.kernels.render_small_subsets`). JSON
text is passed on as a :class:`~hassett.jsonio.Rendered` value.

A boundary divisor, a contraction, a dual graph or a blow-up schedule is
printed as the canonical text of its own ``to_json_dict``, made once per
shape from an object holding a hole (``"\\0"``, in no printed value)
wherever the elements of the shape differ, and cut there (:func:`_cut`);
each element fills the holes with its sides, pairs or centers.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import replace

from hassett import kernels
from hassett.autgroup import AutDescription
from hassett.families import AMBIENTS, BlowupSchedule, BlowupStep, FamilySpec, SpanStep
from hassett.families import _span_specs, blowup_schedule
from hassett.jsonio import Rendered, canonical_dumps
from hassett.strata import BoundaryDivisor, Contraction, _divisor_tree, _divisor_windows
from hassett.weights import WeightData, _signature_window, _wall_windows
from hassett.weights import format_rational

_HOLE = "\0"


def _cut(obj: object) -> list[str]:
    """``obj``'s canonical JSON cut at its holes, in key order."""
    return canonical_dumps(obj).split(canonical_dumps(_HOLE))


def _tokens(n: int) -> tuple[str, ...]:
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


def _array(fragments: list[str]) -> Rendered:
    """The JSON array of what :func:`_rows`, ``between`` a comma, lists."""
    return Rendered(["[", *fragments[1:], "]"])


def validate(w: WeightData, fmt: str) -> object:
    """``validate``: the inequalities the datum breaks, and its walls."""
    problems, windows = _wall_windows(w, _tokens(w.n))
    if fmt == "json":
        walls, _ = _rows(windows, ",", "[", "]", ",")
        return {"ok": not problems, "violations": problems, "walls": _array(walls)}
    walls, _ = _rows(windows, " ", "wall: ", "", "\n")
    head = ["invalid" if problems else "valid"]
    head += [f"violation: {v}" for v in problems]
    return ["".join(["\n".join(head), *walls])]


def signature(w: WeightData, mode: str, fmt: str) -> object:
    """``signature``: a valid datum's fine or coarse chamber signature."""
    min_size = 3 if mode == "coarse" else 2
    windows = [_signature_window(w, min_size, _tokens(w.n))]
    if fmt == "json":
        sets, _ = _rows(windows, ",", "[", "]", ",")
        return {"mode": mode, "sets": _array(sets)}
    sets, count = _rows(windows, " ", "", "", "\n")
    return ["".join([f"{mode} signature: {count} sets", *sets])]


def divisors(w: WeightData, trees: bool, fmt: str) -> object:
    """``divisors``: a valid datum's boundary divisors from the windows of
    :func:`~hassett.strata._divisor_windows`, each JSON element filled into
    its shape's :func:`_template`. The text form has no trees."""
    nodal, irreducible, pairs = _divisor_windows(w, _tokens(w.n))
    if fmt == "json" and trees:
        entries = _tree_entries(w, nodal, irreducible, pairs)
        return {"divisors": Rendered(["[", ",".join(entries), "]"])}
    if fmt == "json":
        between, sep = ",", ","
        (node,) = _template(w, BoundaryDivisor(kind="irreducible"))
        pair = _template(w, BoundaryDivisor("coincidence", pair=(_HOLE, _HOLE)))
    else:
        between, sep = "\n", " "
        node, pair = "irreducible node", ["coincidence: ", " ", ""]
    items, count = [], 0
    for split, windows in nodal:
        if fmt == "json":
            side = _template(w, BoundaryDivisor("nodal", (_HOLE,), split))
        else:
            side = ["nodal: side ", " | genus split {}+{}".format(*split)]
        more, rows = _rows(windows, sep, *side, between)
        items += more
        count += rows
    if irreducible:
        items += (between, node)
        count += 1
    before, pair_sep, after = pair
    more, rows = _rows([pairs], pair_sep, before, after, between)
    items += more
    count += rows
    if fmt == "json":
        return {"divisors": _array(items)}
    return ["".join([f"{count} boundary divisors", *items])]


def _template(w: WeightData, divisor, trees=False, pair=()) -> list[str]:
    """A divisor shape's JSON element cut at its holes (a nodal side, the
    two of a pair). With ``trees`` it holds under ``"tree"`` the dual graph
    :func:`~hassett.strata._divisor_tree` builds (a coincidence's from
    ``pair``), so :class:`StableTree` checks it; the graph's value that
    differs within the shape, which StableTree rejects a hole in, is made
    one after."""
    entry = divisor.to_json_dict()
    if trees and divisor.kind == "coincidence":
        entry["tree"] = _divisor_tree(w, replace(divisor, pair=pair)).to_json_dict()
        entry["tree"]["clusters"] = [[divisor.pair]]
    elif trees:
        entry["tree"] = _divisor_tree(w, divisor).to_json_dict()
        if divisor.kind == "nodal":
            entry["tree"]["markings"] = _HOLE
    return _cut(entry)


def _tree_entries(w: WeightData, nodal, irreducible, pairs) -> list[str]:
    """The JSON elements of ``divisors --trees``, token tuples from the
    kernel windows filled into their shape's :func:`_template`; a nodal
    tree's marking map, keyed in string order, sends the side to vertex 0."""
    keys = sorted(_tokens(w.n))
    slot = {key: i for i, key in enumerate(keys)}
    away = [f'"{key}":1' for key in keys]
    near = [f'"{key}":0' for key in keys]
    entries = []
    for split, windows in nodal:
        sides = [s for win in windows for s in kernels.enumerate_small_subsets(*win)]
        if not sides:
            continue
        divisor = BoundaryDivisor("nodal", (_HOLE,), split)
        before, middle, after = _template(w, divisor, True)
        for side in sides:
            row = away.copy()
            for i in map(slot.__getitem__, side):
                row[i] = near[i]
            marks = ",".join(row)
            entries.append(f"{before}{','.join(side)}{middle}{{{marks}}}{after}")
    if irreducible:
        entries += _template(w, BoundaryDivisor(kind="irreducible"), True)
    pairs = kernels.enumerate_small_subsets(*pairs)
    if pairs:
        divisor = BoundaryDivisor("coincidence", pair=(_HOLE, _HOLE))
        p0, p1, p2, p3, p4 = _template(w, divisor, True, tuple(map(int, pairs[0])))
        entries += (f"{p0}{a}{p1}{b}{p2}{a}{p3}{b}{p4}" for a, b in pairs)
    return entries


def contractions(found: Sequence[Contraction], fmt: str) -> object:
    """``contract``: the divisors a reduction contracts, which differ only
    in their two sides, the holes of the first one's :class:`Contraction`;
    canonical JSON sorts keys, so the collapsed side's hole comes first."""
    if fmt == "text":
        lines = [f"{len(found)} contracted divisors"]
        for c in found:
            side = " ".join(map(str, c.collapsed_side))
            lines.append(f"collapse side {side} | genus {c.collapsed_genus}")
        return lines
    entries = []
    if found:
        first = found[0]
        divisor = replace(first.divisor, side=(_HOLE,))
        template = Contraction(divisor, (_HOLE,), first.collapsed_genus)
        before, middle, after = _cut(template.to_json_dict())
        entries = [
            f"{before}{','.join(map(str, c.collapsed_side))}{middle}"
            f"{','.join(map(str, c.divisor.side))}{after}"
            for c in found
        ]
    return {"contractions": Rendered(["[", ",".join(entries), "]"])}


def _span_centers(
    step: SpanStep,
    encode: Callable[[str], str],
    sep: str,
    before: str,
    after: str,
    between: str,
) -> list[str]:
    """A point-span step's centers as text fragments to concatenate: each
    center's labels, each written by ``encode``, joined by ``sep`` and set
    between ``before`` and ``after``, the centers joined by ``between``.
    The subsets of the pool are the all-zero window (-1, 0] (:func:`_rows`),
    by size and then lexicographically, with the chain in their row
    separator; the bare chain, the empty subset's center, comes first."""
    _, pool, min_size, max_size, chain = step
    pool, chain = tuple(map(encode, pool)), tuple(map(encode, chain))
    fragments = []
    if min_size == 0:
        fragments += (between, before + sep.join(chain) + after)
    window = ([0] * len(pool), -1, 0, max(min_size, 1), max_size, pool)
    tail = "".join(sep + label for label in chain)
    more, _ = _rows([window], sep, before, tail + after, between)
    return (fragments + more)[1:]


def schedule(construction: str, n: int, fmt: str) -> object:
    """``schedule``: a construction's blow-up centers, step by step, those
    of ``kblu`` and ``kblusym`` from their specs without building a center
    (:func:`~hassett.families._span_specs`). In JSON, each step's centers
    fill its hole in a :class:`BlowupSchedule` of one hole center a step."""
    specs = _span_specs(construction, n)
    ambient = AMBIENTS[construction]
    if fmt == "json":
        encode, between, span = canonical_dumps, ",", (",", "[", "]")
    else:
        encode, between, span = str, "; ", (" ", "{", "}")
    if specs is None:
        named = blowup_schedule(construction, n).steps
        steps = [(s.index, [between.join(map(encode, s.centers))]) for s in named]
    else:
        steps = [(spec[0], _span_centers(spec, encode, *span, between)) for spec in specs]
    if fmt == "json":
        holes = tuple(BlowupStep(index, (_HOLE,)) for index, _ in steps)
        pieces = _cut(BlowupSchedule(construction, n, ambient, holes).to_json_dict())
    else:
        pieces = [f"\nstep {index}: " for index, _ in steps] + [""]
        pieces[0] = f"{construction} on {ambient}, n={n}{pieces[0]}"
    out = pieces[:1]
    for (_, centers), piece in zip(steps, pieces[1:]):
        out += (*centers, piece)
    return Rendered(out) if fmt == "json" else ["".join(out)]


def admissible(i: int, j: int, ok: bool, witness: Sequence | None, fmt: str) -> object:
    """``admissible``: whether swapping i and j is, or a witness packet."""
    if fmt == "json":
        return {"admissible": ok, "witness": None if witness is None else list(witness)}
    if ok:
        return [f"swap {i} {j}: admissible"]
    packet = " ".join(map(str, witness))
    return [f"swap {i} {j}: not admissible; witness packet {packet}"]


def aut(description: AutDescription, fmt: str) -> object:
    """``aut``: the automorphism group's description."""
    if fmt == "json":
        return description.to_json_dict()
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
    return lines


def classify(hit: tuple[FamilySpec, Sequence[int]] | None, fmt: str) -> object:
    """``classify``: the datum's family and slot relabeling, or none."""
    if fmt == "json":
        return {
            "family": None if hit is None else hit[0].notation(),
            "relabeling": None if hit is None else list(hit[1]),
        }
    if hit is None:
        return ["no family matches"]
    return [f"family: {hit[0].notation()}", "slots: " + " ".join(map(str, hit[1]))]


def factors_kapranov(result: bool, fmt: str) -> object:
    """``factors-kapranov``: whether it factors through the one-heavy tower."""
    if fmt == "json":
        return {"factors_kapranov": result}
    return ["factors through the one-heavy tower" if result else "does not factor"]


def verify_l1(report: dict, fmt: str) -> object:
    """``verify-l1``: :func:`~hassett.families.verify_keel_factorization`."""
    if fmt == "json":
        return report
    lines = [f"n={report['n']}: stages {report['range'][0]}..{report['range'][1]}"]
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
    return lines


def feasible(spec: FamilySpec, witness: Sequence, fmt: str) -> object:
    """``feasible``: a family's witness weights. An infeasible system has
    none; ``cli`` reports it as the ``infeasible-family`` error."""
    weights = [format_rational(q) for q in witness]
    if fmt == "json":
        return {"family": spec.notation(), "witness": weights}
    return [f"{spec.notation()}: " + " ".join(weights)]
