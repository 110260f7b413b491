"""Canonical JSON emission.

Identical values must serialize to identical bytes regardless of how the
emitting dict was built, so every emitter in the package funnels through
:func:`canonical_dumps`: sorted keys, no optional whitespace, ASCII-only
escapes. Rationals are already lowest-term strings by the time they reach
this layer (``Fraction`` normalizes on construction).

The verbs that list sets (signatures, walls, divisors, blow-up centers)
print arrays of hundreds of thousands of small integers. :mod:`hassett.render`
builds that text from each marking's token (``"1"``...``"n"``, made once)
and hands it over as a :class:`Rendered` value, whose pieces are joined
with the rest of the line in one ``str.join``, so megabytes of listing
are not copied once per enclosing bracket. Splicing is
allowed only as a value of the top-level dict, whose keys are still sorted
and whose every other value is still encoded here, or as the whole value
(a blow-up schedule); a :class:`Rendered` anywhere else is not
JSON-serializable and raises ``TypeError``, never quoted as a string.
"""

from __future__ import annotations

import json
from collections.abc import Iterable


class Rendered:
    """Canonical JSON text to splice verbatim as the whole value given to
    :func:`canonical_dumps` or one value of its top-level dict, as string
    pieces joined when the line is built, so text never printed is never
    built; the iterable is consumed once. The caller vouches that the
    pieces join to what :func:`canonical_dumps` would print for the value
    they stand for."""

    __slots__ = ("pieces",)

    def __init__(self, pieces: Iterable[str]) -> None:
        self.pieces = pieces


def _dumps(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)


def _pieces(obj: object) -> list[str]:
    """The canonical form as string pieces, for the caller to join once:
    a spliced value is never copied into a piece of its own."""
    if isinstance(obj, Rendered):
        return list(obj.pieces)
    if not (isinstance(obj, dict) and any(isinstance(v, Rendered) for v in obj.values())):
        return [_dumps(obj)]
    pieces = []
    for key, value in sorted(obj.items()):
        if not isinstance(key, str):
            raise TypeError(f"Rendered values need string keys, got {key!r}")
        pieces += (",", _dumps(key), ":")
        if isinstance(value, Rendered):
            pieces.extend(value.pieces)
        else:
            pieces.append(_dumps(value))
    pieces[0] = "{"  # the first key's comma opens the object
    pieces.append("}")
    return pieces


def canonical_dumps(obj: object) -> str:
    """Serialize to the canonical single-line JSON form; the value, or the
    values of a top-level dict (string keys), may be :class:`Rendered`."""
    return "".join(_pieces(obj))


def canonical_line(obj: object) -> str:
    """Canonical form with the trailing newline used on standard output."""
    pieces = _pieces(obj)
    pieces.append("\n")
    return "".join(pieces)
