"""Integer kernels: the two subset searches behind signatures and
admissibility.

The window search lists every index set whose sum lies in a half-open
window ``(lo, hi]`` and whose size lies in a range, by size and then
lexicographically: the canonical order every caller emits. Chamber
signatures (``(-1, cap]``), walls (``(cap - 1, cap]``) and the sides and
pairs of boundary divisors are such windows. The search,
``_window_blocks``, is written once. It walks the sets in blocks: a node
whose every completion lands in the window is one block (a chosen head
followed by every m-subset of the remaining positions), and a node that
needs one more index is a leaf listing the indices that fit. Two thin
expansions read the blocks:

* ``enumerate_small_subsets`` returns the sets as sorted tuples, of
  1-based indices or of ``labels[k]`` for index k + 1, a block coming out
  of ``itertools.combinations`` in one step. Library callers get these.
* ``render_small_subsets`` returns them as text, each set's labels joined
  by ``sep`` and the sets by ``rowsep``, with no tuple per set: the text of
  all m-subsets of each suffix of the labels is built once per call, and a
  block's chosen head goes in front of each of its rows by one
  ``str.replace``. A block of few long rows joins its rows directly
  instead, so the memo holds fewer labels than three times the text
  returned. The verbs that print sets hand it each marking's output token
  (``"1"``...``"n"``) and their separators.

Both expansions take a fixed ``prefix`` that starts every set and that the
window does not see (the divisor sides that must hold marking 1).

``find_subset_in_interval`` decides whether some index set has its sum in
a window (the admissible-transposition test) and reports the first hit as
a bitmask over the original index positions. Both searches are
depth-first on an explicit stack, and the block text is built level by
level, so their depth is bounded by memory, not by the interpreter's
recursion limit.

Both take nonnegative integers (weights already scaled by a common
denominator); a zero value is an ordinary entry.

Callers reach the kernels through this module's attributes
(``kernels.enumerate_small_subsets(...)``), so a test or a tracer can
replace them in one place.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import combinations
from math import comb
from typing import TypeVar

__all__ = [
    "BACKEND",
    "enumerate_small_subsets",
    "find_subset_in_interval",
    "render_small_subsets",
]

Label = TypeVar("Label")

#: The kernel implementation; benchmark records carry it so that runs of
#: different implementations are never compared.
BACKEND = "pure"


def _window_blocks(
    values: Sequence[int],
    lo: int,
    hi: int,
    min_size: int,
    max_size: int,
    labels: Sequence[Label],
    prefix: tuple[Label, ...],
) -> Iterator[tuple[tuple[Label, ...], int, int, list[Label] | None]]:
    """The sets of a window as blocks ``(chosen, pos, m, fits)``, in
    canonical order: ``chosen`` (which starts with ``prefix``) followed by
    each m-subset of ``labels[pos:]`` in lexicographic order when ``fits``
    is None, else by each single label in ``fits``.

    One lexicographic depth-first search per size. A node that still needs
    m indices from position k on is cut when even the m largest values
    there cannot lift its sum above ``lo``, or the m smallest already pass
    ``hi``; when both extremes land inside the window, every completion
    does, and the node is one whole block. A node needing one index is a
    leaf listing the labels whose values fit. Zero values are ordinary
    entries.
    """
    n = len(values)
    if lo >= hi:
        return
    # size r has no member when its r smallest values already pass hi, or
    # its r largest stay at or below lo; both sums grow with r
    ascending = sorted(values)
    smallest = largest = 0
    for r in range(1, n + 1):
        smallest += ascending[r - 1]
        if smallest > hi:
            max_size = min(max_size, r - 1)
            break
        largest += ascending[n - r]
        if largest <= lo:
            min_size = max(min_size, r + 1)
    min_size = max(min_size, 0)
    max_size = min(max_size, n)
    if min_size > max_size:
        return
    if min_size == 0:
        if lo < 0 <= hi:
            yield prefix, n, 0, None
        min_size = 1
    # low[m][k - first[m]] / high[m][k - first[m]]: the sum of the m
    # smallest / largest values among positions k..n-1; either the m-set
    # holds position k or it lies in k+1..n-1. A node still needing m
    # indices has chosen at least min_size - m, each at its own position,
    # so it sits at k >= first[m] = max(0, min_size - m), and row m holds
    # only that band, k = first[m]..n-m
    first = [max(0, min_size - m) for m in range(max_size + 1)]
    low = [[0] * (n + 1 - first[0])]
    high = [[0] * (n + 1 - first[0])]
    for m in range(1, max_size + 1):
        below, above = low[-1], high[-1]
        # position k of row m reads position k + 1 of row m - 1, which
        # sits `shift` entries further along (first[m - 1] <= first[m] + 1)
        start, shift = first[m], first[m] + 1 - first[m - 1]
        size = n - m - start + 1
        row_lo = [0] * size
        row_hi = [0] * size
        row_lo[-1] = values[n - m] + below[-1]
        row_hi[-1] = values[n - m] + above[-1]
        for i in range(size - 2, -1, -1):
            v = values[start + i]
            x, y = v + below[i + shift], row_lo[i + 1]
            row_lo[i] = x if x < y else y
            x, y = v + above[i + shift], row_hi[i + 1]
            row_hi[i] = x if x > y else y
        low.append(row_lo)
        high.append(row_hi)
    # sizes count the prefix, so m = r - len(chosen) in every frame
    extra = len(prefix)
    for r in range(min_size + extra, max_size + extra + 1):
        # stack frames: (next position, chosen labels, their sum); the
        # size bounds above keep the root's extremes around the window
        stack = [(0, prefix, 0)]
        while stack:
            pos, chosen, total = stack.pop()
            m = r - len(chosen)
            i = pos - first[m]
            if total + low[m][i] > lo and total + high[m][i] <= hi:
                yield chosen, pos, m, None
            elif m == 1:
                a, b = lo - total, hi - total
                yield chosen, pos, 1, [
                    labels[k] for k in range(pos, n) if a < values[k] <= b
                ]
            else:
                # live children pushed last-first, so the first is searched
                # first; a child whose extremes miss the window is skipped
                # child k reads row m - 1 at position k + 1
                lows, highs, off = low[m - 1], high[m - 1], first[m - 1] - 1
                stack.extend(
                    [
                        (k + 1, chosen + (labels[k],), t)
                        for k in range(n - m, pos - 1, -1)
                        if (t := total + values[k]) + lows[k - off] <= hi
                        and t + highs[k - off] > lo
                    ]
                )


def enumerate_small_subsets(
    values: Sequence[int],
    lo: int,
    hi: int,
    min_size: int,
    max_size: int,
    labels: Sequence[Label] | None = None,
    prefix: tuple[Label, ...] = (),
) -> list[tuple[Label, ...]]:
    """The sorted 1-based index tuples T with ``lo < sum(T) <= hi`` and
    ``min_size <= len(T) <= max_size``, by size and then lexicographically;
    with ``labels``, each index k + 1 reads ``labels[k]`` instead, and each
    tuple starts with ``prefix`` (which the window does not see).

    The tuple expansion of :func:`_window_blocks`: a whole block comes out
    of :func:`itertools.combinations` in one step.
    """
    if labels is None:
        labels = range(1, len(values) + 1)
    out: list[tuple[Label, ...]] = []
    for chosen, pos, m, fits in _window_blocks(
        values, lo, hi, min_size, max_size, labels, prefix
    ):
        rest = combinations(labels[pos:], m) if fits is None else zip(fits)
        out.extend(map(chosen.__add__, rest) if chosen else rest)
    return out


def render_small_subsets(
    values: Sequence[int],
    lo: int,
    hi: int,
    min_size: int,
    max_size: int,
    labels: Sequence[str],
    prefix: tuple[str, ...] = (),
    *,
    sep: str,
    rowsep: str,
) -> tuple[str, int]:
    """The sets of :func:`enumerate_small_subsets` as text, and how many
    there are: each set's labels joined by ``sep``, the sets joined by
    ``rowsep``, in the same order. No label and not ``sep`` may hold a
    line break.

    The text expansion of :func:`_window_blocks`, with no tuple per set. A
    whole block is the text of all m-subsets of ``labels[pos:]``, rows
    joined by line breaks (built once per call, see :func:`_suffix_text`),
    made final by one ``str.replace`` of the line break with ``rowsep``
    followed by the chosen labels; the chosen labels of the first row go
    in front. A block whose m passes ``2 * (n - pos - m) + 4`` has few
    rows, each long, and the memo of their suffixes would hold about
    m / (n - pos - m + 2) times the block's labels; its rows are joined
    one by one instead.
    """
    n = len(values)
    heads: list[list[str]] = [[], list(reversed(labels))]
    pieces: list[str] = []
    count = 0
    for chosen, pos, m, fits in _window_blocks(
        values, lo, hi, min_size, max_size, labels, prefix
    ):
        head = sep.join(chosen) + sep if chosen else ""
        if fits is not None:
            if fits:
                pieces.append(head + (rowsep + head).join(fits))
                count += len(fits)
        elif m == 0:
            pieces.append(sep.join(chosen))
            count += 1
        elif m > 2 * (n - pos - m) + 4:
            # few rows, each long: joined directly, as the memo of their
            # shorter suffixes would outgrow the block's own text
            rows = map(sep.join, combinations(labels[pos:], m))
            pieces.append(head + (rowsep + head).join(rows))
            count += comb(n - pos, m)
        else:
            text = _suffix_text(heads, labels, sep, pos, m)
            if head or rowsep != "\n":
                text = head + text.replace("\n", rowsep + head)
            pieces.append(text)
            count += comb(n - pos, m)
    return rowsep.join(pieces), count


def _suffix_text(
    heads: list[list[str]], labels: Sequence[str], sep: str, pos: int, m: int
) -> str:
    """The m-subsets of ``labels[pos:]`` as text, lexicographically, rows
    joined by line breaks.

    ``heads[j]`` memoises, from position n - j leftwards, the text of the
    j-subsets whose first label sits at each position: the head at k is
    the text of the (j - 1)-subsets of ``labels[k + 1:]`` (the heads of
    level j - 1 from k + 1 on, joined) with ``labels[k] + sep`` put in
    front of every row by one ``str.replace``. Each level is built from the
    previous one alone and extended only as far left as this call needs,
    one level after another, so nothing recurses.

    A block (pos, m) extends level j to position pos + m - j, where it
    holds C(n - pos - m + j, j) rows of j labels. While
    m <= 2 * (n - pos - m) + 4, as :func:`render_small_subsets` keeps it,
    levels 2..m together hold fewer than three times the block's own
    labels, so the memo of a call holds fewer than three times the labels
    the call returns.
    """
    n = len(labels)
    while len(heads) <= m:
        heads.append([])
    # the head at k sits at heads[j][n - j - k]
    if len(heads[m]) <= n - m - pos:
        for level in range(2, m + 1):
            row, below = heads[level], heads[level - 1]
            for k in range(n - level - len(row), pos + m - level - 1, -1):
                head = labels[k] + sep
                tail = "\n".join(below[n - level - k :: -1])
                row.append(head + tail.replace("\n", "\n" + head))
    return "\n".join(heads[m][n - m - pos :: -1])


def find_subset_in_interval(
    scaled: list[int], lo: int, hi: int, min_size: int
) -> int:
    """First bitmask (in value-sorted DFS order) of an index set T with
    ``lo < sum(T) <= hi`` and ``len(T) >= min_size``, or -1 if none exists.

    A set is tested when it is first reached, before its extensions; a
    branch is cut when even all remaining values cannot lift its sum above
    ``lo``, and an extension stops at the first value that would pass
    ``hi``. Decision use only: the traversal order is deterministic but not
    the caller-facing canonical witness order.
    """
    n = len(scaled)
    if lo >= hi:
        return -1
    order = sorted(range(n), key=lambda i: (scaled[i], i))
    vals = [scaled[i] for i in order]
    bits = [1 << i for i in order]
    suffix = [0] * (n + 1)
    for k in range(n - 1, -1, -1):
        suffix[k] = suffix[k + 1] + vals[k]

    if min_size <= 0 and lo < 0 <= hi:
        return 0
    if suffix[0] <= lo:
        return -1
    # stack frames: (next position to extend with, mask, sum, size) of a set
    # already tested; popping a frame tries its next extension and pushes
    # the frame's remaining extensions beneath the new set's own.
    stack = [(0, 0, 0, 0)]
    while stack:
        pos, mask, total, size = stack.pop()
        if pos == n:
            continue
        t = total + vals[pos]
        if t > hi:
            continue
        stack.append((pos + 1, mask, total, size))
        m = mask | bits[pos]
        if size + 1 >= min_size and lo < t:
            return m
        if t + suffix[pos + 1] > lo:
            stack.append((pos + 1, m, t, size + 1))
    return -1
