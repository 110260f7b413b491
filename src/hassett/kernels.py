"""Integer kernels: the two subset searches behind signatures and
admissibility.

The window search lists every index set whose sum lies in a half-open
window ``(lo, hi]`` and whose size lies in a range, by size and then
lexicographically: the canonical order every caller emits. Chamber
signatures (``(-1, cap]``), walls (``(cap - 1, cap]``) and the sides and
pairs of boundary divisors are such windows, and so are the violating
packets of a transposition. The size range and the extreme-sum rows that
cut the search are written once, in ``_window_sizes``: a size whose every
set lands is read off prefix sums of the sorted values, with no row, and
for any other size the rows are built only as far as that size. The
search is a depth-first walk per size over nodes (next position, labels
still needed, sum so far): a node whose every completion lands in the
window is one block (a chosen head followed by every m-subset of the
remaining positions), and a node that needs one more index is a leaf
listing the indices that fit. Three expansions read it:

* ``enumerate_small_subsets`` returns the sets as sorted tuples, of
  1-based indices or of ``labels[k]`` for index k + 1, a block coming out
  of ``itertools.combinations`` in one step. Library callers get these.
* ``render_small_subsets`` returns them as text, each set's labels joined
  by ``sep`` and the sets by ``rowsep``, with no tuple per set. It renders
  each search state once: the rows that complete a node depend on its
  (position, labels still needed, sum) alone, so a later head that
  reaches a rendered state goes in front of each of its rows by one
  ``str.replace``, and the state's subtree is not walked again. States
  repeat where equal sums meet, so a window of a few distinct values
  (equal weights, or zeros after heavy weights) costs its text and few
  nodes, and a state reached once costs what its blocks cost. A whole
  block's rows are joined from the whole states one level down, and a
  block of few long rows joins its rows directly instead, so the memo
  holds fewer labels than three times the text returned. The rows are
  joined by ``rowsep`` itself from the start when its last character,
  the mark, is a sure row break: nowhere else in ``rowsep``, not in
  ``sep`` and in no label (``"["`` of ``"],["``). A head then goes in at
  each mark, and the text needs no last pass; otherwise line breaks join
  the rows inside and one last ``str.replace`` puts ``rowsep`` in their
  place. The verbs that print sets hand it each marking's output token
  (``"1"``...``"n"``) and their separators.
* ``first_small_subset`` returns the first set alone, as a tuple of
  labels, or None: the admissibility witness.

The tuple and first-set expansions read the blocks of ``_window_blocks``;
the text expansion walks the same nodes with its own memo. A tuple costs
one allocation per set whatever the walk, and the library callers behind
the printing verbs list few sets; the first-set expansion stops at its
first set and keeps nothing. Text is what one ``str.replace`` can put a
new head in front of.

The first two expansions take a fixed ``prefix`` that starts every set and
that the window does not see (the divisor sides that must hold marking 1).

``find_subset_in_interval`` decides whether some index set has its sum in
a window (the admissible-transposition test) and reports the first hit as
a bitmask over the original index positions, in its own order. It shares
no code with the window search, so the two check each other. Both
searches are depth-first on an explicit stack, and the text of whole
states is built level by level, so their depth is bounded by memory, not
by the interpreter's recursion limit.

Both take nonnegative integers (weights already scaled by a common
denominator); a zero value is an ordinary entry.

Callers reach the kernels through this module's attributes
(``kernels.enumerate_small_subsets(...)``), so a test or a tracer can
replace them in one place.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import accumulate, combinations
from math import comb
from typing import TypeVar

__all__ = [
    "BACKEND",
    "enumerate_small_subsets",
    "find_subset_in_interval",
    "first_small_subset",
    "render_small_subsets",
]

Label = TypeVar("Label")

#: The kernel implementation; benchmark records carry it so that runs of
#: different implementations are never compared.
BACKEND = "pure"


def _window_sizes(
    values: Sequence[int], lo: int, hi: int, min_size: int, max_size: int
) -> Iterator[tuple[int, list[int], list[list[int]] | None, list[list[int]] | None]]:
    """The sizes of a window that can hold a set, each as
    ``(size, first, low, high)``: the extreme-sum rows both searches read,
    or ``low`` None when every set of the size lands and no row is needed.

    ``low[m][k - first[m]]`` / ``high[m][k - first[m]]`` is the sum of the
    m smallest / largest values among positions k..n-1; either the m-set
    holds position k or it lies in k+1..n-1. A node still needing m
    indices has chosen at least min_size - m, each at its own position, so
    it sits at k >= first[m] = max(0, min_size - m), and row m holds only
    that band, k = first[m]..n-m. Rows are built only as far as the size
    being yielded, and a size whose every set lands is read off prefix sums
    of the sorted values alone.
    """
    n = len(values)
    if lo >= hi:
        return
    # least[r] / most[r]: the sum of the r smallest / largest values, both
    # growing with r. Size r has no member when least[r] > hi or
    # most[r] <= lo, and every r-set is a member when least[r] > lo and
    # most[r] <= hi
    ascending = sorted(values)
    least = list(accumulate(ascending, initial=0))
    most = list(accumulate(reversed(ascending), initial=0))
    min_size = max(min_size, 0)
    max_size = min(max_size, n)
    while min_size <= max_size and most[min_size] <= lo:
        min_size += 1
    while min_size <= max_size and least[max_size] > hi:
        max_size -= 1
    if min_size > max_size:
        return
    first = list(range(min_size, 0, -1)) + [0] * (max_size + 1 - min_size)
    low = [[0] * (n + 1 - first[0])]
    high = [[0] * (n + 1 - first[0])]
    for size in range(min_size, max_size + 1):
        if least[size] > lo and most[size] <= hi:
            yield size, first, None, None
            continue
        for m in range(len(low), size + 1):
            below, above = low[-1], high[-1]
            # position k of row m reads position k + 1 of row m - 1, which
            # sits `shift` entries further along (first[m - 1] <= first[m] + 1)
            start, shift = first[m], first[m] + 1 - first[m - 1]
            width = n - m - start + 1
            row_lo = [0] * width
            row_hi = [0] * width
            row_lo[-1] = values[n - m] + below[-1]
            row_hi[-1] = values[n - m] + above[-1]
            for i in range(width - 2, -1, -1):
                v = values[start + i]
                x, y = v + below[i + shift], row_lo[i + 1]
                row_lo[i] = x if x < y else y
                x, y = v + above[i + shift], row_hi[i + 1]
                row_hi[i] = x if x > y else y
            low.append(row_lo)
            high.append(row_hi)
        yield size, first, low, high


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

    One lexicographic depth-first search per size of
    :func:`_window_sizes`. A node that still needs m indices from position
    k on is cut when even the m largest values there cannot lift its sum
    above ``lo``, or the m smallest already pass ``hi``; when both extremes
    land inside the window, every completion does, and the node is one
    whole block. A size whose every set lands is one block before any
    search. A node needing one index is a leaf listing the labels whose
    values fit. Zero values are ordinary entries.
    """
    n = len(values)
    for size, first, low, high in _window_sizes(values, lo, hi, min_size, max_size):
        if low is None:
            # every set of this size lands: one block, and no rows
            yield prefix, 0, size, None
            continue
        # sizes count the prefix, so m = r - len(chosen) in every frame
        r = size + len(prefix)
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


def first_small_subset(
    values: Sequence[int],
    lo: int,
    hi: int,
    min_size: int,
    max_size: int,
    labels: Sequence[Label],
) -> tuple[Label, ...] | None:
    """The first set of :func:`enumerate_small_subsets` with these
    ``labels``, or None: the first block of :func:`_window_blocks` that
    holds a set, read without expanding the rest."""
    for chosen, pos, m, fits in _window_blocks(
        values, lo, hi, min_size, max_size, labels, ()
    ):
        if fits is None:
            return chosen + tuple(labels[pos : pos + m])
        if fits:
            return chosen + (fits[0],)
    return None


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
    line break (``ValueError``): line breaks may join the rows inside.

    The rows are joined inside by one separator whose last character, the
    mark, stands for a row break. That is ``rowsep`` itself when its mark
    occurs once in it, not in ``sep`` and in no label: every mark of the
    text is then the end of a row separator, and the text is final once
    the heads are in. Otherwise (a mark repeated, as ``[0,0]`` in the
    divisor templates, or the space of a text form's ``sep``) it is a
    line break, and the text returned takes one more ``str.replace`` of
    each line break with ``rowsep``. The prefix is put in front of rows
    that are final, so it may hold the mark.

    The search of :func:`_window_blocks`, over the sizes of
    :func:`_window_sizes`, that renders each search state once. A state is
    a node's (next position, labels still needed, sum so far); the rows
    that complete a node depend on its state alone, not on its head (the
    labels chosen before it). A node's rows go out as one piece, the head
    put in front of each by one ``str.replace`` of the mark with the mark
    and the head (and on the line-break path, with ``rowsep`` and the
    head). No tuple is built per set. The memo holds:

    * the whole states (every completion lands), level by level, of which
      a whole block's rows are one join (:func:`_every_subset`). A block
      whose m passes ``2 * (n - pos - m) + 4`` has few rows, each long,
      and lists them directly instead;
    * the other states that need at least three labels: a flag on the
      first visit, and on the second the state's rows, walked once more
      with heads that start after the state. From the third visit on the
      state is one piece, and its subtree is not walked again.

    So a state reached once costs what its blocks cost, plus its flag. A
    node that needs two labels is walked again on every visit: its
    children are leaves and whole blocks, one piece each, and a flag on
    every such node would cost windows without repeats more than its
    rows save the others. States repeat where equal sums meet: equal
    values, or zeros after heavy values, bring different heads to one
    (position, size, sum), so a window of a few distinct values has few
    states however many sets it holds. A state is rendered only outside
    any other's rendering, so the rendered rows lie in disjoint stretches
    of the text returned and hold fewer labels than it does.
    """
    spelled = "".join(labels)
    if "\n" in sep or "\n" in spelled:
        raise ValueError("render_small_subsets: no label and not sep may hold a line break")
    # rows are joined by `inner` inside, and its last character, the mark,
    # stands for a row break; `swap` replaces the mark in the text returned
    mark = rowsep[-1:]
    if mark and rowsep.count(mark) == 1 and mark not in sep and mark not in spelled:
        inner, swap = rowsep, mark
    else:
        inner = mark = "\n"
        swap = rowsep
    n = len(values)
    leads: list[str] = []  # each label with sep, once a node has children
    # memo[j]: level j of the whole states (see _every_subset);
    # memo[pos, m, total]: None once the state is seen, its rows and their
    # count once rendered
    memo: dict = {0: list(reversed(labels))}
    # the pieces are final text, or (head, rows) while a state is rendered
    pieces: list = []
    count = rendering = 0
    root = sep.join(prefix) + sep if prefix else ""
    for size, first, low, high in _window_sizes(values, lo, hi, min_size, max_size):
        if size == 0:
            # the empty set lands: one empty row after the prefix
            pieces.append(sep.join(prefix))
            count += 1
            continue
        # stack frames: (next position, labels still needed, sum so far,
        # head); a frame at -pos ends the rendering of state pos
        stack = [(0, size, 0, root)]
        while stack:
            pos, m, total, head = stack.pop()
            if pos < 0:
                start, before = memo[-pos, m, total]
                text = inner.join([_headed(*piece, mark, mark) for piece in pieces[start:]])
                del pieces[start:]
                rows, count = count - before, before
                memo[-pos, m, total] = text, rows
                rendering -= 1
            elif low is None or (
                total + low[m][pos - first[m]] > lo
                and total + high[m][pos - first[m]] <= hi
            ):
                rows = comb(n - pos, m)
                if m > 2 * (n - pos - m) + 4:
                    # few rows, each long: listed directly, as the levels
                    # below would outgrow the block's own text
                    text = list(map(sep.join, combinations(labels[pos:], m)))
                else:
                    text = _every_subset(memo, labels, sep, inner, pos, m)
            elif m == 1:
                a, b = lo - total, hi - total
                text = [labels[k] for k in range(pos, n) if a < values[k] <= b]
                rows = len(text)
            else:
                # () for a state not kept, memo itself for one not seen yet
                seen = memo.get((pos, m, total), memo) if pos and m > 2 else ()
                if seen and seen is not memo:
                    text, rows = seen
                else:
                    if seen is memo:
                        memo[pos, m, total] = None
                    elif seen is None and not rendering:
                        memo[pos, m, total] = (len(pieces), count)
                        rendering += 1
                        stack.append((-pos, m, total, head))
                        head = ""
                    leads = leads or [label + sep for label in labels]
                    # live children pushed last-first, so the first is
                    # searched first; a child whose extremes miss the
                    # window is skipped; child k reads row m - 1 at k + 1
                    lows, highs, off = low[m - 1], high[m - 1], first[m - 1] - 1
                    stack.extend(
                        [
                            (k + 1, m - 1, t, head + leads[k])
                            for k in range(n - m, pos - 1, -1)
                            if (t := total + values[k]) + lows[k - off] <= hi
                            and t + highs[k - off] > lo
                        ]
                    )
                    continue
            # the rows, listed or joined by `inner`, go out as a piece
            if not rows:
                continue
            count += rows
            if isinstance(text, list):
                text = inner.join(text) if rendering else head + (rowsep + head).join(text)
            elif not rendering:
                text = _headed(head, text, mark, swap)
            pieces.append((head, text) if rendering else text)
    return rowsep.join(pieces), count


def _headed(head: str, rows: str, mark: str, swap: str) -> str:
    """``rows``, which break at each ``mark``, with ``head`` in front of
    each and each mark replaced by ``swap``."""
    if head or swap != mark:
        return head + rows.replace(mark, swap + head)
    return rows


def _every_subset(
    memo: dict, labels: Sequence[str], sep: str, inner: str, pos: int, m: int
) -> str:
    """Every m-subset of ``labels[pos:]`` as text, lexicographically, rows
    joined by ``inner``: the rows of the whole state (pos, m), m >= 1.
    ``inner`` is the row separator of :func:`render_small_subsets`, or a
    line break where that separator's mark does not qualify; either way
    its last character, the mark, is in no label, not in ``sep`` and
    nowhere else in ``inner``, so each mark is a row break.

    ``memo[j]`` is level j of the whole states: from position n - j
    leftwards, the j-subsets of ``labels[p:]`` each led by
    ``labels[p - 1] + sep`` (level 0 is the labels, reversed). The state
    (p, j) is the states (k, j - 1), k = p + 1..n - j + 1, of level j - 1
    joined, each led by its own first label; put ``labels[p - 1] + sep``
    in front of every row by one ``str.replace`` of the mark, it is level
    j at p. Each level is built from the previous one alone and extended
    only as far left as this call needs, one level after another, so
    nothing recurses.

    The state (pos, m) extends level j to position pos + m - j, where it
    holds C(n - pos - m + j + 1, j + 1) rows of j + 1 labels; from pos + 1
    on, level m - 1 holds the state's own rows. While
    m <= 2 * (n - pos - m) + 4, as :func:`render_small_subsets` keeps it,
    levels 1..m - 1 together hold fewer than three times the labels the
    state's rows hold.
    """
    n, mark = len(labels), inner[-1]
    if len(memo.get(m - 1, ())) <= n - m - pos:
        # level m - 1 stops short of pos + 1: extend the levels up to it
        for j in range(1, m):
            level, below = memo.setdefault(j, []), memo[j - 1]
            for p in range(n - j - len(level), pos + m - j - 1, -1):
                lead = labels[p - 1] + sep
                tail = inner.join(below[n - j - p :: -1])
                level.append(lead + tail.replace(mark, mark + lead))
    return inner.join(memo[m - 1][n - m - pos :: -1])


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
