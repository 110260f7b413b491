"""Integer kernels: the two subset searches behind signatures and
admissibility.

``enumerate_small_subsets`` lists every index set whose sum lies in a
half-open window ``(lo, hi]`` and whose size lies in a range, as sorted
1-based index tuples by size and then lexicographically: the canonical
order every caller emits. Chamber signatures (``(-1, cap]``), walls
(``(cap - 1, cap]``) and the sides and pairs of boundary divisors are such
windows. Given a ``labels`` sequence it puts ``labels[k]`` in place of
index k + 1 (the sets of whole-subtree blocks come from
``combinations(labels[pos:], m)``), so a caller that prints the sets hands
it each marking's output token (``"1"``...``"n"``) once and joins the
token tuples it gets back, with no conversion per entry.

``find_subset_in_interval`` decides whether some index set has its sum in
a window (the admissible-transposition test) and reports the first hit as
a bitmask over the original index positions. Both are depth-first searches
on an explicit stack, so their depth is bounded by memory, not by the
interpreter's recursion limit.

Both take nonnegative integers (weights already scaled by a common
denominator); a zero value is an ordinary entry.

Callers reach the kernels through this module's attributes
(``kernels.enumerate_small_subsets(...)``), so a test or a tracer can
replace them in one place.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import combinations
from typing import TypeVar

__all__ = [
    "BACKEND",
    "enumerate_small_subsets",
    "find_subset_in_interval",
]

Label = TypeVar("Label")

#: The kernel implementation; benchmark records carry it so that runs of
#: different implementations are never compared.
BACKEND = "pure"


def enumerate_small_subsets(
    values: Sequence[int],
    lo: int,
    hi: int,
    min_size: int,
    max_size: int,
    labels: Sequence[Label] | None = None,
) -> list[tuple[Label, ...]]:
    """The sorted 1-based index tuples T with ``lo < sum(T) <= hi`` and
    ``min_size <= len(T) <= max_size``, by size and then lexicographically;
    with ``labels``, each index k + 1 reads ``labels[k]`` instead.

    One lexicographic depth-first search per size. A node that still needs
    m indices from position k on is cut when even the m largest values
    there cannot lift its sum above ``lo``, or the m smallest already pass
    ``hi``; when both extremes land inside the window, every completion
    does, and the node's sets come out of :func:`itertools.combinations`
    in one step. Zero values are ordinary entries.
    """
    n = len(values)
    if labels is None:
        labels = range(1, n + 1)
    out: list[tuple[Label, ...]] = []
    if lo >= hi:
        return out
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
        return out
    if min_size == 0:
        if lo < 0 <= hi:
            out.append(())
        min_size = 1
    # low[m][k] / high[m][k]: the sum of the m smallest / largest values
    # among positions k..n-1, for k <= n - m; either the m-set holds
    # position k or it lies in k+1..n-1
    low = [[0] * (n + 1)]
    high = [[0] * (n + 1)]
    for m in range(1, max_size + 1):
        below, above = low[-1], high[-1]
        last = n - m
        row_lo = [0] * (last + 1)
        row_hi = [0] * (last + 1)
        row_lo[last] = values[last] + below[last + 1]
        row_hi[last] = values[last] + above[last + 1]
        for k in range(last - 1, -1, -1):
            v = values[k]
            x, y = v + below[k + 1], row_lo[k + 1]
            row_lo[k] = x if x < y else y
            x, y = v + above[k + 1], row_hi[k + 1]
            row_hi[k] = x if x > y else y
        low.append(row_lo)
        high.append(row_hi)
    for r in range(min_size, max_size + 1):
        # stack frames: (next position, chosen indices, their sum); the
        # size bounds above keep the root's extremes around the window
        stack = [(0, (), 0)]
        while stack:
            pos, chosen, total = stack.pop()
            m = r - len(chosen)
            least, most = total + low[m][pos], total + high[m][pos]
            if least > lo and most <= hi:
                rest = combinations(labels[pos:], m)
                out.extend(map(chosen.__add__, rest) if chosen else rest)
            elif m == 1:
                a, b = lo - total, hi - total
                out.extend(
                    [
                        chosen + (labels[k],)
                        for k in range(pos, n)
                        if a < values[k] <= b
                    ]
                )
            else:
                # live children pushed last-first, so the first is searched
                # first; a child whose extremes miss the window is skipped
                lows, highs = low[m - 1], high[m - 1]
                stack.extend(
                    [
                        (k + 1, chosen + (labels[k],), t)
                        for k in range(n - m, pos - 1, -1)
                        if (t := total + values[k]) + lows[k + 1] <= hi
                        and t + highs[k + 1] > lo
                    ]
                )
    return out


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
