"""Integer kernels: the two subset searches behind signatures and
admissibility.

``enumerate_small_subsets`` lists every index set under a sum cap (chamber
signatures, walls and boundary divisors come from it);
``find_subset_in_interval`` decides whether some index set has its sum in a
half-open window (the admissible-transposition test). Both are depth-first
searches on an explicit stack over indices sorted by value, so their depth
is bounded by memory, not by the interpreter's recursion limit.

All subset routines take nonnegative integers (weights already scaled by a
common denominator) and report subsets as bitmasks over the original index
positions. Callers are responsible for stripping zero entries when the
blowup from zero values is unwanted.

Callers reach the kernels through this module's attributes
(``kernels.enumerate_small_subsets(...)``), so a test or a tracer can
replace them in one place.
"""

from __future__ import annotations

__all__ = [
    "BACKEND",
    "enumerate_small_subsets",
    "find_subset_in_interval",
]

#: The kernel implementation; benchmark records carry it so that runs of
#: different implementations are never compared.
BACKEND = "pure"


def enumerate_small_subsets(scaled: list[int], cap: int) -> list[int]:
    """Bitmasks of all index sets of size >= 2 whose values sum to <= cap.

    Depth-first over indices sorted by value, pruning a branch as soon as
    the running sum exceeds ``cap`` (later values are no smaller, so every
    extension would also exceed it). Returns masks sorted ascending.
    """
    n = len(scaled)
    if n < 2:
        return []
    if cap < 0:
        return []
    order = sorted(range(n), key=lambda i: (scaled[i], i))
    vals = [scaled[i] for i in order]
    bits = [1 << i for i in order]
    out: list[int] = []
    # stack frames: (next position, mask so far, sum so far, size so far)
    stack = [(0, 0, 0, 0)]
    while stack:
        pos, mask, total, size = stack.pop()
        for k in range(pos, n):
            t = total + vals[k]
            if t > cap:
                break
            m = mask | bits[k]
            if size + 1 >= 2:
                out.append(m)
            stack.append((k + 1, m, t, size + 1))
    out.sort()
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
