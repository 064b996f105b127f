"""Pure-Python kernel backend: adaptive merge / galloping set ops.

Array handles are :class:`SortedIds` — a ``tuple`` subclass tagging
"sorted, duplicate-free" so :func:`as_array` is idempotent and cheap.

Strategy per binary op, following the classic adaptive-intersection
playbook: when the operands are of comparable size, a single pass over
Python sets (C-speed hashing) wins; when one side is much smaller,
*galloping* — ``bisect`` per element of the small side into the large
side — does O(small · log large) work and wins by a wide margin.  The
textbook two-pointer merge is kept (and exported) both as the
semantics oracle and for the microbenchmarks.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, List, Sequence, Tuple

#: One side must be this many times larger before galloping beats the
#: set-based path (bisect per element vs one hash per element).
GALLOP_RATIO = 32


class SortedIds(tuple):
    """A tuple certified sorted and duplicate-free."""

    __slots__ = ()


def as_array(seq: Iterable[int]) -> SortedIds:
    if isinstance(seq, SortedIds):
        return seq
    t = tuple(seq)
    if all(t[i] < t[i + 1] for i in range(len(t) - 1)):
        return SortedIds(t)
    return SortedIds(sorted(set(t)))


def tolist(arr: SortedIds) -> List[int]:
    return list(arr)


def unique_sorted(seq: Iterable[int]) -> SortedIds:
    return as_array(seq)


def merge_intersect(a: Sequence[int], b: Sequence[int]) -> List[int]:
    """Two-pointer merge intersection (exported for benchmarks/tests)."""
    out: List[int] = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        x, y = a[i], b[j]
        if x == y:
            out.append(x)
            i += 1
            j += 1
        elif x < y:
            i += 1
        else:
            j += 1
    return out


def galloping_intersect(small: Sequence[int], large: Sequence[int]) -> List[int]:
    """Intersection by binary-searching each small element in large."""
    out: List[int] = []
    lo = 0
    hi = len(large)
    for x in small:
        lo = bisect_left(large, x, lo, hi)
        if lo == hi:
            break
        if large[lo] == x:
            out.append(x)
            lo += 1
    return out


def intersect(a: SortedIds, b: SortedIds) -> SortedIds:
    if len(a) > len(b):
        a, b = b, a
    if not a:
        return SortedIds()
    if len(b) > GALLOP_RATIO * len(a):
        return SortedIds(galloping_intersect(a, b))
    common = set(a).intersection(b)
    return SortedIds(x for x in a if x in common)


def intersect_count(a: SortedIds, b: SortedIds) -> int:
    if len(a) > len(b):
        a, b = b, a
    if not a:
        return 0
    if len(b) > GALLOP_RATIO * len(a):
        return len(galloping_intersect(a, b))
    return len(set(a).intersection(b))


def union(a: SortedIds, b: SortedIds) -> SortedIds:
    if not a:
        return b
    if not b:
        return a
    return SortedIds(sorted(set(a).union(b)))


def contains(hay: SortedIds, needles: Sequence[int]) -> List[bool]:
    members = set(hay)
    return [x in members for x in needles]


def slice_gt(arr: SortedIds, x: int) -> SortedIds:
    return SortedIds(arr[bisect_right(arr, x):])


def slice_lt(arr: SortedIds, x: int) -> SortedIds:
    return SortedIds(arr[:bisect_left(arr, x)])


def intersect_count_many(
    arrays: Sequence[Iterable[int]],
    thresholds: Sequence[int],
    target: SortedIds,
) -> Tuple[int, int]:
    total = 0
    scanned = 0
    for raw, t in zip(arrays, thresholds):
        arr = raw if isinstance(raw, SortedIds) else as_array(raw)
        scanned += len(arr)
        total += intersect_count(slice_gt(arr, t), slice_gt(target, t))
    return total, scanned
