"""Numpy kernel backend: vectorised sorted-set operations.

Handles are 1-D ``int64`` ndarrays, sorted and duplicate-free.  The
binary operations use ``searchsorted`` — one vectorised binary search
of the smaller operand into the larger — which is simultaneously the
merge *and* the galloping strategy: O(small · log large) with all the
per-element work in C.  ``slice_gt`` / ``slice_lt`` are zero-copy views.

This module must import cleanly without numpy (``AVAILABLE`` guards
it); the dispatch layer never routes calls here when numpy is absent.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

try:
    import numpy as _np

    AVAILABLE = True
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    _np = None
    AVAILABLE = False

_EMPTY = _np.empty(0, dtype=_np.int64) if AVAILABLE else None


def as_array(seq: Iterable[int]):
    if isinstance(seq, _np.ndarray):
        return seq
    arr = _np.asarray(
        seq if isinstance(seq, (tuple, list)) else tuple(seq), dtype=_np.int64
    )
    if arr.size > 1 and not (_np.diff(arr) > 0).all():
        arr = _np.unique(arr)
    return arr


def tolist(arr) -> List[int]:
    return arr.tolist()


def unique_sorted(seq: Iterable[int]):
    return as_array(seq)


def _member_mask(a, b):
    """Boolean mask over ``a`` marking elements present in ``b``."""
    idx = _np.searchsorted(b, a)
    idx[idx == b.size] = 0
    return b[idx] == a if b.size else _np.zeros(a.size, dtype=bool)


def intersect(a, b):
    a, b = (a, b) if a.size <= b.size else (b, a)
    if a.size == 0:
        return _EMPTY
    return a[_member_mask(a, b)]


def intersect_count(a, b) -> int:
    a, b = (a, b) if a.size <= b.size else (b, a)
    if a.size == 0:
        return 0
    return int(_np.count_nonzero(_member_mask(a, b)))


def union(a, b):
    if a.size == 0:
        return b
    if b.size == 0:
        return a
    return _np.union1d(a, b)


def contains(hay, needles: Sequence[int]) -> List[bool]:
    n = _np.asarray(needles, dtype=_np.int64)
    if hay.size == 0:
        return [False] * n.size
    idx = _np.searchsorted(hay, n)
    idx[idx == hay.size] = 0
    return (hay[idx] == n).tolist()


def slice_gt(arr, x: int):
    return arr[_np.searchsorted(arr, x, side="right"):]


def slice_lt(arr, x: int):
    return arr[:_np.searchsorted(arr, x, side="left")]


def intersect_count_many(
    arrays: Sequence, thresholds: Sequence[int], target
) -> Tuple[int, int]:
    """One concatenated membership pass instead of a call per array —
    the per-seed batching that makes small-neighbourhood graphs worth
    vectorising at all."""
    if not arrays:
        return 0, 0
    arrays = [
        a if isinstance(a, _np.ndarray) else as_array(a) for a in arrays
    ]
    concat = _np.concatenate(arrays) if len(arrays) > 1 else arrays[0]
    scanned = int(concat.size)
    if scanned == 0 or target.size == 0:
        return 0, scanned
    per_element_threshold = _np.repeat(
        _np.asarray(thresholds, dtype=_np.int64), [a.size for a in arrays]
    )
    low, high = int(concat[0] if concat.size == 1 else concat.min()), int(target[-1])
    if 0 <= low and high < max(1 << 16, 8 * (scanned + int(target.size))):
        # dense-id fast path: O(ids + elements) boolean table beats the
        # O(elements · log target) binary searches by a wide margin
        table = _np.zeros(high + 1, dtype=bool)
        table[target] = True
        in_range = concat <= high
        hits = in_range.copy()
        hits[in_range] = table[concat[in_range]]
        hits &= concat > per_element_threshold
    else:
        idx = _np.searchsorted(target, concat)
        idx[idx == target.size] = 0
        hits = (target[idx] == concat) & (concat > per_element_threshold)
    return int(_np.count_nonzero(hits)), scanned
