"""Bitset kernel backend: Python big-int bitmaps for dense sets.

The G²Miner trick for dense neighbourhoods: represent a set of
non-negative integers as one arbitrary-precision int with bit ``i``
set per member.  Intersection is a single ``&`` and counting is one
``bit_count()`` — both C-speed over the whole set, regardless of how
many elements match.  Handles (:class:`BitsetIds`) carry the sorted id
tuple plus the mask, paid once per set: :func:`as_array` builds it up
front (an adjacency handle exists to be intersected, and a pool worker
forked after the parent warmed it inherits it built), while the slices
and results the operations return build theirs only if a bit-parallel
operation reads them.

Negative ids cannot index bits; any operand containing them falls back
to hash-set evaluation inside the same handle, keeping the backend
value-identical to the reference on every input.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, List, Optional, Sequence, Tuple


class BitsetIds:
    """Sorted duplicate-free ids + big-int mask (built on first read)."""

    __slots__ = ("ids", "_mask", "_set")

    def __init__(self, ids: Tuple[int, ...]) -> None:
        self.ids = ids
        self._mask: Optional[int] = None
        self._set: Optional[frozenset] = None

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return iter(self.ids)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BitsetIds({self.ids!r})"

    @property
    def bit_capable(self) -> bool:
        return not self.ids or self.ids[0] >= 0

    @property
    def mask(self) -> int:
        m = self._mask
        if m is None:
            m = 0
            for x in self.ids:
                m |= 1 << x
            self._mask = m
        return m

    @property
    def as_set(self) -> frozenset:
        s = self._set
        if s is None:
            s = frozenset(self.ids)
            self._set = s
        return s


def _decode(mask: int) -> List[int]:
    """Set bit positions of ``mask``, ascending (lowest-bit stripping)."""
    out: List[int] = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def as_array(seq: Iterable[int]) -> BitsetIds:
    if isinstance(seq, BitsetIds):
        return seq
    t = tuple(seq)
    if not all(t[i] < t[i + 1] for i in range(len(t) - 1)):
        t = tuple(sorted(set(t)))
    handle = BitsetIds(t)
    if handle.bit_capable:
        handle.mask  # built eagerly, see the module docstring
    return handle


def tolist(arr: BitsetIds) -> List[int]:
    return list(arr.ids)


def unique_sorted(seq: Iterable[int]) -> BitsetIds:
    return as_array(seq)


def _bit_ok(a: BitsetIds, b: BitsetIds) -> bool:
    return a.bit_capable and b.bit_capable


def intersect(a: BitsetIds, b: BitsetIds) -> BitsetIds:
    if not a.ids or not b.ids:
        return BitsetIds(())
    if _bit_ok(a, b):
        return BitsetIds(tuple(_decode(a.mask & b.mask)))
    common = a.as_set & b.as_set
    return BitsetIds(tuple(x for x in a.ids if x in common))


def intersect_count(a: BitsetIds, b: BitsetIds) -> int:
    if not a.ids or not b.ids:
        return 0
    if _bit_ok(a, b):
        return (a.mask & b.mask).bit_count()
    return len(a.as_set & b.as_set)


def union(a: BitsetIds, b: BitsetIds) -> BitsetIds:
    if not a.ids:
        return b
    if not b.ids:
        return a
    if _bit_ok(a, b):
        return BitsetIds(tuple(_decode(a.mask | b.mask)))
    return BitsetIds(tuple(sorted(a.as_set | b.as_set)))


def contains(hay: BitsetIds, needles: Sequence[int]) -> List[bool]:
    if hay.bit_capable and all(x >= 0 for x in needles):
        m = hay.mask
        return [bool((m >> x) & 1) for x in needles]
    members = hay.as_set
    return [x in members for x in needles]


def slice_gt(arr: BitsetIds, x: int) -> BitsetIds:
    return BitsetIds(arr.ids[bisect_right(arr.ids, x):])


def slice_lt(arr: BitsetIds, x: int) -> BitsetIds:
    return BitsetIds(arr.ids[:bisect_left(arr.ids, x)])


def intersect_count_many(
    arrays: Sequence[Iterable[int]],
    thresholds: Sequence[int],
    target: BitsetIds,
) -> Tuple[int, int]:
    total = 0
    scanned = 0
    target_mask = target.mask if target.bit_capable else None
    for raw, t in zip(arrays, thresholds):
        arr = raw if isinstance(raw, BitsetIds) else as_array(raw)
        scanned += len(arr.ids)
        if target_mask is not None and arr.bit_capable:
            inter = arr.mask & target_mask
            # keep only bits above the threshold; thresholds are vertex
            # ids, so negative means "keep everything"
            total += (inter >> (t + 1)).bit_count() if t >= 0 else inter.bit_count()
        else:
            total += intersect_count(slice_gt(arr, t), slice_gt(target, t))
    return total, scanned
