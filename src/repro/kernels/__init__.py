"""Vectorised set-operation kernels for the mining hot paths.

Every mining kernel in :mod:`repro.mining` reduces to a handful of
primitives over **sorted, duplicate-free integer arrays** — adjacency
lists, candidate sets, attribute lists:

* ``intersect`` / ``intersect_count`` — the primitive that decides
  graph-pattern-mining throughput (G²Miner, ProbGraph);
* ``union`` — the exact fallback of the sketch similarity estimate;
* ``contains`` — bulk membership probes;
* ``slice_gt`` / ``slice_lt`` — the ubiquitous "higher-ID neighbours"
  restriction and its mirror (order bounds of compiled plans).

Three interchangeable backends implement them:

* ``reference`` — pure Python.  Adaptive: two-pointer merge for
  similar sizes, galloping (exponential + binary search) when one side
  is much smaller.  Always available; the semantics oracle.
* ``numpy`` — vectorised via ``searchsorted``/``intersect1d``.
  Selected automatically when numpy is importable.
* ``bitset`` — Python big-int bitsets (one ``&`` + ``bit_count`` per
  intersection), the G²Miner trick for dense neighbourhoods.

Backends are *value-identical*: any program using only this API
computes the same results (and kernels charge the same work units)
whichever backend is active — the property tests in
``tests/test_kernels.py`` enforce it.

Selection: the ``REPRO_KERNEL_BACKEND`` environment variable
(``auto``/``reference``/``numpy``/``bitset``) picks the process-wide
default at import; :func:`set_backend` / :func:`use_backend` switch at
runtime; ``GMinerConfig(kernel_backend=...)`` scopes a choice to one
job.  ``auto`` means "numpy if importable, else reference" — a missing
numpy degrades cleanly, it never breaks.

Array handles returned by :func:`as_array` are backend-specific and
opaque; convert with :func:`tolist` at boundaries.  ``len()`` works on
every handle.  Passing a handle from backend A to backend B is
undefined — convert via :func:`tolist` when switching.
"""

from __future__ import annotations

import contextlib
import os
import warnings
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.kernels import reference as _reference_mod

__all__ = [
    "as_array",
    "tolist",
    "intersect",
    "intersect_count",
    "union",
    "contains",
    "slice_gt",
    "slice_lt",
    "intersect_count_many",
    "unique_sorted",
    "intersect_count_estimate",
    "intersect_count_many_estimate",
    "jaccard_ge",
    "weighted_similarity_estimate",
    "available_backends",
    "get_backend",
    "set_backend",
    "use_backend",
    "get_sketch_params",
    "set_sketch_params",
    "use_sketch_params",
    "set_metering_hook",
    "DEFAULT_BACKEND_ENV",
]

#: Optional observability hook ``hook(op: str, items: int)`` invoked
#: once per vectorised batch with the number of elements scanned.
#: ``None`` (the default) costs one branch per batch call; installed by
#: :class:`repro.core.job.GMinerJob` when observability is on.
_metering_hook = None


def set_metering_hook(hook):
    """Install (or with ``None`` clear) the kernel batch metering hook.

    Returns the previous hook so callers can restore it (the job wraps
    its run in a ``try/finally`` doing exactly that).  Process-wide, so
    two concurrently instrumented jobs in one process would interleave
    counts — the runner never does that.
    """
    global _metering_hook
    previous = _metering_hook
    _metering_hook = hook
    return previous

#: Environment variable consulted once, at import, for the default.
DEFAULT_BACKEND_ENV = "REPRO_KERNEL_BACKEND"

_BACKEND_NAMES = ("reference", "numpy", "bitset", "sketch")


def _load_backend(name: str):
    if name == "reference":
        return _reference_mod
    if name == "numpy":
        from repro.kernels import numpy_backend

        if not numpy_backend.AVAILABLE:
            raise ValueError(
                "kernel backend 'numpy' requested but numpy is not importable"
            )
        return numpy_backend
    if name == "bitset":
        from repro.kernels import bitset

        return bitset
    if name == "sketch":
        from repro.kernels import sketch

        return sketch
    raise ValueError(
        f"unknown kernel backend {name!r}; expected one of "
        f"{('auto',) + _BACKEND_NAMES}"
    )


def available_backends() -> Tuple[str, ...]:
    """*Exact* backends importable in this environment, reference first.

    The ``sketch`` backend is deliberately excluded: it is loadable via
    :func:`set_backend` but answers estimate queries, so it does not
    satisfy the value-identical contract this list advertises (and the
    cross-backend property tests enforce over it).
    """
    names = ["reference"]
    try:
        from repro.kernels import numpy_backend

        if numpy_backend.AVAILABLE:
            names.append("numpy")
    except ImportError:  # pragma: no cover - numpy import never raises here
        pass
    names.append("bitset")
    return tuple(names)


def _resolve_auto() -> str:
    return "numpy" if "numpy" in available_backends() else "reference"


def set_backend(name: Optional[str]) -> str:
    """Activate a backend process-wide; returns the resolved name.

    ``None`` or ``"auto"`` resolves to numpy when importable, else
    reference.  Explicitly naming an unavailable backend raises
    ``ValueError`` (auto-selection never does).
    """
    global _active, _active_name
    resolved = _resolve_auto() if name in (None, "auto") else name
    _active = _load_backend(resolved)
    _active_name = resolved
    return resolved


def get_backend() -> str:
    """Name of the active backend."""
    return _active_name


@contextlib.contextmanager
def use_backend(name: Optional[str]) -> Iterator[str]:
    """Context manager scoping a backend choice (restores on exit)."""
    previous = _active_name
    try:
        yield set_backend(name)
    finally:
        set_backend(previous)


def _initial_backend() -> str:
    requested = os.environ.get(DEFAULT_BACKEND_ENV, "auto").strip().lower()
    if requested in ("", "auto"):
        return _resolve_auto()
    try:
        _load_backend(requested)
        return requested
    except ValueError as exc:
        warnings.warn(
            f"{DEFAULT_BACKEND_ENV}={requested!r} unavailable ({exc}); "
            "falling back to the reference backend",
            RuntimeWarning,
            stacklevel=2,
        )
        return "reference"


_active_name = _initial_backend()
_active = _load_backend(_active_name)


# ----------------------------------------------------------------------
# The primitive API.  Inputs to the binary operations must be handles
# from as_array() (idempotent: feeding a handle back is free).
# ----------------------------------------------------------------------


def as_array(seq: Iterable[int]) -> Any:
    """Backend handle for a sorted duplicate-free integer sequence.

    Unsorted or duplicated input is normalised (sorted, deduplicated),
    so any integer iterable is safe; already-sorted tuples — the
    repo-wide adjacency representation — take the fast path.
    """
    return _active.as_array(seq)


def tolist(arr: Any) -> List[int]:
    """Plain ``list[int]`` of a handle (ascending order)."""
    return _active.tolist(arr)


def intersect(a: Any, b: Any) -> Any:
    """Sorted intersection ``a ∩ b`` as a new handle."""
    return _active.intersect(a, b)


def intersect_count(a: Any, b: Any) -> int:
    """``|a ∩ b|`` without materialising the intersection."""
    return _active.intersect_count(a, b)


def union(a: Any, b: Any) -> Any:
    """Sorted union ``a ∪ b`` as a new handle."""
    return _active.union(a, b)


def contains(hay: Any, needles: Sequence[int]) -> Sequence[bool]:
    """Bulk membership: truthy flag per needle, aligned with input.

    ``needles`` is any plain integer sequence (need not be sorted).
    """
    return _active.contains(hay, needles)


def slice_gt(arr: Any, x: int) -> Any:
    """Elements of ``arr`` strictly greater than ``x`` (a view/copy)."""
    return _active.slice_gt(arr, x)


def slice_lt(arr: Any, x: int) -> Any:
    """Elements of ``arr`` strictly less than ``x`` (a view/copy)."""
    return _active.slice_lt(arr, x)


def intersect_count_many(
    arrays: Sequence[Any], thresholds: Sequence[int], target: Any
) -> Tuple[int, int]:
    """Batched thresholded intersection count.

    Returns ``(count, scanned)`` where ``count`` is
    ``sum(|{w ∈ a ∩ target : w > t}|)`` over the paired ``(a, t)`` in
    ``zip(arrays, thresholds)`` and ``scanned`` is the total number of
    array elements examined (``Σ len(a)``) — the quantity bulk work
    metering charges.  Equivalent to calling
    ``intersect_count(slice_gt(a, t), slice_gt(target, t))`` per pair,
    but a backend can fuse the whole batch into one pass — the
    triangle kernel's per-seed hot path.  ``arrays`` items may be raw
    sorted sequences or handles; they are normalised internally.
    """
    count, scanned = _active.intersect_count_many(arrays, thresholds, target)
    if _metering_hook is not None:
        _metering_hook("intersect_count_many", scanned)
    return count, scanned


def unique_sorted(seq: Iterable[int]) -> Any:
    """Sort + deduplicate an arbitrary integer iterable into a handle."""
    return _active.unique_sorted(seq)


# ----------------------------------------------------------------------
# Estimate API (the sketch backend family).
#
# These answer with bounded-error estimates when the active backend is
# ``sketch`` and degrade to exact answers (wrapped in degenerate
# zero-width estimates where applicable) on every exact backend — so
# estimate-tolerant callers can be written once.  Mining kernels only
# take the estimate path when the job pinned ``kernel_backend="sketch"``,
# keeping every exact-backend run bit-identical.
# ----------------------------------------------------------------------


def get_sketch_params():
    """The process-wide active :class:`repro.kernels.sketch.SketchParams`."""
    from repro.kernels import sketch

    return sketch.get_params()


def set_sketch_params(params):
    """Install sketch params process-wide (``None`` restores defaults).

    Returns the previous params so callers can restore them.
    """
    from repro.kernels import sketch

    return sketch.set_params(params)


@contextlib.contextmanager
def use_sketch_params(params) -> Iterator[Any]:
    """Context manager scoping sketch params (restores on exit)."""
    from repro.kernels import sketch

    with sketch.use_params(params) as active:
        yield active


def intersect_count_estimate(a: Any, b: Any) -> Tuple[Any, int]:
    """``(Estimate of |a ∩ b|, scanned)``; exact on exact backends."""
    if _active_name == "sketch":
        return _active.intersect_count_estimate(a, b)
    from repro.kernels import sketch

    return (
        sketch.exact_estimate(_active.intersect_count(a, b)),
        len(a) + len(b),
    )


def intersect_count_many_estimate(
    arrays: Sequence[Any], target: Any
) -> Tuple[Any, int]:
    """Batched ``(Estimate of Σ|aᵢ ∩ target|, scanned)``.

    The threshold-free estimate analogue of
    :func:`intersect_count_many`; fires the same metering hook with the
    registers (or, on exact backends, elements) actually scanned, and
    every caller charges that quantity — keeping the monitor's
    ``kernel_scanned <= work_performed`` invariant intact.
    """
    if _active_name == "sketch":
        est, scanned = _active.intersect_count_many_estimate(arrays, target)
    else:
        from repro.kernels import sketch

        total = 0
        scanned = 0
        target = _active.as_array(target)
        for raw in arrays:
            arr = _active.as_array(raw)
            total += _active.intersect_count(arr, target)
            # the exact batch primitive's charge model: the arrays
            # side only, the target amortised
            scanned += len(arr)
        est = sketch.exact_estimate(total)
    if _metering_hook is not None:
        _metering_hook("intersect_count_many_estimate", scanned)
    return est, scanned


def jaccard_ge(a: Any, b: Any, tau: float) -> Tuple[bool, int]:
    """Certified threshold test ``J(a, b) >= tau``: ``(verdict, scanned)``.

    On the sketch backend, decisive confidence intervals answer from
    the sketches and straddling ones fall back to the exact arrays (the
    extra scan is charged); exact backends always compare exactly.
    """
    if _active_name == "sketch":
        return _active.jaccard_ge(a, b, tau)
    la, lb = len(a), len(b)
    inter = _active.intersect_count(a, b)
    union_size = la + lb - inter
    j = 1.0 if union_size == 0 else inter / union_size
    return j >= tau, la + lb


def weighted_similarity_estimate(
    a: Any, b: Any, weights, default_weight: float = 0.03
) -> Tuple[float, int]:
    """Weighted attribute similarity ``(score, scanned)``.

    Sketch backend: sampled ratio estimator (exact on fully captured
    sets).  Exact backends: the
    :func:`repro.graph.attributes.weighted_similarity_sorted` float
    math, identically ordered.
    """
    if _active_name == "sketch":
        return _active.weighted_similarity_estimate(
            a, b, weights, default_weight
        )
    score = sum(weights.get(attr, 0.0) for attr in tolist(intersect(a, b)))
    norm = sum(
        weights.get(attr, default_weight) for attr in tolist(union(a, b))
    )
    return (score / norm if norm else 0.0), len(a) + len(b)
