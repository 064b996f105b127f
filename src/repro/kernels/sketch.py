"""Probabilistic set-sketch kernel backend (ProbGraph-style).

The fourth :mod:`repro.kernels` backend family: instead of computing
set intersections exactly, it answers *estimate* queries from compact
per-set sketches with two-sided confidence intervals, trading bounded
error for work units.  The sketch is the *bottom-k / k-minwise* one
(ProbGraph's MinHash): the ``k`` smallest ``(hash, value)`` pairs of a
set under a seeded 64-bit hash.  The bottom-k of a union is a uniform
sample of the union, so the fraction ``y/k`` of sampled elements that
lie in both sets estimates the Jaccard similarity ``J``; the
intersection size follows through the monotone transform
``|A∩B| = J·(|A|+|B|)/(1+J)``.  Storing values (not just hashes) buys
two things ProbGraph exploits: membership tests against a sketch are
*exact* for union-sample elements, and a set with at most ``k``
elements is captured in full — its estimates degrade to exact answers
with degenerate intervals.

Confidence intervals: the Jaccard proportion gets a Wilson score
interval (well-behaved at ``y = 0``/``y = k``, unlike the normal
approximation), mapped through the monotone count transform.
Batched estimates combine by summing points and variances (CLT), so
aggregate relative error *concentrates* as the number of summed pair
estimates grows — the regime TC and clustering coefficients live in.

Everything is deterministic per ``SketchParams.seed``: hashing is a
pure-Python splitmix64, so the same (set, params) pair produces the
identical sketch — and the identical estimate — on any host.

The backend keeps the full exact-op surface by *delegating* every
exact primitive to the reference backend: a job pinned to
``kernel_backend="sketch"`` that never calls an estimate primitive is
bit-identical to a reference run.  Array handles are
:class:`SketchedIds` — reference ``SortedIds`` that additionally cache
their sketch in the instance ``__dict__``, so a vertex's one
``VertexData.neighbors_array()`` handle gives per-vertex sketch caching
for free.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.kernels import reference

__all__ = [
    "DEFAULT_ACCURACY",
    "SketchParams",
    "SketchedIds",
    "MinwiseSketch",
    "Estimate",
    "EstimateReport",
    "exact_estimate",
    "sum_estimates",
    "scale_estimate",
    "sketch_of",
    "get_params",
    "set_params",
    "use_params",
    "splitmix64",
    "wilson_interval",
]

#: The ``GMinerConfig(accuracy=...)`` default: 5% target relative
#: error at 95% confidence.
DEFAULT_ACCURACY: Tuple[float, float] = (0.05, 0.95)

_MASK64 = (1 << 64) - 1
#: Weight of an attribute outside the focus set in weighted-similarity
#: denominators; mirrors
#: ``repro.graph.attributes.DEFAULT_UNFOCUSED_WEIGHT`` (not imported —
#: that module imports the kernels package).
_DEFAULT_UNFOCUSED_WEIGHT = 0.03


def splitmix64(x: int) -> int:
    """The splitmix64 finaliser: a strong, dependency-free 64-bit mix."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class SketchParams:
    """Accuracy knob → sketch shape, plus the hashing seed.

    ``epsilon`` is the target relative error of *aggregate* estimates
    (sums over many pair estimates, the TC/clustering regime);
    ``confidence`` is the two-sided CI coverage every reported interval
    targets.  Width derivation: ``k = ceil(z²/ε)`` registers (clamped
    to [8, 4096]) — monotone in both knobs.  The calibration accounts
    for the fact that aggregate errors do *not* concentrate as
    ``1/√(num pairs)``: each vertex's sketch is built once and reused
    by every pair touching that vertex, so per-pair errors are
    positively correlated and the aggregate error floor is governed by
    per-sketch noise ``~1/√k``, not by the pair count.  ``z²/ε``
    places that floor at ``ε·z/√z² = ε``-scale relative error at the
    ``z`` quantile on neighbourhood-sized Jaccards.
    """

    epsilon: float = DEFAULT_ACCURACY[0]
    confidence: float = DEFAULT_ACCURACY[1]
    seed: int = 0

    def __post_init__(self) -> None:
        validate_accuracy(self.epsilon, self.confidence)
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError(f"sketch seed must be an int; got {self.seed!r}")

    @property
    def z(self) -> float:
        """Two-sided normal quantile for ``confidence``."""
        return NormalDist().inv_cdf(0.5 + self.confidence / 2.0)

    @property
    def k(self) -> int:
        """Minwise registers per sketch."""
        z = self.z
        return max(8, min(4096, math.ceil(z * z / self.epsilon)))

    @property
    def salt(self) -> int:
        """The seeded hashing salt all sketches under these params share."""
        return splitmix64((self.seed & _MASK64) ^ 0xA24BAED4963EE407)


def validate_accuracy(epsilon: float, confidence: float) -> None:
    """Fail fast on a meaningless accuracy target."""
    if not (isinstance(epsilon, (int, float)) and 0.0 < epsilon < 1.0):
        raise ValueError(
            f"accuracy epsilon must be a relative error in (0, 1); got "
            f"{epsilon!r}"
        )
    if not (isinstance(confidence, (int, float)) and 0.5 <= confidence < 1.0):
        raise ValueError(
            f"accuracy confidence must be a coverage level in [0.5, 1); "
            f"got {confidence!r} (use e.g. 0.95)"
        )


#: Process-wide active parameters; scoped per job by
#: :meth:`repro.core.job.GMinerJob._job_context` via :func:`use_params`.
_active_params = SketchParams()


def get_params() -> SketchParams:
    """The active sketch parameters."""
    return _active_params


def set_params(params: Optional[SketchParams]) -> SketchParams:
    """Install sketch parameters process-wide; ``None`` restores defaults.

    Returns the previous parameters so callers can restore them.
    """
    global _active_params
    previous = _active_params
    _active_params = params if params is not None else SketchParams()
    return previous


@contextlib.contextmanager
def use_params(params: Optional[SketchParams]) -> Iterator[SketchParams]:
    """Context manager scoping sketch parameters (restores on exit)."""
    previous = set_params(params)
    try:
        yield _active_params
    finally:
        set_params(previous)


# ----------------------------------------------------------------------
# estimates
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Estimate:
    """A point estimate with a two-sided confidence interval.

    ``std`` is the normal-scale standard error implied by the interval
    (``(hi - lo)/(2z)``); sums of estimates add points and variances.
    ``exact`` marks a degenerate estimate (fully captured sets): the
    interval has zero width and the point is the true value.
    """

    point: float
    lo: float
    hi: float
    std: float = 0.0
    exact: bool = False

    def scaled(self, factor: float) -> "Estimate":
        return Estimate(
            point=self.point * factor,
            lo=self.lo * factor,
            hi=self.hi * factor,
            std=self.std * factor,
            exact=self.exact,
        )


def exact_estimate(value: float) -> Estimate:
    """The degenerate estimate of an exactly known quantity."""
    v = float(value)
    return Estimate(point=v, lo=v, hi=v, std=0.0, exact=True)


def scale_estimate(est: Estimate, factor: float) -> Estimate:
    return est.scaled(factor)


def sum_estimates(
    items: Iterable[Any], params: Optional[SketchParams] = None
) -> Estimate:
    """Sum estimates across independent groups: points and variances add.

    Plain numbers mix in as exact terms.  The combined interval is the
    *wider* of two bounds: the CLT interval ``point ± z·sqrt(Σ std²)``
    and the calibration floor ``point ± ε·point``.  The floor exists
    because the summed estimates are not fully independent — every pair
    touching the same vertex reuses that vertex's sketch, so aggregate
    errors have a correlated component the variance sum cannot see.
    The sketch width ``k = z²/ε`` is calibrated to hold the correlated
    floor at ``ε`` relative error at the ``confidence`` quantile, and
    the reported interval states that guarantee.  Intervals are floored
    at zero — intersection counts cannot be negative.
    """
    params = params or get_params()
    point = 0.0
    var = 0.0
    exact = True
    for item in items:
        if isinstance(item, Estimate):
            point += item.point
            var += item.std * item.std
            exact = exact and item.exact
        elif item is not None:
            point += float(item)
    if exact or var == 0.0:
        return Estimate(point=point, lo=point, hi=point, std=0.0, exact=exact)
    std = math.sqrt(var)
    half = max(params.z * std, params.epsilon * abs(point))
    return Estimate(
        point=point,
        lo=max(0.0, point - half),
        hi=point + half,
        std=half / params.z,
    )


@dataclass(frozen=True)
class EstimateReport:
    """What ``JobResult.estimate`` surfaces for an approximate job."""

    point: float
    ci_low: float
    ci_high: float
    epsilon: float
    confidence: float
    sketch_seed: int
    exact: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "point": self.point,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "epsilon": self.epsilon,
            "confidence": self.confidence,
            "sketch_seed": self.sketch_seed,
            "exact": self.exact,
        }


def wilson_interval(y: int, n: int, z: float) -> Tuple[float, float, float]:
    """Wilson score interval for a proportion: ``(p̂, lo, hi)``.

    Chosen over the normal approximation because it stays honest at the
    boundaries (``y = 0`` / ``y = n`` yield non-degenerate intervals),
    which is exactly where small Jaccard estimates live.
    """
    if n <= 0:
        return 0.0, 0.0, 1.0
    p = y / n
    z2 = z * z
    denom = 1.0 + z2 / n
    centre = (p + z2 / (2.0 * n)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n))
    return p, max(0.0, centre - half), min(1.0, centre + half)


# ----------------------------------------------------------------------
# the sketches
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MinwiseSketch:
    """Bottom-k sketch: the ``k`` smallest ``(hash, value)`` pairs.

    ``n`` is the exact cardinality of the sketched set when known
    (always, for sketches built from a full set; ``None`` for merged
    union sketches).  ``full`` means every element is captured — the
    sketch then answers exactly.  Merging is a pure function of the
    pairs, so it is commutative and associative.
    """

    k: int
    salt: int
    pairs: Tuple[Tuple[int, int], ...]
    n: Optional[int] = None
    value_set: frozenset = field(default_factory=frozenset, compare=False)

    @classmethod
    def build(cls, values: Iterable[int], k: int, salt: int) -> "MinwiseSketch":
        # set semantics: duplicated input values must not occupy two
        # bottom-k slots (and would break merge idempotence)
        hashed = sorted(
            (splitmix64((v & _MASK64) ^ salt), v) for v in set(values)
        )
        n = len(hashed)
        kept = tuple(hashed[:k])
        return cls(
            k=k,
            salt=salt,
            pairs=kept,
            n=n,
            value_set=frozenset(v for _, v in kept),
        )

    @property
    def full(self) -> bool:
        return self.n is not None and self.n <= self.k

    def merge(self, other: "MinwiseSketch") -> "MinwiseSketch":
        """The bottom-k sketch of the union (pairs only; ``n`` unknown)."""
        if self.k != other.k or self.salt != other.salt:
            raise ValueError("cannot merge sketches with different params")
        combined = dict(self.pairs)
        combined.update(other.pairs)
        kept = tuple(sorted(combined.items())[: self.k])
        return MinwiseSketch(
            k=self.k,
            salt=self.salt,
            pairs=kept,
            n=None,
            value_set=frozenset(v for _, v in kept),
        )

    def size_estimate(self) -> float:
        """Cardinality estimate from the k-th minimum (exact when full)."""
        if self.n is not None:
            return float(self.n)
        if len(self.pairs) < self.k:
            # fewer than k distinct hashes seen: everything is captured
            return float(len(self.pairs))
        kth = self.pairs[-1][0]
        if kth == 0:
            return float(len(self.pairs))
        return (self.k - 1) * (float(1 << 64) / kth)


# ----------------------------------------------------------------------
# handles and sketch caching
# ----------------------------------------------------------------------


class SketchedIds(reference.SortedIds):
    """A reference handle that can cache its sketch.

    Unlike ``SortedIds`` (``__slots__ = ()``), instances carry a
    ``__dict__``, so the sketch built for the active params is memoised
    on the handle itself — a vertex's one ``VertexData.neighbors_array()``
    handle then gives per-vertex sketch caching with no extra index.
    """


def sketch_of(handle: Any, params: Optional[SketchParams] = None) -> Any:
    """The sketch of a sorted-id handle under ``params`` (cached).

    Accepts any integer sequence; caching needs a :class:`SketchedIds`
    (or any object with a ``__dict__``), which every array handle this
    backend returns is.  Cache entries are keyed by the sketch shape,
    so switching params mid-process rebuilds rather than corrupts.
    """
    params = params or get_params()
    key = (params.salt, params.k)
    cache = getattr(handle, "__dict__", None)
    if cache is not None:
        hit = cache.get("_sketch")
        if hit is not None and hit[0] == key:
            return hit[1]
    sk = MinwiseSketch.build(handle, params.k, params.salt)
    if cache is not None:
        cache["_sketch"] = (key, sk)
    return sk


# ----------------------------------------------------------------------
# exact-op surface: delegate to the reference backend
# ----------------------------------------------------------------------


def as_array(seq: Iterable[int]) -> SketchedIds:
    if isinstance(seq, SketchedIds):
        return seq
    return SketchedIds(reference.as_array(seq))


def tolist(arr: Any) -> List[int]:
    return reference.tolist(arr)


def unique_sorted(seq: Iterable[int]) -> SketchedIds:
    return as_array(reference.unique_sorted(seq))


def intersect(a: Any, b: Any) -> SketchedIds:
    return SketchedIds(reference.intersect(as_array(a), as_array(b)))


def intersect_count(a: Any, b: Any) -> int:
    return reference.intersect_count(as_array(a), as_array(b))


def union(a: Any, b: Any) -> SketchedIds:
    return SketchedIds(reference.union(as_array(a), as_array(b)))


def contains(hay: Any, needles: Sequence[int]) -> List[bool]:
    return reference.contains(as_array(hay), needles)


def slice_gt(arr: Any, x: int) -> SketchedIds:
    return SketchedIds(reference.slice_gt(as_array(arr), x))


def slice_lt(arr: Any, x: int) -> SketchedIds:
    return SketchedIds(reference.slice_lt(as_array(arr), x))


def intersect_count_many(
    arrays: Sequence[Iterable[int]],
    thresholds: Sequence[int],
    target: Any,
) -> Tuple[int, int]:
    return reference.intersect_count_many(arrays, thresholds, as_array(target))


# ----------------------------------------------------------------------
# estimate primitives
# ----------------------------------------------------------------------


def _pair_charge(params: SketchParams, la: int, lb: int) -> int:
    """Work units one estimated pair charges: registers examined.

    Minwise examines at most ``k`` registers per side.  Sketch
    *builds* are uncharged, like ``as_array`` conversions: they are
    index construction, cached on each vertex's handle across tasks.
    """
    return min(params.k, la) + min(params.k, lb)


def _jaccard_to_count(j: float, total: int) -> float:
    """The monotone transform ``|A∩B| = J·(|A|+|B|)/(1+J)``."""
    return j * total / (1.0 + j)


def _minwise_pair_estimate(
    sa: MinwiseSketch, sb: MinwiseSketch, z: float
) -> Estimate:
    if sa.full and sb.full:
        # every element captured: the estimate degrades to the answer
        return exact_estimate(len(sa.value_set & sb.value_set))
    union = sa.merge(sb)
    kk = len(union.pairs)
    # membership against the originals is exact for union-sample
    # elements: a bottom-k hash of A∪B that belongs to A is necessarily
    # among A's k smallest
    y = sum(
        1 for _, v in union.pairs if v in sa.value_set and v in sb.value_set
    )
    j, j_lo, j_hi = wilson_interval(y, kk, z)
    total = sa.n + sb.n
    cap = float(min(sa.n, sb.n))
    point = min(_jaccard_to_count(j, total), cap)
    lo = min(_jaccard_to_count(j_lo, total), cap)
    hi = min(_jaccard_to_count(j_hi, total), cap)
    return Estimate(point=point, lo=lo, hi=hi, std=(hi - lo) / (2.0 * z))


def _estimate_pair(a: Any, b: Any, params: SketchParams) -> Tuple[Estimate, int]:
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return exact_estimate(0), 0
    z = params.z
    charge = _pair_charge(params, la, lb)
    est = _minwise_pair_estimate(sketch_of(a, params), sketch_of(b, params), z)
    return est, charge


def intersect_count_estimate(a: Any, b: Any) -> Tuple[Estimate, int]:
    """Estimated ``|a ∩ b|`` with a CI: ``(estimate, scanned)``.

    ``scanned`` is the sketch registers examined — the work-unit
    charge, replacing the ``len(a)``-proportional exact scan.
    """
    return _estimate_pair(as_array(a), as_array(b), get_params())


def intersect_count_many_estimate(
    arrays: Sequence[Iterable[int]], target: Any
) -> Tuple[Estimate, int]:
    """Batched ``Σ |aᵢ ∩ target|`` estimate: ``(estimate, scanned)``.

    The threshold-free analogue of :func:`intersect_count_many`.

    Combination is deliberately *conservative*: every pair in the batch
    shares the target's sketch, so their errors are positively
    correlated and summing variances (independence) would understate
    the batch interval badly.  Per-pair standard errors are summed
    instead — exact under perfect correlation, an upper bound under
    partial — and only *across* batches (distinct targets) do
    intervals combine by variance (:func:`sum_estimates`).

    The charge mirrors the exact primitive's model: exact
    ``intersect_count_many`` charges ``Σ len(aᵢ)`` — the arrays side
    only, with the target amortised — so the sketch charges
    ``Σ min(k, len(aᵢ))`` plus the target's ``min(k, len(target))``
    once per batch.
    """
    params = get_params()
    target = as_array(target)
    lt = len(target)
    point = 0.0
    std = 0.0
    exact = True
    scanned = 0
    any_pairs = False
    for raw in arrays:
        arr = as_array(raw)
        est, _ = _estimate_pair(arr, target, params)
        point += est.point
        std += est.std
        exact = exact and est.exact
        if len(arr) and lt:
            any_pairs = True
            scanned += min(params.k, len(arr))
    if any_pairs:
        scanned += min(params.k, lt)
    if exact or std == 0.0:
        return Estimate(point=point, lo=point, hi=point, std=0.0, exact=exact), scanned
    half = params.z * std
    est = Estimate(
        point=point, lo=max(0.0, point - half), hi=point + half, std=std
    )
    return est, scanned


def _exact_jaccard(a: Any, b: Any) -> float:
    la, lb = len(a), len(b)
    inter = reference.intersect_count(a, b)
    union_size = la + lb - inter
    if union_size == 0:
        return 1.0
    return inter / union_size


def jaccard_ge(a: Any, b: Any, tau: float) -> Tuple[bool, int]:
    """Certified threshold test ``J(a, b) >= tau``: ``(verdict, scanned)``.

    The estimate is used only when its confidence interval is decisive
    (entirely on one side of ``tau``) or the sketches capture both sets
    in full; otherwise the raw sorted arrays are compared exactly and
    the extra scan is charged.  Thresholded *decisions* therefore never
    carry unbounded error — only bounded-confidence error on decisive
    intervals — which is what CD's membership filter needs.
    """
    a, b = as_array(a), as_array(b)
    la, lb = len(a), len(b)
    if la == 0 and lb == 0:
        return True, 0  # J = 1.0 by convention, >= any valid tau
    params = get_params()
    charge = _pair_charge(params, la, lb)
    sa, sb = sketch_of(a, params), sketch_of(b, params)
    if sa.full and sb.full:
        return _exact_jaccard(a, b) >= tau, charge
    union = sa.merge(sb)
    y = sum(1 for _, v in union.pairs if v in sa.value_set and v in sb.value_set)
    _, j_lo, j_hi = wilson_interval(y, len(union.pairs), params.z)
    if j_lo >= tau:
        return True, charge
    if j_hi < tau:
        return False, charge
    # undecided: certify exactly on the raw arrays
    return _exact_jaccard(a, b) >= tau, charge + la + lb


def weighted_similarity_estimate(
    a: Any,
    b: Any,
    weights: Dict[int, float],
    default_weight: float = _DEFAULT_UNFOCUSED_WEIGHT,
) -> Tuple[float, int]:
    """Weighted attribute similarity from sketches: ``(score, scanned)``.

    Fully captured sets (minwise, ``|set| <= k``) reproduce
    :func:`repro.graph.attributes.weighted_similarity_sorted` bit-for-
    bit — both sums run in ascending attribute order.  Larger sets use
    a ratio estimator over the bottom-k union sample: the sample is
    uniform over ``A ∪ B``, so the sampled weight ratio estimates the
    population ratio (the union cardinality cancels).
    """
    a, b = as_array(a), as_array(b)
    la, lb = len(a), len(b)
    params = get_params()
    sa, sb = sketch_of(a, params), sketch_of(b, params)
    if not (sa.full and sb.full):
        union = sa.merge(sb)
        shared = [
            v for _, v in union.pairs if v in sa.value_set and v in sb.value_set
        ]
        score = sum(weights.get(attr, 0.0) for attr in shared)
        norm = sum(weights.get(v, default_weight) for _, v in union.pairs)
        charge = _pair_charge(params, la, lb)
        return (score / norm if norm else 0.0), charge
    # exact path: ascending-order sums, identical to the exact kernels
    score = sum(
        weights.get(attr, 0.0) for attr in reference.intersect(a, b)
    )
    norm = sum(
        weights.get(attr, default_weight) for attr in reference.union(a, b)
    )
    return (score / norm if norm else 0.0), la + lb
