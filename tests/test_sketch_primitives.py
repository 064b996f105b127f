"""Property tests (hypothesis) for the sketch backend's primitives.

The algebra first — deterministic seeded builds, order independence,
commutative/associative merges, exactness on fully captured sets — then
the statistics: error shrinks monotonically with sketch width, Wilson
intervals are well-formed, independent pair estimates hit their stated
coverage.  The backend's
*exact* operation surface (everything other than the estimate
primitives) is also pinned against the reference backend: the sketch
backend must be a pure superset, not a fork.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.kernels import reference
from repro.kernels.sketch import (
    Estimate,
    MinwiseSketch,
    SketchParams,
    exact_estimate,
    intersect_count_estimate,
    sketch_of,
    sum_estimates,
    use_params,
    wilson_interval,
)

pytestmark = [pytest.mark.sketch, pytest.mark.property]

settings.register_profile(
    "repro-sketch", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("repro-sketch")

value_sets = st.lists(st.integers(0, 10_000), min_size=0, max_size=60)
ks = st.integers(8, 64)
salts = st.integers(0, 2**64 - 1)


# ------------------------------------------------------------ algebra


@given(value_sets, ks, salts)
def test_build_deterministic_and_order_independent(values, k, salt):
    a = MinwiseSketch.build(values, k, salt)
    b = MinwiseSketch.build(list(reversed(values)), k, salt)
    shuffled = list(values)
    random.Random(k).shuffle(shuffled)
    c = MinwiseSketch.build(shuffled, k, salt)
    assert a == b == c
    assert a.pairs == tuple(sorted(a.pairs))
    assert len(a.pairs) <= k


@given(value_sets, salts)
def test_build_salt_sensitivity(values, salt):
    if not values:
        return
    a = MinwiseSketch.build(values, 16, salt)
    b = MinwiseSketch.build(values, 16, salt ^ 1)
    # same values under different salts hash differently (pairs differ
    # unless the set is tiny enough that all of it is captured either way)
    assert a.value_set == b.value_set or a.pairs != b.pairs


@given(value_sets, value_sets, ks, salts)
def test_merge_commutative(xs, ys, k, salt):
    a = MinwiseSketch.build(xs, k, salt)
    b = MinwiseSketch.build(ys, k, salt)
    assert a.merge(b) == b.merge(a)


@given(value_sets, value_sets, value_sets, ks, salts)
def test_merge_associative(xs, ys, zs, k, salt):
    a = MinwiseSketch.build(xs, k, salt)
    b = MinwiseSketch.build(ys, k, salt)
    c = MinwiseSketch.build(zs, k, salt)
    assert a.merge(b).merge(c) == a.merge(b.merge(c))


@given(value_sets, ks, salts)
def test_merge_idempotent(values, k, salt):
    a = MinwiseSketch.build(values, k, salt)
    assert a.merge(a).pairs == a.pairs


def test_merge_rejects_mismatched_params():
    a = MinwiseSketch.build([1, 2], 8, 3)
    with pytest.raises(ValueError):
        a.merge(MinwiseSketch.build([1, 2], 16, 3))
    with pytest.raises(ValueError):
        a.merge(MinwiseSketch.build([1, 2], 8, 4))


# ------------------------------------------------- full-capture exactness


@given(st.lists(st.integers(0, 10_000), min_size=0, max_size=8), salts)
def test_full_capture_is_exact(values, salt):
    sk = MinwiseSketch.build(values, 8, salt)
    assert sk.full
    assert sk.size_estimate() == len(set(values))
    assert sk.value_set == set(values)


@given(
    st.lists(st.integers(0, 50), min_size=0, max_size=8),
    st.lists(st.integers(0, 50), min_size=0, max_size=8),
    st.integers(0, 100),
)
def test_pair_estimate_exact_on_small_sets(xs, ys, seed):
    # with both sides fully captured the estimate is the true count
    # with a zero-width interval, whatever the accuracy knob
    params = SketchParams(epsilon=0.5, confidence=0.9, seed=seed)
    assert params.k == 8
    with use_params(params):
        est, scanned = intersect_count_estimate(
            reference.as_array(xs), reference.as_array(ys)
        )
    truth = len(set(xs) & set(ys))
    assert est.exact
    assert est.point == est.lo == est.hi == truth
    assert scanned >= 0


# ------------------------------------------------------- statistics


def _random_pair(rng, size, overlap):
    shared = [rng.randrange(1 << 30) for _ in range(overlap)]
    a = shared + [rng.randrange(1 << 30) for _ in range(size - overlap)]
    b = shared + [rng.randrange(1 << 30) for _ in range(size - overlap)]
    return a, b


def _mean_rel_error(accuracy, trials=40, size=400):
    epsilon, confidence = accuracy
    errors = []
    for trial in range(trials):
        rng = random.Random(10_000 + trial)
        a, b = _random_pair(rng, size, rng.randrange(40, size))
        truth = len(set(a) & set(b))
        params = SketchParams(
            epsilon=epsilon, confidence=confidence, seed=trial
        )
        with use_params(params):
            est, _ = intersect_count_estimate(
                reference.as_array(a), reference.as_array(b)
            )
        assert not est.exact  # the sets must outsize the sketch
        errors.append(abs(est.point - truth) / truth)
    return sum(errors) / len(errors)


def test_error_shrinks_as_width_grows():
    # wider sketches (smaller epsilon -> larger k) estimate better;
    # seeded trials make the comparison deterministic
    coarse = _mean_rel_error((0.5, 0.9))  # k = 8
    fine = _mean_rel_error((0.04, 0.9))  # k = 68
    assert fine <= coarse + 0.01


def test_pair_ci_containment_rate():
    # independent seeded pairs: the stated two-sided interval must
    # cover the truth at roughly its nominal rate (slack for the
    # transform through the Jaccard mapping and finite trials)
    confidence = 0.9
    trials, hits = 120, 0
    for trial in range(trials):
        rng = random.Random(20_000 + trial)
        a, b = _random_pair(rng, 300, rng.randrange(30, 300))
        truth = len(set(a) & set(b))
        params = SketchParams(epsilon=0.1, confidence=confidence, seed=trial)
        with use_params(params):
            est, _ = intersect_count_estimate(
                reference.as_array(a), reference.as_array(b)
            )
        if est.lo <= truth <= est.hi:
            hits += 1
    assert hits / trials >= confidence - 0.12


@given(st.integers(0, 500), st.integers(0, 500), st.floats(0.5, 4.0))
def test_wilson_interval_is_well_formed(y, n, z):
    y = min(y, n)
    p, lo, hi = wilson_interval(y, n, z)
    assert 0.0 <= lo <= hi <= 1.0
    if n > 0:
        assert p == y / n
        assert lo <= p + 1e-12 and p - 1e-12 <= hi
    else:
        assert (p, lo, hi) == (0.0, 0.0, 1.0)


# --------------------------------------------------- estimates algebra


def test_exact_estimate_and_scaling():
    est = exact_estimate(10).scaled(0.5)
    assert est == Estimate(point=5.0, lo=5.0, hi=5.0, exact=True)
    total = sum_estimates([exact_estimate(3), exact_estimate(4)])
    assert total.exact and total.point == 7.0


def test_sum_estimates_widens_with_uncertainty():
    fuzzy = Estimate(point=100.0, lo=90.0, hi=110.0, std=5.0)
    total = sum_estimates([fuzzy, exact_estimate(50)])
    assert not total.exact
    assert total.lo <= 150.0 <= total.hi
    assert total.point == 150.0


# ------------------------------------------- caching and delegation


def test_sketch_of_caches_per_params():
    arr = None
    with kernels.use_backend("sketch"):
        arr = kernels.as_array(range(100))
    p1 = SketchParams(epsilon=0.1, confidence=0.9, seed=1)
    p2 = SketchParams(epsilon=0.02, confidence=0.99, seed=1)
    first = sketch_of(arr, p1)
    assert sketch_of(arr, p1) is first  # memoised on the handle
    rebuilt = sketch_of(arr, p2)  # different shape: rebuilt
    assert rebuilt is not first and rebuilt.k != first.k


@given(value_sets, value_sets)
def test_exact_ops_delegate_to_reference(xs, ys):
    """The sketch backend's exact surface is bit-identical to reference."""
    with kernels.use_backend("reference"):
        ref_a, ref_b = kernels.as_array(xs), kernels.as_array(ys)
        expected = {
            "intersect": kernels.tolist(kernels.intersect(ref_a, ref_b)),
            "union": kernels.tolist(kernels.union(ref_a, ref_b)),
            "count": kernels.intersect_count(ref_a, ref_b),
            "many": kernels.intersect_count_many([ref_a, ref_b], [0, 0], ref_b),
            "slice": kernels.tolist(kernels.slice_gt(ref_a, 5_000)),
            "contains": kernels.contains(ref_a, ys[:5]),
        }
    with kernels.use_backend("sketch"):
        sk_a, sk_b = kernels.as_array(xs), kernels.as_array(ys)
        observed = {
            "intersect": kernels.tolist(kernels.intersect(sk_a, sk_b)),
            "union": kernels.tolist(kernels.union(sk_a, sk_b)),
            "count": kernels.intersect_count(sk_a, sk_b),
            "many": kernels.intersect_count_many([sk_a, sk_b], [0, 0], sk_b),
            "slice": kernels.tolist(kernels.slice_gt(sk_a, 5_000)),
            "contains": kernels.contains(sk_a, ys[:5]),
        }
    assert observed == expected
