"""Unit tests for attribute spaces and similarity measures."""

import inspect

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.graph import attributes
from repro.graph.attributes import (
    AttributeSpace,
    infer_attribute_weights,
    jaccard_similarity,
    overlap_count,
    sorted_unique,
    weighted_similarity,
)


class TestAttributeSpace:
    def test_encode_decode_roundtrip(self):
        space = AttributeSpace(dimensions=5, values_per_dimension=10)
        for dim in range(5):
            for value in (1, 5, 10):
                attr = space.encode(dim, value)
                assert space.decode(attr) == (dim, value)

    def test_describe(self):
        space = AttributeSpace()
        assert space.describe(space.encode(0, 7)) == "A7"
        assert space.describe(space.encode(4, 10)) == "E10"

    def test_bounds_checked(self):
        space = AttributeSpace(dimensions=2, values_per_dimension=3)
        with pytest.raises(ValueError):
            space.encode(2, 1)
        with pytest.raises(ValueError):
            space.encode(0, 0)
        with pytest.raises(ValueError):
            space.encode(0, 4)

    def test_total_values(self):
        assert AttributeSpace(dimensions=4, values_per_dimension=20).total_values == 80


class TestJaccard:
    def test_identical(self):
        assert jaccard_similarity([1, 2, 3], [3, 2, 1]) == 1.0

    def test_disjoint(self):
        assert jaccard_similarity([1, 2], [3, 4]) == 0.0

    def test_partial(self):
        assert jaccard_similarity([1, 2, 3], [2, 3, 4]) == pytest.approx(0.5)

    def test_both_empty(self):
        assert jaccard_similarity([], []) == 1.0

    def test_overlap_count(self):
        assert overlap_count([1, 2, 3], [2, 3, 9]) == 2


class TestWeightedSimilarity:
    def test_only_weighted_attrs_count(self):
        weights = {1: 1.0}
        # unfocused 2 and 3 dilute the denominator slightly
        assert weighted_similarity([1, 2], [1, 3], weights) == pytest.approx(
            1.0 / 1.06, abs=1e-6
        )

    def test_mismatched_weighted_attr_penalises(self):
        weights = {1: 0.5, 2: 0.5}
        # share 1, differ on 2 (9 is unfocused: denominator-only)
        assert weighted_similarity([1, 2], [1, 9], weights) == pytest.approx(
            0.5 / 1.03, abs=1e-6
        )

    def test_unfocused_shared_attrs_score_nothing(self):
        # identical attribute lists outside the focus: similarity 0
        assert weighted_similarity([8, 9], [8, 9], {1: 1.0}) == 0.0

    def test_no_weights_zero(self):
        assert weighted_similarity([1], [1], {}) == 0.0


class TestInferWeights:
    def test_consensus_attribute_dominates(self):
        exemplars = [[1, 2], [1, 3], [1, 4]]
        weights = infer_attribute_weights(exemplars)
        assert weights[1] > weights[2]
        assert weights[1] > weights[3]

    def test_weights_normalised(self):
        weights = infer_attribute_weights([[1, 2], [2, 3]])
        assert sum(weights.values()) == pytest.approx(1.0)

    def test_empty_exemplars(self):
        assert infer_attribute_weights([]) == {}

    def test_exemplars_without_attributes(self):
        assert infer_attribute_weights([[], []]) == {}


class TestSortedUnique:
    def test_ascending_tuple_is_returned_untouched(self):
        attrs = (3, 1004, 2007)
        assert sorted_unique(attrs) is attrs
        assert sorted_unique(()) == ()

    @pytest.mark.parametrize(
        "attrs, expected",
        [
            ((2, 1), (1, 2)),
            ((1, 1, 2), (1, 2)),
            ([1, 2, 3], (1, 2, 3)),
            ([3, 3, 1], (1, 3)),
            (iter([2, 1, 2]), (1, 2)),
        ],
    )
    def test_everything_else_is_normalised(self, attrs, expected):
        assert sorted_unique(attrs) == expected


# ---- the merge vs the kernel-handle implementation it replaced ----------
#
# Frozen copy of graph/attributes.py as of PR 21: every similarity went
# through kernels.unique_sorted / intersect / union / tolist.  Kept here
# as the reference the two-pointer merge must equal float for float on
# every installed exact backend.


def _frozen_jaccard(a, b):
    ia, ib = kernels.unique_sorted(a), kernels.unique_sorted(b)
    la, lb = len(ia), len(ib)
    if not la and not lb:
        return 1.0
    inter = kernels.intersect_count(ia, ib)
    return inter / (la + lb - inter)


def _frozen_overlap(a, b):
    return kernels.intersect_count(kernels.unique_sorted(a), kernels.unique_sorted(b))


def _frozen_weighted(a, b, weights, default_weight=attributes.DEFAULT_UNFOCUSED_WEIGHT):
    ia, ib = kernels.unique_sorted(a), kernels.unique_sorted(b)
    score = sum(
        weights.get(attr, 0.0) for attr in kernels.tolist(kernels.intersect(ia, ib))
    )
    norm = sum(
        weights.get(attr, default_weight)
        for attr in kernels.tolist(kernels.union(ia, ib))
    )
    if norm == 0.0:
        return 0.0
    return score / norm


# unsorted, with duplicates, often empty, drawn from a universe small
# enough that the two sides overlap and most keys are in the table
attr_lists = st.lists(st.integers(0, 15), max_size=12)
# a key missing from the table falls back to the default weight; the
# sampled values do not add associatively (0.1 + 0.2 + 0.3 != 0.3 + 0.2
# + 0.1, 1e16 absorbs 1.0), so a sum taken in any other order shows
weight_tables = st.dictionaries(
    st.integers(0, 15),
    st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.7, 1.0 / 3.0, 1.0, 1e-9, 1e16])
    | st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    max_size=16,
)


@pytest.mark.property
@pytest.mark.parametrize("backend", kernels.available_backends())
class TestMergeEqualsFrozenKernelHandles:
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(a=attr_lists, b=attr_lists)
    def test_jaccard_and_overlap(self, backend, a, b):
        with kernels.use_backend(backend):
            expected = _frozen_jaccard(a, b), _frozen_overlap(a, b)
        assert (jaccard_similarity(a, b), overlap_count(a, b)) == expected
        assert jaccard_similarity(a, b) == jaccard_similarity(b, a)
        assert jaccard_similarity(tuple(a), tuple(b)) == expected[0]

    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        a=attr_lists,
        b=attr_lists,
        weights=weight_tables,
        default_weight=st.sampled_from([attributes.DEFAULT_UNFOCUSED_WEIGHT, 0.0, 0.5]),
    )
    def test_weighted(self, backend, a, b, weights, default_weight):
        with kernels.use_backend(backend):
            expected = _frozen_weighted(a, b, weights, default_weight)
        got = weighted_similarity(a, b, weights, default_weight)
        # == on floats: same weights added in the same order by the
        # same builtin sum(), so not one bit may differ
        assert got == expected
        assert got == weighted_similarity(b, a, weights, default_weight)
        assert got == weighted_similarity(tuple(a), tuple(b), weights, default_weight)


def test_attributes_module_does_not_reach_the_kernel_layer():
    """Attribute lists are not kernel clients (DESIGN.md, kernel layer):
    the acceptance grep of ISSUE 22, kept as a test."""
    assert "kernels" not in inspect.getsource(attributes)
