"""Single-task behavior: gains, and the split search, growth, prediction and
serialization of the T=1 tree."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helpers
from bouts.errors import NumericalError
from bouts.multitask import MultitaskTree, grow_multitask_tree, maximin_split
from bouts.trees import (
    FRIEDMAN,
    VARIANCE,
    TreeParams,
    raw_gain,
    scan_columns,
    sort_rows,
)
from helpers import predict

X4 = np.array([[1.0], [2.0], [3.0], [4.0]])
Y4 = np.array([0.0, 0.0, 1.0, 1.0])
LOOSE = TreeParams(max_depth=1, min_samples_leaf=1, min_gain=0.0, criterion=VARIANCE)


def prepared(X):
    """The (n, d) matrix ``X`` prepared as a node."""
    return sort_rows(np.ascontiguousarray(np.asarray(X, dtype=float).T))


def best_split(X, y, used, lam, params):
    """The split search on a one-task node."""
    return maximin_split([prepared(X)], [np.asarray(y, dtype=float)], used, lam, params)


def grow(X, y, lam=0.0, params=None):
    """A T=1 tree grown on one task."""
    tree, _ = grow_multitask_tree([prepared(X)], [np.asarray(y, dtype=float)],
                                  lambda_u=lam, params=params)
    return tree


class TestTreeParams:
    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"max_depth": 0}, "max_depth"),
            ({"min_samples_leaf": 0}, "min_samples_leaf"),
            ({"min_gain": -1e-9}, "min_gain"),
            ({"min_gain": float("nan")}, "min_gain"),
            ({"criterion": "gini"}, "criterion"),
        ],
    )
    def test_rejects_bad_values(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            TreeParams(**kwargs)

    def test_infinite_gain_floor_is_valid(self):
        assert TreeParams(min_gain=float("inf")).min_gain == float("inf")


class TestRawGain:
    def test_variance_example(self):
        assert raw_gain(X4[:, 0], Y4, 2.0, VARIANCE) == pytest.approx(0.25)

    def test_friedman_example(self):
        assert raw_gain(X4[:, 0], Y4, 2.0, FRIEDMAN) == pytest.approx(1.0)

    def test_pure_node_zero_gain(self):
        assert raw_gain(X4[:, 0], np.ones(4), 2.0, VARIANCE) == pytest.approx(0.0)

    def test_empty_child_rejected(self):
        with pytest.raises(ValueError):
            raw_gain(X4[:, 0], Y4, 9.0, VARIANCE)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_variance_gain_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 20))
        X = rng.normal(size=(n, 2))
        y = rng.normal(size=n)
        v = float(np.sort(X[:, 0])[n // 2 - 1] if n > 2 else X[0, 0])
        left = (X[:, 0] <= v).sum()
        if left == 0 or left == n:
            return
        assert raw_gain(X[:, 0], y, v, VARIANCE) >= -1e-12


class TestBestSplitSingle:
    def test_basic_example(self):
        cand = best_split(X4, Y4, frozenset(), 0.0, LOOSE)
        assert cand.feature == 0
        assert cand.thresholds[0] == pytest.approx(2.5)
        assert cand.gains[0] == pytest.approx(0.25)

    def test_penalty_blocks_split(self):
        assert best_split(X4, Y4, frozenset(), 0.3, LOOSE) is None

    def test_tie_break_lowest_feature(self):
        X = np.hstack([X4, X4])
        cand = best_split(X, Y4, frozenset(), 0.0, LOOSE)
        assert cand.feature == 0

    def test_min_samples_leaf_respected(self):
        params = TreeParams(max_depth=1, min_samples_leaf=2, min_gain=0.0, criterion=VARIANCE)
        cand = best_split(X4, np.array([0.0, 1.0, 1.0, 1.0]), frozenset(), 0.0, params)
        # v=1.5 would isolate one sample; the best 2-per-side split remains.
        assert cand.thresholds[0] == pytest.approx(2.5)

    def test_no_split_on_constant_feature(self):
        assert best_split([[1.0]] * 4, Y4, frozenset(), 0.0, LOOSE) is None


class TestSplitPreparation:
    def test_tie_free_task_masks_nothing(self):
        X = np.random.default_rng(8).normal(size=(20, 3))
        distinct = helpers.distinct(prepared(X))
        assert distinct.shape == (3, 19)
        assert distinct.all()

    def test_one_repeated_value_masks_one_boundary(self):
        X = np.random.default_rng(9).normal(size=(20, 3))
        X[5, 1] = X[2, 1]
        distinct = helpers.distinct(prepared(X))
        assert distinct.shape == (3, 19)
        assert np.count_nonzero(~distinct) == 1
        assert not distinct[1].all()

    @pytest.mark.parametrize("criterion", [VARIANCE, FRIEDMAN])
    def test_scan_of_no_features(self, criterion):
        y = np.arange(10.0)
        node = sort_rows(np.empty((0, 10)))
        cand = scan_columns(helpers.order(node), helpers.distinct(node), y, 2, criterion)
        assert cand.shape == (0, 7)


@st.composite
def rows_and_subset(draw):
    """A feature-major (d, n) matrix whose rows are tie-free or take 2 to 63
    levels, and an ascending subset of its columns."""
    n = draw(st.integers(1, 60))
    levels = draw(st.lists(st.sampled_from([None, *range(2, 64)]), min_size=1, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    XT = np.array([rng.normal(size=n) if k is None else rng.normal(size=k)[rng.integers(0, k, size=n)]
                   for k in levels])
    keep = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    return XT, np.flatnonzero(keep)


class TestSubset:
    @given(rows_and_subset())
    @settings(max_examples=200, deadline=None)
    def test_subset_is_the_gathered_node(self, case):
        XT, idx = case
        root = sort_rows(XT)
        got, want = root.subset(idx), sort_rows(XT[:, idx])
        assert got.root_XT is root.root_XT  # the node gathers no rows of its own
        for f in range(XT.shape[0]):
            np.testing.assert_array_equal(got.column(f), want.root_XT[f])
        np.testing.assert_array_equal(helpers.order(got), helpers.order(want))
        np.testing.assert_array_equal(helpers.distinct(got), helpers.distinct(want))
        stable = np.argsort(XT[:, idx], axis=1, kind="stable")
        np.testing.assert_array_equal(helpers.order(got), stable)
        for f, j in np.ndindex(XT.shape[0], max(idx.size - 1, 0)):
            assert helpers.threshold(got, f, j, 1) == helpers.threshold(want, f, j, 1)

    @given(rows_and_subset(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_rows_of_some_features_are_those_of_the_gathered_node(self, case, data):
        XT, idx = case
        d = XT.shape[0]
        index_arrays = st.lists(st.integers(0, d - 1), max_size=2 * d).map(
            lambda fs: np.array(fs, dtype=np.intp))
        ends = st.none() | st.integers(-d - 1, d + 1)
        slices = st.builds(slice, ends, ends, st.sampled_from([None, 1, 2, -1]))
        features = data.draw(index_arrays | slices)
        want = sort_rows(XT[:, idx])
        order, distinct = sort_rows(XT).subset(idx).rows(features)
        np.testing.assert_array_equal(order, helpers.order(want)[features])
        np.testing.assert_array_equal(distinct, helpers.distinct(want)[features])
        assert order.dtype == np.intp

    def test_node_arrays_are_c_contiguous_and_keep_no_ranks(self):
        XT = np.random.default_rng(3).normal(size=(4, 30))
        root = sort_rows(XT)
        node = root.subset(np.arange(0, 30, 3))
        assert root.ranks.dtype == np.int32 and node.ranks is None
        assert helpers.order(node).dtype == np.intp
        for a in (helpers.order(node), helpers.distinct(node)):
            assert a.flags.c_contiguous

    def test_wide_keys_past_two_to_the_fifteen_rows(self):
        rng = np.random.default_rng(11)
        XT = rng.integers(0, 7, size=(2, 40_000)).astype(float)
        root = sort_rows(XT)
        assert root.ranks.dtype == np.int64
        np.testing.assert_array_equal(helpers.order(root), np.argsort(XT, axis=1, kind="stable"))
        idx = np.flatnonzero(rng.random(40_000) < 0.5)
        node = root.subset(idx)
        stable = np.argsort(XT[:, idx], axis=1, kind="stable")
        np.testing.assert_array_equal(helpers.order(node), stable)
        want = helpers.distinct(sort_rows(XT[:, idx]))
        np.testing.assert_array_equal(helpers.distinct(node), want)


class TestGrowTree:
    def test_pure_targets_single_leaf(self):
        tree = grow(X4, np.full(4, 7.0), params=LOOSE)
        assert tree.is_stump_leaf and tree.values[0][0] == pytest.approx(7.0)

    def test_stump_example(self):
        tree = grow(X4, Y4, params=LOOSE)
        assert tree.feature[0] == 0
        assert tree.thresholds[0][0] == pytest.approx(2.5)
        leaves = sorted(tree.values[i][0] for i in (tree.left[0], tree.right[0]))
        assert leaves == pytest.approx([0.0, 1.0])
        assert tree.features_used == {0}

    def test_full_partition_memorizes(self):
        # Dyadic target on an ordered feature: greedy splits stay balanced,
        # so depth 3 isolates all 8 samples.
        X = np.arange(8.0).reshape(-1, 1)
        y = np.array([0.0, 1.0, 10.0, 11.0, 100.0, 101.0, 110.0, 111.0])
        params = TreeParams(max_depth=3, min_samples_leaf=1, min_gain=0.0, criterion=VARIANCE)
        tree = grow(X, y, params=params)
        assert np.allclose(predict(tree, 0, X), y)

    def test_depth_limit(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(64, 3))
        y = rng.normal(size=64)
        params = TreeParams(max_depth=2, min_samples_leaf=1, min_gain=0.0, criterion=VARIANCE)
        tree = grow(X, y, params=params)
        # Depth 2 allows at most 3 internal nodes.
        assert sum(1 for f in tree.feature if f != MultitaskTree.LEAF) <= 3

    def test_ancestor_feature_counts_as_used(self):
        # Pick a penalty above every sub-root raw gain but below the root
        # gain: the root buys feature 0, and deeper splits on it only
        # happen because a freshly introduced feature is reuse, not a new
        # purchase.
        rng = np.random.default_rng(5)
        X = rng.normal(size=(64, 2))
        y = 3.0 * X[:, 0]
        params = TreeParams(max_depth=3, min_samples_leaf=1, min_gain=0.0, criterion=VARIANCE)
        free = grow(X, y, params=params)
        internal = [i for i in range(free.n_nodes) if not free.is_leaf(i)]
        root_gain = free.gains[0][0]
        deeper_max = max(free.gains[i][0] for i in internal if i != 0)
        assert deeper_max < root_gain
        lam = (deeper_max + root_gain) / 2.0
        tree = grow(X, y, lam=lam, params=params)
        deep_internal = [i for i in range(tree.n_nodes) if not tree.is_leaf(i) and i != 0]
        assert tree.feature[0] == 0
        assert deep_internal, "reused feature should split below the root penalty-free"
        assert tree.features_used == {0}

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_leaf_mean_optimality(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(20, 2))
        y = rng.normal(size=20)
        tree = grow(X, y, params=TreeParams(min_samples_leaf=2, criterion=VARIANCE))
        base = float(np.mean((y - predict(tree, 0, X)) ** 2))
        for i in range(tree.n_nodes):
            if not tree.is_leaf(i):
                continue
            original = tree.values[i][0]
            for bump in (0.1, -0.3):
                tree.values[i][0] = original + bump
                assert float(np.mean((y - predict(tree, 0, X)) ** 2)) >= base - 1e-12
            tree.values[i][0] = original


class TestPredict:
    def test_single_leaf_constant(self):
        tree = MultitaskTree.from_dict({"nodes": [{"value": 2.0}]}, 1, 1)
        assert predict(tree, 0, np.array([[123.0]]))[0] == 2.0

    def test_stump_routing(self):
        tree = grow(X4, Y4, params=LOOSE)
        assert predict(tree, 0, np.array([[1.0], [4.0]])) == pytest.approx([0.0, 1.0])

    def test_boundary_goes_left(self):
        tree = grow(X4, Y4, params=LOOSE)
        assert predict(tree, 0, np.array([[2.5]]))[0] == pytest.approx(0.0)

    def test_nan_at_referenced_feature_errors(self):
        tree = grow(X4, Y4, params=LOOSE)
        with pytest.raises(NumericalError):
            predict(tree, 0, np.array([[np.nan]]))
        with pytest.raises(NumericalError):
            predict(tree, 0, np.array([[1.0], [np.nan]]))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(40, 3))
        y = rng.normal(size=40)
        tree = grow(X, y, params=TreeParams(min_samples_leaf=2))
        batch = predict(tree, 0, X)
        singles = [predict(tree, 0, X[i : i + 1])[0] for i in range(len(y))]
        assert np.allclose(batch, singles)


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        tree = grow(X, y, params=TreeParams(min_samples_leaf=2))
        encoded = tree.to_dict(scalar=True)
        assert "n_tasks" not in encoded
        assert {"value"} in [set(n) for n in encoded["nodes"]]
        clone = MultitaskTree.from_dict(encoded, 3, 1)
        assert clone.n_tasks == 1
        np.testing.assert_array_equal(clone.feature, tree.feature)
        np.testing.assert_array_equal(clone.thresholds, tree.thresholds)
        assert np.allclose(predict(clone, 0, X), predict(tree, 0, X))
        assert clone.features_used == tree.features_used
        assert clone.to_dict(scalar=True) == encoded
