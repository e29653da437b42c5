"""Shared-topology trees and the maximin split rule."""

import numpy as np
import pytest

from bouts import multitask
from bouts.multitask import (
    MultitaskTree,
    grow_multitask_tree,
    maximin_split,
)
from bouts.trees import VARIANCE, TreeParams, raw_gain, scan_columns, sort_rows

LOOSE = TreeParams(max_depth=1, min_samples_leaf=1, min_gain=0.0, criterion=VARIANCE)
X4 = np.array([[1.0], [2.0], [3.0], [4.0]])
Y4 = np.array([0.0, 0.0, 1.0, 1.0])


def roots(Xs):
    """Each (n, d) matrix of ``Xs`` prepared as a node."""
    return [sort_rows(np.ascontiguousarray(np.asarray(X, dtype=float).T)) for X in Xs]


def view(pairs):
    """``maximin_split``'s nodes and targets for (X, y) pairs."""
    return roots([X for X, _ in pairs]), [np.asarray(y, dtype=float) for _, y in pairs]


def charged_gain(X, y, f, v, used, lam, criterion):
    """``raw_gain`` minus the charge ``lam`` when ``f`` is a new feature."""
    return raw_gain(X[:, f], y, v, criterion) - (0.0 if f in used else lam)


def two_feature_gains(g0: float, g1: float) -> tuple[np.ndarray, np.ndarray]:
    """An 8-sample task whose best variance gains on f0/f1 are g0/g1.

    Both features are balanced 0/1 indicators covering all four combinations
    twice, and y = a*x0 + b*x1 with a = 2*sqrt(g0), b = 2*sqrt(g1).  The
    design is orthogonal, so splitting on one feature removes exactly its
    own component: each feature has the single threshold 0.5 with variance
    gain a^2/4 resp. b^2/4, independent of the other coefficient.
    """
    a = 2.0 * np.sqrt(g0)
    b = 2.0 * np.sqrt(g1)
    x0 = np.array([0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
    x1 = np.array([0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 1.0])
    X = np.column_stack([x0, x1])
    y = a * x0 + b * x1
    return X, y


def brute_force_maximin(pairs, used, lam, params):
    """Independent enumeration of the maximin over features and thresholds."""
    T = len(pairs)
    d = pairs[0][0].shape[1]
    best = None
    for f in range(d):
        per_task = []
        for t in range(T):
            X, y = pairs[t]
            xs = np.unique(X[:, f])
            cand_best = None
            for lo, hi in zip(xs[:-1], xs[1:]):
                v = (lo + hi) / 2.0
                n_left = int((X[:, f] <= v).sum())
                if min(n_left, len(y) - n_left) < params.min_samples_leaf:
                    continue
                g = charged_gain(X, y, f, v, used, lam, params.criterion)
                if cand_best is None or g > cand_best[0]:
                    cand_best = (g, v)
            per_task.append(cand_best)
        if any(c is None for c in per_task):
            continue
        score = min(c[0] for c in per_task)
        if best is None or score > best[0]:
            best = (score, f, [c[1] for c in per_task])
    if best is None or best[0] <= params.min_gain:
        return None
    return best


class TestMaximinSplit:
    def test_single_task_degenerates(self):
        # With one task the maximin score is that task's penalized gain.
        mt = maximin_split(*view([(X4, Y4)]), frozenset(), 0.3, LOOSE)
        assert mt is None
        mt = maximin_split(*view([(X4, Y4)]), frozenset(), 0.1, LOOSE)
        assert mt.feature == 0
        assert mt.thresholds == (2.5,)
        want = charged_gain(X4, Y4, 0, 2.5, frozenset(), 0.1, VARIANCE)
        assert mt.gains[0] == want == mt.score

    def test_min_over_tasks_wins(self):
        # Per-task best raw gains f0:(0.25, 0.10), f1:(0.05, 0.30); the
        # worst-task comparison picks f0 (0.10 > 0.05).
        task_a = two_feature_gains(0.25, 0.05)
        task_b = two_feature_gains(0.10, 0.30)
        split = maximin_split(*view([task_a, task_b]), frozenset(), 0.0, LOOSE)
        assert split.feature == 0
        assert split.raw_gains == (pytest.approx(0.25), pytest.approx(0.10))
        assert split.score == pytest.approx(0.10)

    def test_lopsided_feature_loses(self):
        task_a = two_feature_gains(10.0, 0.2)
        task_b = two_feature_gains(0.0, 0.2)
        split = maximin_split(*view([task_a, task_b]), frozenset(), 0.0, LOOSE)
        assert split.feature == 1
        assert split.score == pytest.approx(0.2)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            T = int(rng.integers(1, 4))
            n = int(rng.integers(2, 17))
            d = int(rng.integers(1, 5))
            lam = float(rng.choice([0.0, 0.1, 0.5]))
            used = set(int(f) for f in rng.choice(d, size=rng.integers(0, d), replace=False))
            pairs = [(rng.normal(size=(n, d)), rng.normal(size=n)) for _ in range(T)]
            params = TreeParams(max_depth=1, min_samples_leaf=1, min_gain=0.0, criterion=VARIANCE)
            got = maximin_split(*view(pairs), used, lam, params)
            want = brute_force_maximin(pairs, used, lam, params)
            if want is None:
                assert got is None
                continue
            assert got.feature == want[1]
            assert got.score == pytest.approx(want[0], abs=1e-12)
            assert list(got.thresholds) == pytest.approx(want[2])

    def test_first_task_best_without_a_boundary_elsewhere(self):
        # f0 is task 0's best feature but constant on task 1, so it bounds
        # nothing (its score is -inf) and every other feature is scanned.
        rng = np.random.default_rng(16)
        X0, X1 = rng.normal(size=(12, 3)), rng.normal(size=(12, 3))
        X1[:, 0] = 1.0
        pairs = [(X0, 3.0 * X0[:, 0] + X0[:, 1]), (X1, X1[:, 1] + 0.1 * X1[:, 2])]
        nodes, ys = view(pairs)
        first = scan_columns(nodes[0].order, nodes[0].distinct, ys[0], 1, VARIANCE).max(axis=1)
        assert first.argmax() == 0
        got = maximin_split(nodes, ys, {0}, 0.0, LOOSE)
        want = brute_force_maximin(pairs, {0}, 0.0, LOOSE)
        assert got.feature == want[1] != 0
        assert got.score == pytest.approx(want[0], abs=1e-12)
        assert list(got.thresholds) == want[2]

    def test_near_tie_on_the_binding_task_keeps_the_lower_feature(self):
        # On task 0, f0 and f1 split at the same rows in a different order, so
        # the definition scores them alike but the scan puts f1 an ulp ahead.
        # Task 0 binds, so f1 sets the bound and f0 is kept only by the tie
        # margin; both tie on re-scoring and the lower index wins.
        step = np.repeat([0.0, 1.0], 10)
        x = np.arange(20.0)
        X0 = np.column_stack([x, np.r_[x[9::-1], x[:9:-1]]])
        y0 = step + 0.1 * np.random.default_rng(84).normal(size=20)
        nodes, ys = view([(X0, y0), (np.column_stack([x, x]), 10.0 * step)])
        cand = scan_columns(nodes[0].order, nodes[0].distinct, ys[0], 1, VARIANCE)
        g0, g1 = cand.max(axis=1)
        assert g0 < g1
        assert raw_gain(X0[:, 0], y0, 9.5, VARIANCE) == raw_gain(X0[:, 1], y0, 9.5, VARIANCE)
        split = maximin_split(nodes, ys, {0, 1}, 0.0, LOOSE)
        assert split.feature == 0
        assert split.thresholds == (9.5, 9.5)

    def test_tasks_beside_the_lead_scan_only_features_that_can_win(self, monkeypatch):
        rng = np.random.default_rng(17)
        d = 10
        pairs = []
        for n in (60, 40, 50):  # task 1 has the fewest rows, so it leads
            X = rng.normal(size=(n, d))
            pairs.append((X, 2.0 * X[:, 0] + 0.1 * rng.normal(size=n)))
        nodes, ys = view(pairs)
        rows = {t: [] for t in range(3)}  # per task, the features of each scan

        def recording(order, distinct, y, *args):
            rows[next(t for t in rows if y is ys[t])].append(len(order))
            return scan_columns(order, distinct, y, *args)

        monkeypatch.setattr(multitask, "scan_columns", recording)
        got = maximin_split(nodes, ys, {0}, 0.5, LOOSE)
        want = brute_force_maximin(pairs, {0}, 0.5, LOOSE)
        assert got.feature == want[1] == 0
        assert got.score == pytest.approx(want[0], abs=1e-12)
        assert rows[1] == [d]  # the lead scans every feature, once
        assert all(0 < sum(rows[t]) < d for t in (0, 2))

    def test_universality_of_gain(self):
        rng = np.random.default_rng(12)
        node = view([(rng.normal(size=(12, 3)), rng.normal(size=12)) for _ in range(3)])
        split = maximin_split(*node, frozenset(), 0.0, LOOSE)
        assert all(g >= split.score - 1e-12 for g in split.gains)


class TestGrowMultitaskTree:
    def test_pure_roots_single_leaf(self):
        tree, _ = grow_multitask_tree(
            roots([X4, X4]), [np.full(4, 2.0), np.full(4, -1.0)], params=LOOSE
        )
        assert tree.is_stump_leaf
        assert tree.values[0] == pytest.approx([2.0, -1.0])

    def test_stump_example(self):
        tree, _ = grow_multitask_tree(roots([X4, X4]), [Y4, Y4], params=LOOSE)
        assert tree.feature[0] == 0
        assert tree.thresholds[0] == pytest.approx([2.5, 2.5])
        for t in range(2):
            leaves = sorted(tree.values[i][t] for i in (tree.left[0], tree.right[0]))
            assert leaves == pytest.approx([0.0, 1.0])

    def test_any_task_too_small_stops(self):
        params = TreeParams(max_depth=2, min_samples_leaf=2, min_gain=0.0, criterion=VARIANCE)
        small = (np.array([[1.0], [2.0], [3.0]]), np.array([0.0, 1.0, 2.0]))
        big = (X4, Y4)
        tree, _ = grow_multitask_tree(
            roots([big[0], small[0]]), [big[1], small[1]], params=params
        )
        assert tree.is_stump_leaf

    def test_shared_feature_per_node(self):
        rng = np.random.default_rng(13)
        Xs = [rng.normal(size=(40, 4)) for _ in range(3)]
        ys = [X[:, 0] + rng.normal(size=40) * 0.1 for X in Xs]
        tree, _ = grow_multitask_tree(roots(Xs), ys, params=TreeParams(min_samples_leaf=2))
        for i in range(tree.n_nodes):
            if not tree.is_leaf(i):
                assert np.ndim(tree.feature[i]) == 0
                assert len(tree.thresholds[i]) == 3

    def test_t1_node_for_node_equals_single_task(self):
        # A task duplicated T=2 times scores every split exactly as the
        # T=1 tree does, so both trees agree node for node.
        rng = np.random.default_rng(14)
        X = rng.normal(size=(60, 4))
        y = np.sin(X[:, 1]) + 0.3 * X[:, 2] + rng.normal(size=60) * 0.1
        params = TreeParams(max_depth=3, min_samples_leaf=3, min_gain=1e-7)
        for lam in (0.0, 0.5):
            st, _ = grow_multitask_tree(roots([X]), [y], lambda_u=lam, params=params)
            mt, _ = grow_multitask_tree(roots([X, X]), [y, y], lambda_u=lam, params=params)
            assert st.n_tasks == 1
            assert st.n_nodes > 1
            np.testing.assert_array_equal(mt.feature, st.feature)
            assert [thr[0] for thr in mt.thresholds] == [thr[0] for thr in st.thresholds]
            np.testing.assert_array_equal(mt.left, st.left)
            np.testing.assert_array_equal(mt.right, st.right)
            # Internal nodes carry NaN values, so compare NaN-aware.
            np.testing.assert_array_equal(
                [val[0] for val in mt.values], [val[0] for val in st.values]
            )

    def test_leaf_values_are_task_means(self):
        rng = np.random.default_rng(15)
        Xs = [rng.normal(size=(30, 3)) for _ in range(2)]
        ys = [rng.normal(size=30) for _ in range(2)]
        tree, _ = grow_multitask_tree(roots(Xs), ys, params=TreeParams(min_samples_leaf=2))
        for t in range(2):
            pred = tree.predict(t, Xs[t])
            # Residual sums vanish within each leaf when values are means.
            assert abs(float(np.sum(ys[t] - pred))) < 1e-9


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(16)
        Xs = [rng.normal(size=(30, 3)) for _ in range(2)]
        ys = [rng.normal(size=30) for _ in range(2)]
        tree, _ = grow_multitask_tree(roots(Xs), ys, params=TreeParams(min_samples_leaf=2))
        clone = MultitaskTree.from_dict(tree.to_dict(), 3, 2)
        np.testing.assert_array_equal(clone.feature, tree.feature)
        np.testing.assert_array_equal(clone.thresholds, tree.thresholds)
        for t in range(2):
            assert np.allclose(clone.predict(t, Xs[t]), tree.predict(t, Xs[t]))
