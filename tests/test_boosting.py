"""Two-stage boosting: configs, the fit loop, selections, and importances."""

import concurrent.futures
import dataclasses
import json
import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bouts import boosting, pathsweep
from bouts.boosting import (
    BoostConfig,
    BoutsModel,
    _boost,
    feature_importances,
    fit,
    fit_single_task,
    pool_map,
    task_specific_features,
    universal_features,
)
from bouts.data import MultitaskDataset, SplitAssignment, TaskDataset, overlap_split
from bouts.errors import DataError, NumericalError
from bouts.multitask import MultitaskTree, grow_multitask_tree
from bouts.stability import selection_replicates
from bouts.synth import SynthSpec, generate
from bouts.trees import TreeParams, sort_rows
from helpers import predict

STUMPS = TreeParams(max_depth=1, min_samples_leaf=1, min_gain=1e-7)
DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def make_dataset(Xs, ys, feature_names=None):
    if feature_names is None:
        feature_names = [f"f{j}" for j in range(Xs[0].shape[1])]
    tasks = [
        TaskDataset(
            name=f"task{t}",
            feature_names=list(feature_names),
            X=np.asarray(X, dtype=float),
            y=np.asarray(y, dtype=float),
            sample_ids=[f"task{t}-{i}" for i in range(len(y))],
        )
        for t, (X, y) in enumerate(zip(Xs, ys))
    ]
    return MultitaskDataset(tasks=tasks, candidate_features=list(feature_names))


def mse_recorder():
    """An ``on_round`` hook for ``fit_single_task`` and the list of training
    MSEs it records, one per accepted round."""
    mses = []
    return mses, lambda b, residuals: mses.append(float(np.mean(residuals[0] ** 2)))


def all_train_split(dataset):
    T = dataset.n_tasks
    return SplitAssignment(
        seed=0,
        train=[np.arange(len(t.y)) for t in dataset.tasks],
        val=[np.array([], dtype=np.intp) for _ in range(T)],
        test=[np.array([], dtype=np.intp) for _ in range(T)],
    )


def bit_design(n_features, reps=2):
    """All 0/1 combinations of n_features, repeated; balanced and orthogonal."""
    rows = 1 << n_features
    idx = np.arange(rows * reps) % rows
    return np.column_stack([(idx >> j) & 1 for j in range(n_features)]).astype(float)


class TestBoostConfig:
    def test_rejects_bad_rounds(self):
        with pytest.raises(ValueError, match=">= 0"):
            BoostConfig(rounds_universal=-1)
        with pytest.raises(ValueError, match="at least one boosting round"):
            BoostConfig(rounds_universal=0, rounds_task=0)

    def test_rejects_bad_learning_rate(self):
        for beta in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError, match="learning_rate"):
                BoostConfig(learning_rate=beta)

    def test_rejects_negative_penalties(self):
        with pytest.raises(ValueError, match="lambda_u"):
            BoostConfig(lambda_u=-0.5)
        with pytest.raises(ValueError, match="lambda_task"):
            BoostConfig(lambda_task=[0.1, -0.1])

    def test_rejects_nan_penalties_and_accepts_inf(self):
        nan, inf = float("nan"), float("inf")
        with pytest.raises(ValueError, match="lambda_u"):
            BoostConfig(lambda_u=nan)
        for lam_t in (nan, [0.1, nan]):
            with pytest.raises(ValueError, match="lambda_task"):
                BoostConfig(lambda_task=lam_t)
        # inf means "never admit a new feature" and stays valid.
        assert BoostConfig(lambda_u=inf, lambda_task=[inf, 0.1]).lambda_u == inf

    def test_per_task_penalty_lookup(self):
        cfg = BoostConfig(lambda_task=[0.1, 0.2])
        assert cfg.task_lambdas(2) == [0.1, 0.2]
        with pytest.raises(ValueError, match="2 entries for 3 tasks"):
            cfg.task_lambdas(3)
        assert BoostConfig(lambda_task=0.3).task_lambdas(9) == [0.3] * 9

    def test_dict_round_trip(self):
        cfg = BoostConfig(
            rounds_universal=7,
            rounds_task=3,
            learning_rate=0.2,
            lambda_u=1.5,
            lambda_task=[0.1, 0.2],
            tree=TreeParams(max_depth=2, min_samples_leaf=3, min_gain=1e-6),
        )
        clone = BoostConfig.from_dict(cfg.to_dict())
        assert clone.to_dict() == cfg.to_dict()


class TestFitSingleTask:
    def test_zero_rounds(self):
        X = np.zeros((4, 1))
        history, on_round = mse_recorder()
        trees, used = fit_single_task(X, np.ones(4), 0, 0.1, used={3}, on_round=on_round)
        assert trees == [] and history == [] and used == {3}

    def test_zero_rounds_prepare_no_root(self, monkeypatch):
        def no_root(*args):
            raise AssertionError("a root was prepared for no round")

        monkeypatch.setattr(boosting, "sort_rows", no_root)
        X = np.arange(8.0).reshape(4, 2)
        assert fit_single_task(X, np.arange(4.0), 0, 0.1)[0] == []

    def test_stump_round_updates_residuals(self):
        X = np.array([[1.0], [2.0], [3.0], [4.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        history, on_round = mse_recorder()
        trees, used = fit_single_task(X, y, 1, 0.1, params=STUMPS, on_round=on_round)
        assert len(trees) == 1 and used == {0}
        # Residuals [0, 0, .9, .9] after subtracting 0.1 * {0, 1} leaves.
        assert history == [pytest.approx(np.mean([0, 0, 0.81, 0.81]))]

    def test_constant_target_fits_intercept_stumps(self):
        X = np.array([[1.0], [2.0]])
        trees, used = fit_single_task(X, np.full(2, 5.0), 3, 0.1, params=STUMPS)
        assert [t.is_stump_leaf for t in trees] == [True, True, True]
        assert used == set()
        assert [t.values[0][0] for t in trees] == pytest.approx([5.0, 4.5, 4.05])

    def test_zero_target_stops_immediately(self):
        X = np.array([[1.0], [2.0]])
        history, on_round = mse_recorder()
        trees, used = fit_single_task(X, np.zeros(2), 50, 0.1, params=STUMPS, on_round=on_round)
        assert trees == [] and history == [] and used == set()

    def test_mse_history_is_monotone(self):
        rng = np.random.default_rng(21)
        X = rng.normal(size=(80, 4))
        y = np.sin(2 * X[:, 0]) + X[:, 1] ** 2 + 0.1 * rng.normal(size=80)
        history, on_round = mse_recorder()
        trees, _ = fit_single_task(
            X, y, 40, 0.1, params=TreeParams(min_samples_leaf=3), on_round=on_round
        )
        assert len(history) == len(trees) > 1
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

    def test_on_round_residual_replay(self):
        rng = np.random.default_rng(22)
        X = rng.normal(size=(50, 3))
        y = X[:, 0] + 0.5 * rng.normal(size=50)
        seen = []
        trees, _ = fit_single_task(
            X, y, 10, 0.3, params=STUMPS, on_round=lambda b, r: seen.append((b, r[0].copy()))
        )
        assert [b for b, _ in seen] == list(range(1, len(trees) + 1))
        replay = y.astype(float).copy()
        for (b, captured), tree in zip(seen, trees):
            replay -= 0.3 * predict(tree, 0, X)
            np.testing.assert_allclose(captured, replay, atol=1e-12)

    def test_penalty_excludes_weak_feature_once_strong_exists(self):
        X = bit_design(2, reps=8)
        y = 2.0 * X[:, 0] + 0.1 * X[:, 1]
        y = y - y.mean()
        # Gains: f0 starts at 1.0 and decays; f1 never exceeds 0.0025.
        trees, used = fit_single_task(X, y, 60, 0.1, lam=0.5, params=STUMPS)
        assert used == {0}
        _, used_free = fit_single_task(X, y, 60, 0.1, lam=0.0, params=STUMPS)
        assert used_free == {0, 1}


def plain(value):
    """``value`` with every tree replaced by its ``to_dict()``, for ``==``."""
    if isinstance(value, MultitaskTree):
        return value.to_dict()
    if isinstance(value, list):
        return [plain(v) for v in value]
    return value


class TestFit:
    def two_task_dataset(self):
        X = bit_design(3, reps=2)
        y0 = 2.0 * X[:, 0] + 1.0 * X[:, 1]
        y1 = 2.0 * X[:, 0] + 1.0 * X[:, 2]
        ys = [y - y.mean() for y in (y0, y1)]
        return make_dataset([X, X], ys)

    def test_universal_and_task_specific_recovery(self):
        data = self.two_task_dataset()
        cfg = BoostConfig(
            rounds_universal=100,
            rounds_task=100,
            learning_rate=0.1,
            lambda_u=0.5,
            lambda_task=0.01,
            tree=TreeParams(max_depth=3, min_samples_leaf=2, min_gain=1e-7),
        )
        model = fit(data, all_train_split(data), cfg)
        assert universal_features(model) == ["f0"]
        assert task_specific_features(model, 0) == ["f1"]
        assert task_specific_features(model, 1) == ["f2"]
        # The sets are disjoint by construction of the definitions.
        for t in range(2):
            assert not set(task_specific_features(model, t)) & set(universal_features(model))

    def test_stage_mse_histories_monotone_per_task(self):
        data = self.two_task_dataset()
        cfg = BoostConfig(rounds_universal=30, rounds_task=30, learning_rate=0.2,
                          tree=TreeParams(min_samples_leaf=2))
        uni, per_task = [], {0: [], 1: []}

        def on_round(stage, info, res):
            if stage == "universal":
                uni.append([float(np.mean(r * r)) for r in res])
            else:
                per_task[info[0]].append(float(np.mean(res * res)))

        model = fit(data, all_train_split(data), cfg, on_round=on_round)
        uni = np.asarray(uni)
        assert uni.shape == (len(model.universal_trees), 2)
        for col in uni.T:
            assert all(b <= a + 1e-12 for a, b in zip(col, col[1:]))
        for t, hist in per_task.items():
            assert len(hist) == len(model.task_trees[t])
            assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))

    def test_predictions_match_residual_stream(self):
        data = self.two_task_dataset()
        cfg = BoostConfig(rounds_universal=20, rounds_task=20, learning_rate=0.1,
                          tree=TreeParams(min_samples_leaf=2))
        last = {}

        def on_round(stage, info, res):
            if stage == "universal":
                for t, r in enumerate(res):
                    last[t] = r
            else:
                last[info[0]] = res

        model = fit(data, all_train_split(data), cfg, on_round=on_round)
        for t, task in enumerate(data.tasks):
            final = task.y - model.predict(t, task.X)
            np.testing.assert_allclose(final, last[t], atol=1e-10)

    def test_no_universal_stage_equals_independent_boosting(self):
        rng = np.random.default_rng(23)
        Xs = [rng.normal(size=(60, 4)) for _ in range(2)]
        ys = [np.sin(X[:, 0]) + 0.3 * X[:, 2] for X in Xs]
        ys = [y - y.mean() for y in ys]
        data = make_dataset(Xs, ys)
        params = TreeParams(max_depth=2, min_samples_leaf=3)
        cfg = BoostConfig(rounds_universal=0, rounds_task=25, learning_rate=0.1,
                          lambda_task=0.05, tree=params)
        model = fit(data, all_train_split(data), cfg)
        assert model.universal_trees == []
        for t in range(2):
            solo, _ = fit_single_task(Xs[t], ys[t], 25, 0.1, lam=0.05, params=params)
            assert len(solo) == len(model.task_trees[t])
            for a, b in zip(solo, model.task_trees[t]):
                assert a.to_dict() == b.to_dict()

    def test_single_task_universal_stage_matches_plain_boosting(self):
        rng = np.random.default_rng(24)
        X = rng.normal(size=(70, 4))
        y = X[:, 1] - 0.5 * X[:, 3] + 0.1 * rng.normal(size=70)
        y = y - y.mean()
        params = TreeParams(max_depth=3, min_samples_leaf=3)
        data = make_dataset([X], [y])
        cfg = BoostConfig(rounds_universal=20, rounds_task=0, learning_rate=0.1,
                          lambda_u=0.2, tree=params)
        model = fit(data, all_train_split(data), cfg)
        solo, _ = fit_single_task(X, y, 20, 0.1, lam=0.2, params=params)
        assert len(model.universal_trees) == len(solo)
        for mtree, tree in zip(model.universal_trees, solo):
            assert mtree.to_dict() == tree.to_dict()

    def test_empty_training_partition_rejected(self):
        data = self.two_task_dataset()
        split = all_train_split(data)
        split.train[1] = np.array([], dtype=np.intp)
        with pytest.raises(DataError, match="empty training partition"):
            fit(data, split, BoostConfig())

    def test_predict_validates_width(self):
        data = self.two_task_dataset()
        cfg = BoostConfig(rounds_universal=2, rounds_task=0,
                          tree=TreeParams(min_samples_leaf=2))
        model = fit(data, all_train_split(data), cfg)
        with pytest.raises(DataError, match="feature columns"):
            model.predict(0, np.zeros((4, 7)))

    def test_model_dict_round_trip(self):
        data = self.two_task_dataset()
        cfg = BoostConfig(rounds_universal=10, rounds_task=10, learning_rate=0.1,
                          lambda_u=0.5, lambda_task=0.01,
                          tree=TreeParams(min_samples_leaf=2))
        model = fit(data, all_train_split(data), cfg)
        assert model.universal_trees and all(model.task_trees)
        clone = BoutsModel.from_dict(model.to_dict())
        # The model holds exactly what its dict holds: every field comes back.
        for f in dataclasses.fields(BoutsModel):
            assert plain(getattr(clone, f.name)) == plain(getattr(model, f.name)), f.name
        for t, task in enumerate(data.tasks):
            np.testing.assert_array_equal(clone.predict(t, task.X), model.predict(t, task.X))

    def test_fit_single_task_returns_a_new_used_set(self):
        X = bit_design(3, reps=4)
        y = X[:, 0] + 0.5 * X[:, 1] - 0.25 * X[:, 2]
        s = {2}
        trees, used = fit_single_task(X, y - y.mean(), 20, 0.1, lam=0.01, used=s, params=STUMPS)
        assert s == {2} and used is not s
        split_on = set().union(*(tree.features_used for tree in trees))
        assert split_on - s and used == s | split_on

    def test_fit_hands_each_task_the_same_universal_set(self, monkeypatch):
        real, seen = boosting.fit_single_task, []

        def spy(X, y, rounds, learning_rate, lam, used, params, on_round):
            before = set(used)
            trees, out = real(X, y, rounds, learning_rate, lam, used, params, on_round)
            assert used == before
            assert out == before | set().union(*(tree.features_used for tree in trees))
            seen.append(before)
            return trees, out

        monkeypatch.setattr(boosting, "fit_single_task", spy)
        data = self.two_task_dataset()
        cfg = BoostConfig(rounds_universal=10, rounds_task=10, lambda_u=0.5, lambda_task=0.01,
                          tree=TreeParams(min_samples_leaf=2))
        model = fit(data, all_train_split(data), cfg)
        assert model.universal_feature_indices
        assert seen == [model.universal_feature_indices] * 2

    def test_predict_rejects_an_out_of_range_task(self):
        with open(os.path.join(DATA_DIR, "model.json")) as fh:
            model = BoutsModel.from_dict(json.load(fh)["model"])
        assert model.n_tasks == 2
        X = np.zeros((3, len(model.feature_names)))
        for t in (-1, 2):
            with pytest.raises(IndexError, match=f"task index {t} .* 2 tasks"):
                model.predict(t, X)
            with pytest.raises(IndexError, match=f"task index {t} .* 2 tasks"):
                model.predict_columns(t, dict(enumerate(X.T)), len(X))


def hand_built_model():
    """One universal stump on f0 (gains 3, 1) plus a task-0 stump on f1 (gain 1)."""
    mtree = MultitaskTree.from_dict(
        {
            "n_tasks": 2,
            "nodes": [
                {
                    "feature": 0,
                    "thresholds": [0.5, 0.5],
                    "left": 1,
                    "right": 2,
                    "gains": [3.0, 1.0],
                    "penalized_gains": [3.0, 1.0],
                },
                {"values": [0.0, 0.0]},
                {"values": [1.0, 1.0]},
            ],
        },
        2,
        2,
    )
    stump = MultitaskTree.from_dict(
        {
            "nodes": [
                {"feature": 1, "threshold": 0.5, "left": 1, "right": 2,
                 "gain": 1.0, "penalized_gain": 1.0},
                {"value": 0.0},
                {"value": 1.0},
            ]
        },
        2,
        1,
    )
    return BoutsModel(
        config=BoostConfig(),
        feature_names=["f0", "f1"],
        task_names=["task0", "task1"],
        universal_trees=[mtree],
        task_trees=[[stump], []],
        f0=[0.0, 0.0],
    )


class TestFeatureImportances:
    def test_exact_shares(self):
        model = hand_built_model()
        # Task 0 totals: f0 -> 3.0, f1 -> 1.0.
        assert feature_importances(model, 0) == {"f0": 0.75, "f1": 0.25}
        assert feature_importances(model, 1) == {"f0": 1.0}

    def test_shares_sum_to_one_on_fitted_model(self):
        rng = np.random.default_rng(25)
        X = rng.normal(size=(60, 5))
        y = X[:, 0] + X[:, 3] ** 2
        y = y - y.mean()
        data = make_dataset([X], [y])
        cfg = BoostConfig(rounds_universal=10, rounds_task=10,
                          tree=TreeParams(min_samples_leaf=3))
        model = fit(data, all_train_split(data), cfg)
        imp = feature_importances(model, 0)
        assert imp
        assert sum(imp.values()) == pytest.approx(1.0)
        assert all(v > 0 for v in imp.values())

    def test_empty_when_no_splits(self):
        model = hand_built_model()
        model.universal_trees = []
        model.task_trees = [[], []]
        assert feature_importances(model, 0) == {}

    def test_rejects_an_out_of_range_task(self):
        with open(os.path.join(DATA_DIR, "model.json")) as fh:
            model = BoutsModel.from_dict(json.load(fh)["model"])
        for t in (-1, 2):
            with pytest.raises(IndexError, match=f"task index {t} .* 2 tasks"):
                feature_importances(model, t)


class TestTrainingRowsAreNotRouted:
    """Boosting reads each training row's leaf from the grower; these pin that
    the numbers equal, bit for bit, those of routing the rows through each tree."""

    def test_residuals_equal_routed_residuals(self):
        rng = np.random.default_rng(26)
        Xs = [np.round(rng.normal(size=(n, 6)), 1) for n in (40, 55, 70)]
        ys = [X[:, 0] - X[:, 1] ** 2 + 0.3 * rng.normal(size=len(X)) for X in Xs]
        params = TreeParams(max_depth=3, min_samples_leaf=3)
        for T in (1, 3):
            residuals = [y.copy() for y in ys[:T]]
            trees, _ = _boost(Xs[:T], residuals, 12, 0.1, 0.05, set(), params, None)
            assert len(trees) == 12
            for t in range(T):
                routed = ys[t].copy()
                for tree in trees:
                    routed -= 0.1 * predict(tree, t, Xs[t])
                np.testing.assert_array_equal(residuals[t], routed)


def walk_leaves(tree, t, X):
    """The leaf each row of X reaches for task t, one row at a time; ties go left."""
    leaves = []
    for row in X:
        i = 0
        while not tree.is_leaf(i):
            i = tree.left[i] if row[tree.feature[i]] <= tree.thresholds[i][t] else tree.right[i]
        leaves.append(i)
    return np.array(leaves, dtype=np.intp)


def walk(tree, t, X):
    """Task t's prediction of each row of X, one row at a time; ties go left."""
    return tree.values[walk_leaves(tree, t, X), t]


def route_rows(tree, t, X):
    """``tree.route`` of the rows of X for task t: the leaf each row reaches."""
    return tree.route(t, np.ascontiguousarray(X.T), len(X), {})


def hand_tree(n_tasks):
    """Root on feature 0 (thresholds 0, 1, -1, ... per task); its left child
    splits on feature 1 at 0; the other three nodes are leaves."""
    zeros, nans, LEAF = [0.0] * n_tasks, [np.nan] * n_tasks, MultitaskTree.LEAF
    leaves = [
        (LEAF, LEAF, LEAF, zeros, [v + t for t in range(n_tasks)], zeros, zeros)
        for v in (10.0, 20.0, 30.0)
    ]
    return MultitaskTree.of_nodes([
        (0, 1, 4, [0.0, 1.0, -1.0][:n_tasks], nans, zeros, zeros),
        (1, 2, 3, zeros, nans, zeros, zeros),
        *leaves,
    ])


def grown_tree(n_tasks, seed=3):
    """A depth-3 tree grown on random rows of 6 features for each of ``n_tasks`` tasks."""
    rng = np.random.default_rng(seed)
    Xs = [rng.normal(size=(60, 6)) for _ in range(n_tasks)]
    ys = [X[:, 0] - X[:, 1] * X[:, 2] + rng.normal(size=60) for X in Xs]
    roots = [sort_rows(np.ascontiguousarray(X.T)) for X in Xs]
    tree, _ = grow_multitask_tree(roots, ys, params=TreeParams(max_depth=3, min_samples_leaf=2))
    assert tree.n_nodes >= 7
    return tree


@pytest.fixture(params=[1, 3], ids=["T=1", "T=3"])
def trees(request):
    return [hand_tree(request.param), grown_tree(request.param)]


class TestFlatTreeRouting:
    def test_a_value_equal_to_a_threshold_goes_left(self, trees):
        rng = np.random.default_rng(5)
        for tree in trees:
            f0 = tree.feature[0]
            for t in range(tree.n_tasks):
                # Each split-on cell is a threshold of its column, nudged or not, so
                # rows tie at nodes they reach.
                X = rng.normal(size=(300, 6))
                for f in tree.features_used:
                    at = tree.thresholds[tree.feature == f, t]
                    X[:, f] = rng.choice(at, 300) + rng.choice([0.0, 0.0, -0.5, 0.5], 300)
                np.testing.assert_array_equal(route_rows(tree, t, X), walk_leaves(tree, t, X))
                tied = X[X[:, f0] == tree.thresholds[0][t]]
                assert len(tied)
                below = tied.copy()
                below[:, f0] = np.nextafter(tree.thresholds[0][t], -np.inf)
                np.testing.assert_array_equal(route_rows(tree, t, tied), route_rows(tree, t, below))

    def test_nan_held_only_by_rows_that_never_reach_its_split_predicts(self, trees):
        tree = trees[0]  # feature 1 is split on only below the root's left branch
        for t in range(tree.n_tasks):
            X = np.array([[5.0, np.nan], [-5.0, 0.5], [-5.0, -0.5], [5.0, 1.0]])
            np.testing.assert_array_equal(route_rows(tree, t, X), walk_leaves(tree, t, X))
        # Task 1 sends x0 = 0.5 left (0.5 <= 1) to the NaN; tasks 0 and 2 send it right.
        X = np.array([[0.5, np.nan]])
        for t in range(tree.n_tasks):
            if t == 1:
                with pytest.raises(NumericalError, match="feature index 1 "):
                    route_rows(tree, t, X)
            else:
                np.testing.assert_array_equal(route_rows(tree, t, X), walk_leaves(tree, t, X))

    def test_nan_in_a_row_that_reaches_its_split_raises(self, trees):
        tree = trees[0]
        for t in range(tree.n_tasks):
            X = np.array([[5.0, 0.0], [-5.0, np.nan], [5.0, 0.0]])
            with pytest.raises(NumericalError, match="feature index 1 "):
                route_rows(tree, t, X)
            X = np.array([[5.0, 0.0], [np.nan, 0.0]])
            with pytest.raises(NumericalError, match="feature index 0 "):
                route_rows(tree, t, X)

    @pytest.mark.parametrize("n_rows", [0, 1])
    def test_zero_and_one_row(self, trees, n_rows):
        X = np.random.default_rng(6).normal(size=(n_rows, 6))
        for tree in trees:
            for t in range(tree.n_tasks):
                leaves = route_rows(tree, t, X)
                assert leaves.shape == (n_rows,)
                np.testing.assert_array_equal(leaves, walk_leaves(tree, t, X))
                np.testing.assert_array_equal(tree.step(t, leaves, 1.0), walk(tree, t, X))
        with open(os.path.join(DATA_DIR, "model.json")) as fh:
            model = BoutsModel.from_dict(json.load(fh)["model"])
        X = np.random.default_rng(6).normal(size=(n_rows, len(model.feature_names)))
        want, beta = np.full(n_rows, model.f0[0]), model.config.learning_rate
        for tree in model.universal_trees + model.task_trees[0]:
            want += beta * walk(tree, 0, X)
        np.testing.assert_array_equal(model.predict(0, X), want)

    def test_memory_layout_does_not_change_the_bits(self, trees):
        X = np.random.default_rng(7).normal(size=(200, 6))
        wide = np.zeros((200, 12))
        wide[:, 1::2] = X
        layouts = [np.asfortranarray(X), wide[:, 1::2]]
        for tree in trees:
            for t in range(tree.n_tasks):
                want = route_rows(tree, t, X).tobytes()
                assert all(route_rows(tree, t, other).tobytes() == want for other in layouts)
        with open(os.path.join(DATA_DIR, "model.json")) as fh:
            model = BoutsModel.from_dict(json.load(fh)["model"])
        X = np.random.default_rng(8).normal(size=(200, len(model.feature_names)))
        wide = np.zeros((200, 2 * X.shape[1]))
        wide[:, ::2] = X
        for t in range(model.n_tasks):
            want = model.predict(t, X).tobytes()
            for other in (np.asfortranarray(X), wide[:, ::2]):
                assert model.predict(t, other).tobytes() == want

    def test_a_negative_zero_leaf_keeps_its_sign_bit(self):
        # Summing `reach * value` over the leaves would turn -0.0 into +0.0.
        zeros, LEAF = [0.0], MultitaskTree.LEAF
        tree = MultitaskTree.of_nodes([
            (0, 1, 2, [0.0], [np.nan], zeros, zeros),
            (LEAF, LEAF, LEAF, zeros, [-0.0], zeros, zeros),
            (LEAF, LEAF, LEAF, zeros, [1.0], zeros, zeros),
        ])
        X = np.array([[-1.0], [1.0], [0.0], [2.0]])
        leaves = route_rows(tree, 0, X)
        np.testing.assert_array_equal(leaves, [1, 2, 1, 2])
        for scale in (1.0, 0.1):
            got = tree.step(0, leaves, scale, out=np.full(4, 7.0))
            np.testing.assert_array_equal(np.signbit(got), [True, False, True, False])
            np.testing.assert_array_equal(got, [0.0, scale, 0.0, scale])

    def test_step_is_the_scaled_value_of_each_rows_leaf(self, trees):
        X = np.random.default_rng(10).normal(size=(300, 6))
        for tree in trees:
            for t in range(tree.n_tasks):
                leaves = route_rows(tree, t, X)
                for scale in (1.0, 0.1, 0.3):
                    want = scale * tree.values[walk_leaves(tree, t, X), t]
                    assert tree.step(t, leaves, scale).tobytes() == want.tobytes()

    def test_a_leaf_no_row_reaches_writes_nothing(self):
        # Every row ends in the first leaf, node 2; the two leaves after it
        # (the left child's right leaf, then the root's right leaf) reach no row.
        X = np.full((50, 6), -5.0)
        for n_tasks in (1, 3):
            tree = hand_tree(n_tasks)
            for t in range(n_tasks):
                leaves = route_rows(tree, t, X)
                assert (leaves == 2).all()
                got = tree.step(t, leaves, 1.0, out=np.full(50, np.nan))
                assert got.tobytes() == np.full(50, 10.0 + t).tobytes()

    def test_a_one_leaf_tree_fills_every_row(self):
        zeros, LEAF = [0.0] * 3, MultitaskTree.LEAF
        tree = MultitaskTree.of_nodes([(LEAF, LEAF, LEAF, zeros, [-0.0, 2.5, -3.0], zeros, zeros)])
        X = np.random.default_rng(9).normal(size=(40, 6))
        for t, value in enumerate([-0.0, 2.5, -3.0]):
            leaves = route_rows(tree, t, X)
            assert (leaves == 0).all()
            got = tree.step(t, leaves, 1.0, out=np.full(40, np.nan))
            assert got.tobytes() == np.full(40, value).tobytes()

    def test_predict_equals_a_walk_one_row_at_a_time(self):
        with open(os.path.join(DATA_DIR, "model.json")) as fh:
            model = BoutsModel.from_dict(json.load(fh)["model"])
        rng = np.random.default_rng(28)
        components = [(tree, t) for tree in model.universal_trees for t in range(2)]
        components += [(tree, 0) for trees in model.task_trees for tree in trees]
        assert any(tree.n_nodes > 3 for tree, _ in components)
        for tree, t in components:
            X = rng.normal(size=(200, len(model.feature_names)))
            for row, i in enumerate(np.flatnonzero(tree.feature != tree.LEAF)):
                X[row, tree.feature[i]] = tree.thresholds[i][t]  # a tie, which goes left
            leaves = route_rows(tree, t, X)
            np.testing.assert_array_equal(leaves, walk_leaves(tree, t, X))
            assert tree.step(t, leaves, 1.0).tobytes() == walk(tree, t, X).tobytes()

    def test_nan_in_a_split_column_raises(self):
        with open(os.path.join(DATA_DIR, "model.json")) as fh:
            model = BoutsModel.from_dict(json.load(fh)["model"])
        tree = max(model.universal_trees, key=lambda tree: tree.n_nodes)
        X = np.zeros((3, len(model.feature_names)))
        unused = sorted(set(range(X.shape[1])) - tree.features_used)
        X[:, unused] = np.nan
        assert np.isfinite(predict(tree, 0, X)).all()
        root = int(tree.feature[0])  # every row is routed on it
        X[1, root] = np.nan
        with pytest.raises(NumericalError, match=f"feature index {root} "):
            route_rows(tree, 0, X)


def deep_tree(n_tasks, depth, seed):
    """A tree grown to ``depth`` with one-row leaves on 300 rows of 4 features
    with tied values.  Each task's rows are a monotone transform of one shared
    set, so the tasks agree on every partition and the tree grows as deep as a
    one-task tree, while each task keeps its own thresholds and leaf values."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(300, 4)).round(1)
    y = np.sin(3 * X[:, 0]) + X[:, 1] * X[:, 2] + 0.1 * rng.normal(size=300)
    roots = [sort_rows(np.ascontiguousarray((X * (t + 1) + t).T)) for t in range(n_tasks)]
    ys = [y * (t + 1) + t for t in range(n_tasks)]
    params = TreeParams(max_depth=depth, min_samples_leaf=1)
    return grow_multitask_tree(roots, ys, params=params)[0]


def path_features(tree, t, row):
    """The features of the splits ``row`` passes for task t on its way to a leaf."""
    used, i = set(), 0
    while not tree.is_leaf(i):
        used.add(int(tree.feature[i]))
        i = tree.left[i] if row[tree.feature[i]] <= tree.thresholds[i][t] else tree.right[i]
    return used


def tied_rows(tree, t, n_rows, rng):
    """Rows of 5 columns (the last one no tree splits on) whose split-on cells
    are the tree's thresholds for task t, some nudged to the next float either
    way, and random values; each row then holds a NaN in one column that no
    split on its path reads."""
    X = rng.normal(size=(n_rows, 5)) * (t + 1) + t
    for f in tree.features_used:
        at = tree.thresholds[tree.feature == f, t]
        cells = rng.choice(at, n_rows)
        nudge = rng.integers(0, 4, n_rows)  # 0: the threshold; 1, 2: a float away; 3: random
        cells[nudge == 1] = np.nextafter(cells[nudge == 1], -np.inf)
        cells[nudge == 2] = np.nextafter(cells[nudge == 2], np.inf)
        X[:, f] = np.where(nudge == 3, X[:, f], cells)
    for row in X:
        row[rng.choice(sorted(set(range(5)) - path_features(tree, t, row)))] = np.nan
    return X


class TestNodeIndexRouting:
    @given(depth=st.integers(1, 10), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    @pytest.mark.parametrize("n_tasks", [1, 3])
    def test_route_equals_a_walk_one_row_at_a_time(self, n_tasks, depth, seed):
        tree = deep_tree(n_tasks, depth, seed)
        rng = np.random.default_rng(seed)
        for t in range(n_tasks):
            X = tied_rows(tree, t, 200, rng)
            leaves = route_rows(tree, t, X)
            np.testing.assert_array_equal(leaves, walk_leaves(tree, t, X))
            assert tree.step(t, leaves, 1.0).tobytes() == walk(tree, t, X).tobytes()

    @pytest.mark.parametrize("n_tasks", [1, 3])
    def test_a_tree_of_more_than_255_nodes_routes_like_a_walk(self, n_tasks):
        tree = deep_tree(n_tasks, 10, seed=2)
        assert tree.n_nodes > 255  # its node indices need 16 bits
        rng = np.random.default_rng(4)
        for t in range(n_tasks):
            X = tied_rows(tree, t, 2000, rng)
            got = predict(tree, t, X)
            assert got.tobytes() == walk(tree, t, X).tobytes()
            assert np.isin(got, tree.values[256:, t]).any()  # rows reach nodes past 255

    def test_a_right_child_more_than_255_nodes_past_its_left_child(self):
        # The root's left subtree is a chain of 130 splits on feature 1, each
        # sending x1 <= -k left; its right child, a leaf, is node 262.
        chain, zeros, LEAF = 130, [0.0], MultitaskTree.LEAF
        records = []

        def build(k):
            i = len(records)
            records.append(None)
            if k == chain:
                records[i] = (LEAF, LEAF, LEAF, zeros, [float(i)], zeros, zeros)
                return i
            left = build(k + 1)
            right = len(records)
            records.append((LEAF, LEAF, LEAF, zeros, [float(right)], zeros, zeros))
            records[i] = (1, left, right, [-float(k)], [np.nan], zeros, zeros)
            return i

        records.append(None)  # the root, on feature 0 at 0
        build(0)
        records[0] = (0, 1, len(records), [0.0], [np.nan], zeros, zeros)
        records.append((LEAF, LEAF, LEAF, zeros, [-1.0], zeros, zeros))
        tree = MultitaskTree.of_nodes(records)
        assert tree.right[0] == 262
        # Each x1 in -132..2 against x0 = -1, 0 and 1: x0 = 1 goes right at the
        # root, and the others reach all 131 leaves of the chain.
        x1 = np.arange(-chain - 2, 3.0)
        X = np.column_stack([np.repeat([-1.0, 0.0, 1.0], len(x1)), np.tile(x1, 3)])
        got = predict(tree, 0, X)
        assert got.tobytes() == walk(tree, 0, X).tobytes()
        np.testing.assert_array_equal(got[X[:, 0] > 0], -1.0)
        assert len(np.unique(got)) == chain + 2


def _offset_or_fail(offset: int, item: int) -> int:
    """A pool worker: ``offset + item``, or a DataError naming items 3 and up."""
    if item >= 3:
        raise DataError(f"item {item}")
    return offset + item


class TestPoolMap:
    @pytest.fixture
    def pools(self, monkeypatch):
        """Swap in a pool that records how it is built and what each call
        would ship, and runs the calls here; it starts no process."""
        pools = []

        class SerialPool:
            def __init__(self, max_workers, initializer, initargs):
                self.workers, self.initargs = max_workers, initargs
                pools.append(self)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                self.calls = [pickle.dumps((fn, item)) for item in items]
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        # The CPUs this process may run on cap the pool; show 64, as on a large host.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        return pools

    @pytest.mark.parametrize("caller", ["selection_replicates", "sweep"])
    @pytest.mark.parametrize("jobs,workers", [(2, 2), (3, 3), (64, 3)])
    def test_pool_has_at_most_one_worker_per_item(
        self, caller, jobs, workers, pools, monkeypatch
    ):
        monkeypatch.setattr(pathsweep, "DOWNSTREAM_ROUNDS", (5, 10))
        spec = SynthSpec(
            n_tasks=2, n_features=6, n_samples=60, universal=[0], task_specific=[[1], [2]],
            seed=3,
        )
        data, _ = generate(spec)
        config = BoostConfig(rounds_universal=3, rounds_task=3, lambda_u=0.5, lambda_task=0.5)
        if caller == "sweep":
            split = overlap_split(data.tasks, seed=0)
            path = pathsweep.sweep(data, split, config, grid=[0.5, 1.0, 2.0], jobs=jobs)
            assert len(path.points) == 3
        else:
            uni, _ = selection_replicates(data, config, replicates=3, seed=7, jobs=jobs)
            assert uni.n_replicates == 3
        (pool,) = pools
        assert pool.workers == workers
        # The dataset travels once per worker, in the initializer arguments;
        # each call carries only its item.
        (shared,) = pool.initargs
        assert shared[0] is data
        assert len(pool.calls) == 3
        assert max(map(len, pool.calls)) < len(pickle.dumps(data)) / 20

    def test_jobs_is_capped_at_the_cpus_this_process_may_run_on(self, pools, monkeypatch):
        items = [0, 1, 2] * 3
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert pool_map(_offset_or_fail, items, 5000, (10,)) == [10, 11, 12] * 3
        (pool,) = pools
        assert pool.workers == 3
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1}, raising=False)
        assert pool_map(_offset_or_fail, items, 5000, (10,)) == [10, 11, 12] * 3
        assert len(pools) == 1  # one CPU: the calls run here, in no pool

    def test_one_job_starts_no_pool(self, pools):
        assert pool_map(_offset_or_fail, range(3), 1, (10,)) == [10, 11, 12]
        assert pool_map(_offset_or_fail, [2], 4, (10,)) == [12]
        assert pools == []

    def test_results_and_first_failure_in_item_order(self):
        assert pool_map(_offset_or_fail, range(3), 2, (10,)) == [10, 11, 12]
        # Items 3, 4 and 5 fail; the error raised is item 3's, as in a loop.
        with pytest.raises(DataError, match="^item 3$"):
            pool_map(_offset_or_fail, range(6), 2, (10,))

    def test_jobs_below_one_rejected(self):
        with pytest.raises(ValueError, match="jobs must be >= 1, got 0"):
            pool_map(_offset_or_fail, range(3), 0)
