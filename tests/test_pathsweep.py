"""Penalty grids, downstream scoring, and operating-point selection."""

import json
import math

import numpy as np
import pytest

import bouts.pathsweep as pathsweep
from bouts.boosting import BoostConfig
from bouts.data import MultitaskDataset, TaskDataset, overlap_split
from bouts.errors import DataError, NumericalError
from bouts.pathsweep import (
    PathPoint,
    RegularizationPath,
    downstream_scores,
    explained_variance,
    log_grid,
    normalized_absolute_error,
    select_penalty,
    sweep,
)
from bouts.trees import TreeParams


class TestLogGrid:
    def test_default_endpoints_and_spacing(self):
        grid = log_grid()
        assert len(grid) == 20
        assert grid[0] == pytest.approx(math.exp(-4.0), rel=1e-15)
        assert grid[-1] == pytest.approx(math.exp(4.0), rel=1e-15)
        steps = np.diff(np.log(grid))
        np.testing.assert_allclose(steps, 8.0 / 19.0, rtol=1e-12)

    def test_base_option(self):
        grid = log_grid(n_points=9, base=10.0)
        assert grid[0] == pytest.approx(1e-4, rel=1e-15)
        assert grid[-1] == pytest.approx(1e4, rel=1e-15)
        assert grid[4] == pytest.approx(1.0, rel=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError, match="n_points"):
            log_grid(n_points=1)
        with pytest.raises(ValueError, match="base"):
            log_grid(base=1.0)
        for base in (math.inf, math.nan):
            with pytest.raises(ValueError, match="base must be a finite number > 1"):
                log_grid(base=base)
        # Finite, but base**4 overflows and base**-4 underflows.
        with pytest.raises(ValueError, match=r"base 1e\+300 and n_points 20 .* not finite"):
            log_grid(base=1e300)

    def test_strictly_increasing(self):
        grid = log_grid(n_points=50)
        assert all(b > a for a, b in zip(grid, grid[1:]))


class TestScores:
    def test_explained_variance_examples(self):
        y = np.array([0.0, 1.0, 2.0])
        assert explained_variance(y, y) == 1.0
        assert explained_variance(y, np.full(3, y.mean())) == 0.0
        # Residual [0, 0, 1]: var 2/9 against target var 2/3.
        assert explained_variance(y, np.array([0.0, 1.0, 1.0])) == pytest.approx(2.0 / 3.0)

    def test_explained_variance_errors(self):
        with pytest.raises(NumericalError, match="constant target"):
            explained_variance(np.ones(4), np.zeros(4))
        with pytest.raises(DataError, match="lengths differ"):
            explained_variance(np.zeros(3), np.zeros(4))

    def test_normalized_absolute_error(self):
        got = normalized_absolute_error([0.0, 1.0, -2.0], [0.5, 1.0, 2.0])
        np.testing.assert_allclose(got, [0.5, 0.0, 4.0])
        with pytest.raises(DataError, match="lengths differ"):
            normalized_absolute_error(np.zeros(2), np.zeros(3))


def point(lam, evs):
    T = len(evs)
    return PathPoint(
        lam=lam,
        universal=[],
        task_specific=[[] for _ in range(T)],
        ev_train=list(evs),
        nae_test=[np.array([]) for _ in range(T)],
    )


def path_of(ev_rows):
    T = len(ev_rows[0])
    points = [point(float(j + 1), evs) for j, evs in enumerate(ev_rows)]
    return RegularizationPath(task_names=[f"task{t}" for t in range(T)], points=points)


class TestSelectPenalty:
    def test_flat_path_keeps_largest_penalty(self):
        sel = select_penalty(path_of([[0.9], [0.9], [0.9], [0.9]]))
        assert (sel.index, sel.lam, sel.warning) == (3, 4.0, False)

    def test_first_violation_steps_back_one(self):
        sel = select_penalty(path_of([[0.90], [0.89], [0.75]]))
        assert (sel.index, sel.lam, sel.warning) == (1, 2.0, False)

    def test_exactly_at_floor_is_not_a_violation(self):
        sel = select_penalty(path_of([[0.90], [0.81]]))
        assert (sel.index, sel.warning) == (1, False)

    def test_single_point(self):
        sel = select_penalty(path_of([[0.5]]))
        assert (sel.index, sel.warning) == (0, False)

    def test_negative_reference_warns(self):
        sel = select_penalty(path_of([[-0.1], [-0.05]]))
        assert (sel.index, sel.warning) == (0, True)

    def test_any_task_can_trigger(self):
        sel = select_penalty(path_of([[0.9, 0.9], [0.9, 0.5]]))
        assert sel.index == 0 and not sel.warning

    def test_appending_points_after_violation_changes_nothing(self):
        rows = [[0.90], [0.89], [0.75]]
        longer = rows + [[0.95], [0.2]]
        assert select_penalty(path_of(rows)).index == select_penalty(path_of(longer)).index

    def test_custom_drop(self):
        sel = select_penalty(path_of([[0.9], [0.5], [0.4]]), drop=0.5)
        assert sel.index == 1
        with pytest.raises(ValueError, match="drop"):
            select_penalty(path_of([[0.9]]), drop=0.0)
        with pytest.raises(ValueError, match="drop"):
            select_penalty(path_of([[0.9]]), drop=1.0)

    def test_empty_path(self):
        path = RegularizationPath(task_names=["t"], points=[])
        with pytest.raises(ValueError, match="empty path"):
            select_penalty(path)


class TestRegularizationPath:
    def test_lambdas_must_increase(self):
        pts = [point(1.0, [0.5]), point(1.0, [0.5])]
        with pytest.raises(ValueError, match="strictly increasing"):
            RegularizationPath(task_names=["t"], points=pts)

    def test_json_and_csv_shapes(self):
        path = path_of([[0.9, 0.8], [0.7, 0.6]])
        doc = json.loads(path.to_json())
        assert doc["task_names"] == ["task0", "task1"]
        assert [p["lambda"] for p in doc["points"]] == [1.0, 2.0]
        assert doc["points"][0]["ev_train"] == [0.9, 0.8]
        assert doc["points"][0]["median_nae_test"] == [None, None]
        lines = path.to_csv().strip().splitlines()
        assert lines[0] == "lambda,task,n_universal,n_task_specific,ev_train,median_nae_test"
        assert len(lines) == 1 + 2 * 2  # header + points * tasks
        assert lines[1].startswith("1.0,task0,0,0,0.9,")


def bit_design(n_features, reps):
    rows = 1 << n_features
    idx = np.arange(rows * reps) % rows
    return np.column_stack([(idx >> j) & 1 for j in range(n_features)]).astype(float)


def small_dataset(reps=2):
    """Two tasks, shared f0 signal, one extra feature each, two decoys."""
    X = bit_design(5, reps=reps)  # 32 * reps rows
    y0 = 2.0 * X[:, 0] + 1.0 * X[:, 1]
    y1 = 2.0 * X[:, 0] + 1.0 * X[:, 2]
    tasks = []
    for t, y in enumerate((y0, y1)):
        y = y - y.mean()
        tasks.append(
            TaskDataset(
                name=f"task{t}",
                feature_names=[f"f{j}" for j in range(5)],
                X=X,
                y=y,
                sample_ids=[f"task{t}-{i}" for i in range(len(y))],
            )
        )
    return MultitaskDataset(tasks=tasks, candidate_features=[f"f{j}" for j in range(5)])


class TestDownstreamScores:
    def test_empty_selection_scores_the_zero_predictor(self):
        data = small_dataset()
        split = overlap_split(data.tasks, seed=0)
        evs, naes = downstream_scores(data, split, [[], []], TreeParams(min_samples_leaf=2))
        assert evs == [0.0, 0.0]
        for t in range(2):
            np.testing.assert_array_equal(naes[t], np.abs(data.tasks[t].y[split.test[t]]))

    def test_informative_selection_beats_empty(self):
        data = small_dataset()
        split = overlap_split(data.tasks, seed=0)
        evs, naes = downstream_scores(
            data, split, [[0, 1], [0, 2]], TreeParams(min_samples_leaf=2)
        )
        _, naes_empty = downstream_scores(data, split, [[], []], TreeParams(min_samples_leaf=2))
        for t in range(2):
            assert evs[t] > 0.95
            assert np.median(naes[t]) < np.median(naes_empty[t])

    def test_deterministic(self):
        data = small_dataset()
        split = overlap_split(data.tasks, seed=1)
        a = downstream_scores(data, split, [[0], [0]], TreeParams(min_samples_leaf=2))
        b = downstream_scores(data, split, [[0], [0]], TreeParams(min_samples_leaf=2))
        assert a[0] == b[0]
        for x, y in zip(a[1], b[1]):
            np.testing.assert_array_equal(x, y)


class TestSweep:
    def base_config(self):
        return BoostConfig(
            rounds_universal=40,
            rounds_task=40,
            learning_rate=0.1,
            tree=TreeParams(max_depth=3, min_samples_leaf=2, min_gain=1e-7),
        )

    def test_two_point_sweep(self, monkeypatch):
        monkeypatch.setattr(pathsweep, "DOWNSTREAM_ROUNDS", (20, 60))
        # Count-scaled (friedman) gains on ~360 training rows: the shared
        # signal scores ~170 on both tasks, each planted extra ~90 on its own
        # task but only chance level (<5) on the other, and the decoys stay
        # at chance everywhere.  A penalty of 10 separates the bands; 1e5
        # exceeds every gain.
        data = small_dataset(reps=8)
        split = overlap_split(data.tasks, seed=0)
        path = sweep(data, split, self.base_config(), grid=[10.0, 1e5])
        loose, tight = path.points
        assert loose.universal == ["f0"]
        assert loose.task_specific == [["f1"], ["f2"]]
        assert all(ev > 0.9 for ev in loose.ev_train)
        # A penalty far above any gain selects nothing and scores zero.
        assert tight.universal == [] and tight.task_specific == [[], []]
        assert tight.ev_train == [0.0, 0.0]
        assert loose.n_selected(0) == 2 and tight.n_selected(0) == 0

    def test_error_names_the_penalty(self):
        data = small_dataset()
        split = overlap_split(data.tasks, seed=0)
        split.train[1] = np.array([], dtype=np.intp)
        with pytest.raises(DataError, match="penalty 0.25:"):
            sweep(data, split, self.base_config(), grid=[0.25])

    def test_empty_grid_rejected(self):
        data = small_dataset()
        split = overlap_split(data.tasks, seed=0)
        with pytest.raises(ValueError, match="grid is empty"):
            sweep(data, split, self.base_config(), grid=[])
