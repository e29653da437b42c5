"""Penalty grids, downstream scoring, and operating-point selection."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

import bouts.pathsweep as pathsweep
from bouts.boosting import BoostConfig, fit_single_task
from bouts.data import MultitaskDataset, SplitAssignment, TaskDataset, overlap_split
from bouts.errors import DataError, NumericalError
from bouts.pathsweep import (
    PathPoint,
    RegularizationPath,
    downstream_scores,
    explained_variance,
    log_grid,
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
        assert len(log_grid(n_points=pathsweep.MAX_GRID_POINTS)) == pathsweep.MAX_GRID_POINTS
        with pytest.raises(ValueError, match=r"n_points must be in \[2, 1000\], got 1001"):
            log_grid(n_points=pathsweep.MAX_GRID_POINTS + 1)
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
        assert sel == {"index": 3, "lambda": 4.0, "warning": False}

    def test_first_violation_steps_back_one(self):
        sel = select_penalty(path_of([[0.90], [0.89], [0.75]]))
        assert sel == {"index": 1, "lambda": 2.0, "warning": False}

    def test_exactly_at_floor_is_not_a_violation(self):
        sel = select_penalty(path_of([[0.90], [0.81]]))
        assert (sel["index"], sel["warning"]) == (1, False)

    def test_single_point(self):
        sel = select_penalty(path_of([[0.5]]))
        assert (sel["index"], sel["warning"]) == (0, False)

    def test_negative_reference_warns(self):
        sel = select_penalty(path_of([[-0.1], [-0.05]]))
        assert (sel["index"], sel["warning"]) == (0, True)

    def test_any_task_can_trigger(self):
        sel = select_penalty(path_of([[0.9, 0.9], [0.9, 0.5]]))
        assert sel["index"] == 0 and not sel["warning"]

    def test_appending_points_after_violation_changes_nothing(self):
        rows = [[0.90], [0.89], [0.75]]
        longer = rows + [[0.95], [0.2]]
        assert select_penalty(path_of(rows)) == select_penalty(path_of(longer))

    def test_custom_drop(self):
        sel = select_penalty(path_of([[0.9], [0.5], [0.4]]), drop=0.5)
        assert sel["index"] == 1
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
        doc = json.loads(json.dumps(path.to_dict()))
        assert doc["task_names"] == ["task0", "task1"]
        assert [p["lambda"] for p in doc["points"]] == [1.0, 2.0]
        assert doc["points"][0]["ev_train"] == [0.9, 0.8]
        assert doc["points"][0]["median_nae_test"] == [None, None]
        header, rows = path.csv_rows()
        assert header == [
            "lambda", "task", "n_universal", "n_task_specific", "ev_train", "median_nae_test"
        ]
        assert len(rows) == 2 * 2  # points * tasks
        assert rows[0] == [1.0, "task0", 0, 0, 0.9, None]


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


def walk(tree, x) -> float:
    """Leaf value of one row of a T=1 tree, node by node; ties go left."""
    i = 0
    while tree.feature[i] != tree.LEAF:
        i = tree.left[i] if x[tree.feature[i]] <= tree.thresholds[i, 0] else tree.right[i]
    return float(tree.values[i, 0])


def reference_scores(dataset, split, selected, tree_params):
    """``downstream_scores`` from its definition: each budget's predictions are
    summed row by row in tree order.  Also returns each re-fit's tree count."""
    beta = pathsweep.DOWNSTREAM_LEARNING_RATE
    evs, naes, counts = [], [], []
    for t, task in enumerate(dataset.tasks):
        cols = sorted(selected[t])
        tr, va, te = split.train[t], split.val[t], split.test[t]
        if not cols:
            evs.append(0.0)
            naes.append(np.abs(task.y[te]))
            continue
        X = task.X[:, cols]
        best = None
        for depth in pathsweep.DOWNSTREAM_DEPTHS:
            params = replace(tree_params, max_depth=depth)
            trees, _ = fit_single_task(
                X[tr], task.y[tr], max(pathsweep.DOWNSTREAM_ROUNDS), beta, 0.0, params=params
            )
            counts.append(len(trees))
            for mark in sorted({min(r, len(trees)) for r in pathsweep.DOWNSTREAM_ROUNDS}):

                def predict(rows):
                    out = []
                    for i in rows:
                        f = 0.0
                        for tree in trees[:mark]:
                            f += beta * walk(tree, X[i])
                        out.append(f)
                    return np.array(out)

                f_tr, f_va, f_te = predict(tr), predict(va), predict(te)
                error = task.y[va] - f_va if len(va) else task.y[tr] - f_tr
                ev = explained_variance(task.y[tr], f_tr)
                cand = (float(np.mean(error**2)), ev, np.abs(task.y[te] - f_te))
                if best is None or cand[0] < best[0]:
                    best = cand
        evs.append(best[1])
        naes.append(best[2])
    return evs, naes, counts


def edge_case_dataset():
    """Three tasks of 40 rows: task0 has no validation rows, task1 no test rows,
    and task2's feature f3 is constant on its training rows, where its target
    has mean ~0, so a re-fit on f3 alone accepts no tree."""
    rng = np.random.default_rng(7)
    names = [f"f{j}" for j in range(4)]
    parts = {"train": [], "val": [], "test": []}
    tasks = []
    for t in range(3):
        X = rng.standard_normal((40, 4))
        y = X[:, 0] + 0.5 * X[:, 1] ** 2 + 0.3 * rng.standard_normal(40)
        rows = np.arange(40)
        n_va, n_te = [(0, 10), (10, 0), (8, 8)][t]
        for key, idx in zip(parts, np.split(rows, [40 - n_va - n_te, 40 - n_te])):
            parts[key].append(idx)
        if t == 2:
            X[parts["train"][2], 3] = 1.5
            y[parts["train"][2]] -= y[parts["train"][2]].mean()
        ids = [f"task{t}-{i}" for i in rows]
        tasks.append(TaskDataset(name=f"task{t}", feature_names=names, X=X, y=y, sample_ids=ids))
    split = SplitAssignment(seed=0, **parts)
    return MultitaskDataset(tasks=tasks, candidate_features=names), split


class TestDownstreamEdgeCases:
    @pytest.mark.parametrize("selected", [([0, 1], [0, 1, 2], [3]), ([1], [0], [0, 3])])
    def test_matches_the_row_by_row_reference(self, selected):
        data, split = edge_case_dataset()
        params = TreeParams(min_samples_leaf=3)
        evs, naes = downstream_scores(data, split, selected, params)
        want_evs, want_naes, counts = reference_scores(data, split, selected, params)
        if selected[2] == [3]:
            assert counts[-2:] == [0, 0]  # both depths of task2's re-fit accept no tree
            assert evs[2] == 0.0
        assert len(naes[1]) == 0  # task1 has no test rows
        assert evs == want_evs
        for got, want in zip(naes, want_naes):
            assert got.tobytes() == want.tobytes()


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
        n_selected = [len(p.universal) + len(p.task_specific[0]) for p in (loose, tight)]
        assert n_selected == [2, 0]

    def test_jobs_do_not_change_results(self, monkeypatch):
        monkeypatch.setattr(pathsweep, "DOWNSTREAM_ROUNDS", (20, 60))
        data = small_dataset(reps=8)
        split = overlap_split(data.tasks, seed=0)
        grid = [10.0, 120.0, 1e5]  # the bands of test_two_point_sweep
        serial = sweep(data, split, self.base_config(), grid=grid, jobs=1)
        pooled = sweep(data, split, self.base_config(), grid=grid, jobs=2)
        # The points select different sets, so a reordering would show too.
        assert len({json.dumps([p.universal, p.task_specific]) for p in serial.points}) == 3
        assert pooled.to_dict() == serial.to_dict()
        for a, b in zip(serial.points, pooled.points):
            assert len(a.nae_test) == len(b.nae_test) == 2
            for x, y in zip(a.nae_test, b.nae_test):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()

    def test_error_names_the_penalty(self):
        data = small_dataset()
        split = overlap_split(data.tasks, seed=0)
        split.train[1] = np.array([], dtype=np.intp)
        with pytest.raises(DataError, match="penalty 0.25:"):
            sweep(data, split, self.base_config(), grid=[0.25])

    def test_other_errors_pass_unchanged(self, monkeypatch):
        # Rebuilding this error from one message would itself fail, as numpy's
        # out-of-memory error does.
        class TwoArgumentError(Exception):
            def __init__(self, message, detail):
                super().__init__(message, detail)

        raised = TwoArgumentError("out of memory", 42)

        def failing_fit(*args, **kwargs):
            raise raised

        monkeypatch.setattr(pathsweep, "fit", failing_fit)
        data = small_dataset()
        split = overlap_split(data.tasks, seed=0)
        with pytest.raises(TwoArgumentError) as info:
            sweep(data, split, self.base_config(), grid=[0.25], jobs=1)
        assert info.value is raised

    def test_empty_grid_rejected(self):
        data = small_dataset()
        split = overlap_split(data.tasks, seed=0)
        with pytest.raises(ValueError, match="grid is empty"):
            sweep(data, split, self.base_config(), grid=[])
