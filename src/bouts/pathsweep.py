"""Regularization-path protocol.

Sweep a shared penalty over a log-spaced grid; at each value fit the
two-stage selector, then re-fit a plain per-task boosted model restricted to
the selected features and score it.  The operating penalty is the largest
one that still precedes any task dropping more than 10% of the explained
variance it had at the smallest penalty.

The grid points are independent, so ``sweep`` fits them in a process pool
and returns them in grid order; the result does not depend on the pool size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np

from .boosting import (
    BoostConfig,
    add_trees,
    fit,
    fit_single_task,
    pool_map,
    task_specific_features,
    universal_features,
)
from .data import MultitaskDataset, SplitAssignment
from .errors import BoutsError, DataError, NumericalError
from .trees import TreeParams

# Downstream re-fit grid: small enough to stay cheap, deep enough to use
# interactions the selector kept.
DOWNSTREAM_DEPTHS = (2, 3)
DOWNSTREAM_ROUNDS = (100, 300)
DOWNSTREAM_LEARNING_RATE = 0.1
MAX_GRID_POINTS = 1000  # each point is a fit plus its re-fits; a longer grid is refused unbuilt


def log_grid(n_points: int = 20, base: float = math.e) -> list[float]:
    """Penalty grid equally spaced in log space, base**-4..base**4.

    Raises ValueError unless ``n_points`` is in [2, MAX_GRID_POINTS] and the
    grid is finite and strictly increasing.
    """
    if not 2 <= n_points <= MAX_GRID_POINTS:
        raise ValueError(f"n_points must be in [2, {MAX_GRID_POINTS}], got {n_points}")
    if not 1.0 < base < math.inf:
        raise ValueError(f"base must be a finite number > 1, got {base}")
    with np.errstate(over="ignore"):
        grid = [float(base ** v) for v in np.linspace(-4.0, 4.0, n_points)]
    if not (np.isfinite(grid).all() and all(a < b for a, b in zip(grid, grid[1:]))):
        raise ValueError(
            f"base {base} and n_points {n_points} give a penalty grid that is not "
            "finite and strictly increasing"
        )
    return grid


def explained_variance(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """1 - Var(residual)/Var(target); 1 is perfect, mean prediction gives 0."""
    y_true = np.asarray(y_true, dtype=np.float64)
    y_pred = np.asarray(y_pred, dtype=np.float64)
    if y_true.shape != y_pred.shape:
        raise DataError("y_true and y_pred lengths differ")
    var = float(np.var(y_true))
    if var == 0.0:
        raise NumericalError("explained variance is undefined for a constant target")
    return 1.0 - float(np.var(y_true - y_pred)) / var


@dataclass
class PathPoint:
    lam: float
    universal: list[str]
    task_specific: list[list[str]]
    ev_train: list[float]
    nae_test: list[np.ndarray]

    @cached_property
    def median_nae_test(self) -> list[Optional[float]]:
        """Per task, the median test error; None where the test partition is empty."""
        return [float(np.median(v)) if len(v) else None for v in self.nae_test]

    def to_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "universal": self.universal,
            "task_specific": self.task_specific,
            "ev_train": self.ev_train,
            "median_nae_test": self.median_nae_test,
        }


@dataclass
class RegularizationPath:
    task_names: list[str]
    points: list[PathPoint]

    def __post_init__(self) -> None:
        lams = [p.lam for p in self.points]
        if any(b <= a for a, b in zip(lams, lams[1:])):
            raise ValueError("path lambdas must be strictly increasing")

    def to_dict(self) -> dict:
        return {"task_names": self.task_names, "points": [p.to_dict() for p in self.points]}

    def csv_rows(self) -> tuple[list[str], list[list]]:
        """Header and flat per-(lambda, task) rows for plotting."""
        header = ["lambda", "task", "n_universal", "n_task_specific", "ev_train", "median_nae_test"]
        rows = [
            [p.lam, name, len(p.universal), len(specific), ev, med]
            for p in self.points
            for name, specific, ev, med in zip(
                self.task_names, p.task_specific, p.ev_train, p.median_nae_test
            )
        ]
        return header, rows


def downstream_scores(
    dataset: MultitaskDataset,
    split: SplitAssignment,
    selected: Sequence[Iterable[int]],
    tree_params: TreeParams,
) -> tuple[list[float], list[np.ndarray]]:
    """Re-fit one plain boosted model per task on its selected features.

    The (depth, rounds) pair comes from a small grid scored by validation
    MSE; a fit with ``max(rounds)`` trees is truncated to score the smaller
    budget, which is exact because the greedy sequence is deterministic.
    Each budget's predictions of the training, validation and test rows are
    one ``boosting.add_trees`` sum.  Returns per-task training explained
    variance and test absolute errors.
    """
    evs: list[float] = []
    naes: list[np.ndarray] = []
    beta = DOWNSTREAM_LEARNING_RATE
    for t, task in enumerate(dataset.tasks):
        cols = sorted(selected[t])
        parts = [part[t] for part in (split.train, split.val, split.test)]
        ytr, yva, yte = (task.y[idx] for idx in parts)
        if not cols:
            evs.append(0.0)
            naes.append(np.abs(yte))
            continue
        # Training, validation and test rows, feature-major: each tree routes all at once.
        XT = task.X.T[np.ix_(cols, np.concatenate(parts))]
        n_tr, n_va = len(ytr), len(yva)
        best = None
        for depth in DOWNSTREAM_DEPTHS:
            params = replace(tree_params, max_depth=depth)
            trees, _ = fit_single_task(
                XT[:, :n_tr].T, ytr, max(DOWNSTREAM_ROUNDS), beta, params=params
            )
            f, done = np.zeros(XT.shape[1]), 0
            for mark in sorted({min(r, len(trees)) for r in DOWNSTREAM_ROUNDS}):
                add_trees(f, [(tree, 0) for tree in trees[done:mark]], XT, beta)
                done = mark
                f_tr, f_va, f_te = np.split(f, [n_tr, n_tr + n_va])
                fit_error = yva - f_va if n_va else ytr - f_tr
                ev = explained_variance(ytr, f_tr)
                cand = (float(np.mean(fit_error**2)), ev, np.abs(yte - f_te))
                if best is None or cand[0] < best[0]:
                    best = cand
        evs.append(best[1])
        naes.append(best[2])
    return evs, naes


def _path_point(
    dataset: MultitaskDataset, split: SplitAssignment, base_config: BoostConfig, lam: float
) -> PathPoint:
    """One grid point: fit the selector at penalty ``lam`` and score its selections.

    A data or numerical error names the penalty; any other passes unchanged.
    """
    config = replace(base_config, lambda_u=lam, lambda_task=lam)
    try:
        model = fit(dataset, split, config)
        selected = [model.features(t) for t in range(dataset.n_tasks)]
        evs, naes = downstream_scores(dataset, split, selected, base_config.tree)
    except BoutsError as e:
        raise type(e)(f"penalty {lam}: {e}") from None
    uni = universal_features(model)
    spec = [task_specific_features(model, t) for t in range(dataset.n_tasks)]
    return PathPoint(lam=lam, universal=uni, task_specific=spec, ev_train=evs, nae_test=naes)


def sweep(
    dataset: MultitaskDataset,
    split: SplitAssignment,
    base_config: BoostConfig,
    grid: Optional[Sequence[float]] = None,
    jobs: int = 1,
) -> RegularizationPath:
    """Fit the selector at every grid penalty and score the selections.

    Each grid value is used for both the universal and the task penalties.
    The points run in up to ``jobs`` processes; results do not depend on
    ``jobs``.
    """
    if grid is None:
        grid = log_grid()
    if len(grid) == 0:
        raise ValueError("penalty grid is empty")
    # The smallest penalty admits the most features, so its point costs the
    # most; the grid increases, so grid order hands it out first.
    points = pool_map(
        _path_point, [float(lam) for lam in grid], jobs, (dataset, split, base_config)
    )
    return RegularizationPath(task_names=dataset.task_names, points=points)


def select_penalty(path: RegularizationPath, drop: float = 0.10) -> dict:
    """Largest penalty directly preceding a >``drop`` explained-variance fall.

    The reference is each task's explained variance at the smallest penalty.
    Returns the ``selected_lambda.json`` object ``{"index", "lambda",
    "warning"}``.  If that reference point itself violates the rule (negative
    reference), index 0 is returned with the warning flag set.
    """
    if not path.points:
        raise ValueError("empty path")
    if not 0.0 < drop < 1.0:
        raise ValueError("drop must be in (0, 1)")
    refs = path.points[0].ev_train
    floors = [(1.0 - drop) * r for r in refs]
    for j, point in enumerate(path.points):
        if any(ev < floor for ev, floor in zip(point.ev_train, floors)):
            if j == 0:
                return {"index": 0, "lambda": path.points[0].lam, "warning": True}
            return {"index": j - 1, "lambda": path.points[j - 1].lam, "warning": False}
    last = len(path.points) - 1
    return {"index": last, "lambda": path.points[last].lam, "warning": False}
