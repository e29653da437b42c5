"""Regularization-path protocol.

Sweep a shared penalty over a log-spaced grid; at each value fit the
two-stage selector, then re-fit a plain per-task boosted model restricted to
the selected features and score it.  The operating penalty is the largest
one that still precedes any task dropping more than 10% of the explained
variance it had at the smallest penalty.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .boosting import BoostConfig, fit, fit_single_task, task_specific_features, universal_features
from .data import MultitaskDataset, SplitAssignment
from .errors import DataError, NumericalError
from .trees import TreeParams

# Downstream re-fit grid: small enough to stay cheap, deep enough to use
# interactions the selector kept.
DOWNSTREAM_DEPTHS = (2, 3)
DOWNSTREAM_ROUNDS = (100, 300)
DOWNSTREAM_LEARNING_RATE = 0.1


def log_grid(n_points: int = 20, low: float = -4.0, high: float = 4.0, base: float = math.e) -> list[float]:
    """Penalty grid equally spaced in log space, default exp(-4)..exp(4).

    Raises ValueError unless the grid is finite and strictly increasing.
    """
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    if not 1.0 < base < math.inf:
        raise ValueError(f"base must be a finite number > 1, got {base}")
    with np.errstate(over="ignore"):
        grid = [float(base ** v) for v in np.linspace(low, high, n_points)]
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


def normalized_absolute_error(y_true_std: np.ndarray, y_pred_std: np.ndarray) -> np.ndarray:
    """Element-wise absolute error of already-standardized values."""
    y_true_std = np.asarray(y_true_std, dtype=np.float64)
    y_pred_std = np.asarray(y_pred_std, dtype=np.float64)
    if y_true_std.shape != y_pred_std.shape:
        raise DataError("y_true and y_pred lengths differ")
    return np.abs(y_true_std - y_pred_std)


@dataclass
class PathPoint:
    lam: float
    universal: list[str]
    task_specific: list[list[str]]
    ev_train: list[float]
    nae_test: list[np.ndarray]

    def n_selected(self, t: int) -> int:
        return len(self.universal) + len(self.task_specific[t])

    def to_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "universal": self.universal,
            "task_specific": self.task_specific,
            "ev_train": self.ev_train,
            "median_nae_test": [float(np.median(v)) if len(v) else None for v in self.nae_test],
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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def to_csv(self) -> str:
        """Flat per-(lambda, task) rows for plotting."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["lambda", "task", "n_universal", "n_task_specific", "ev_train", "median_nae_test"]
        )
        for p in self.points:
            for t, name in enumerate(self.task_names):
                med = float(np.median(p.nae_test[t])) if len(p.nae_test[t]) else ""
                writer.writerow(
                    [
                        repr(p.lam),
                        name,
                        len(p.universal),
                        len(p.task_specific[t]),
                        repr(p.ev_train[t]),
                        repr(med) if med != "" else "",
                    ]
                )
        return buf.getvalue()


@dataclass(frozen=True)
class SelectedPenalty:
    index: int
    lam: float
    warning: bool  # True when even the smallest penalty violates the cutoff


def downstream_scores(
    dataset: MultitaskDataset,
    split: SplitAssignment,
    selected: Sequence[Sequence[int]],
    tree_params: TreeParams,
) -> tuple[list[float], list[np.ndarray]]:
    """Re-fit one plain boosted model per task on its selected features.

    The (depth, rounds) pair comes from a small grid scored by validation
    MSE; a fit with ``max(rounds)`` trees is truncated to score the smaller
    budget, which is exact because the greedy sequence is deterministic.
    Returns per-task training explained variance and test absolute errors.
    """
    evs: list[float] = []
    naes: list[np.ndarray] = []
    beta = DOWNSTREAM_LEARNING_RATE
    for t, task in enumerate(dataset.tasks):
        cols = sorted(selected[t])
        ytr = task.y[split.train[t]]
        yva = task.y[split.val[t]]
        yte = task.y[split.test[t]]
        if not cols:
            evs.append(0.0)
            naes.append(np.abs(yte))
            continue
        Xtr = task.X[np.ix_(split.train[t], cols)]
        Xva = task.X[np.ix_(split.val[t], cols)]
        Xte = task.X[np.ix_(split.test[t], cols)]
        best = None
        for depth in DOWNSTREAM_DEPTHS:
            params = replace(tree_params, max_depth=depth)
            trees, _, _ = fit_single_task(
                Xtr, ytr, max(DOWNSTREAM_ROUNDS), beta, 0.0, params=params
            )
            f_tr = np.zeros(len(ytr))
            f_va = np.zeros(len(yva))
            f_te = np.zeros(len(yte))
            marks = sorted({min(r, len(trees)) for r in DOWNSTREAM_ROUNDS})
            done = 0
            for mark in marks:
                for tree in trees[done:mark]:
                    f_tr += beta * tree.predict(0, Xtr)
                    if len(yva):
                        f_va += beta * tree.predict(0, Xva)
                    if len(yte):
                        f_te += beta * tree.predict(0, Xte)
                done = mark
                val_mse = (
                    float(np.mean((yva - f_va) ** 2)) if len(yva) else float(np.mean((ytr - f_tr) ** 2))
                )
                cand = (val_mse, depth, mark, explained_variance(ytr, f_tr), np.abs(yte - f_te))
                if best is None or cand[0] < best[0]:
                    best = cand
        evs.append(float(best[3]))
        naes.append(best[4])
    return evs, naes


def sweep(
    dataset: MultitaskDataset,
    split: SplitAssignment,
    base_config: BoostConfig,
    grid: Optional[Sequence[float]] = None,
) -> RegularizationPath:
    """Fit the selector at every grid penalty and score the selections.

    Each grid value is used for both the universal and the task penalties.
    """
    if grid is None:
        grid = log_grid()
    if len(grid) == 0:
        raise ValueError("penalty grid is empty")
    name_to_col = {f: i for i, f in enumerate(dataset.candidate_features)}
    points: list[PathPoint] = []
    for lam in grid:
        config = replace(base_config, lambda_u=float(lam), lambda_task=float(lam))
        try:
            model = fit(dataset, split, config)
        except Exception as e:
            raise type(e)(f"penalty {lam}: {e}") from e
        uni = universal_features(model)
        spec = [task_specific_features(model, t) for t in range(dataset.n_tasks)]
        selected = [
            [name_to_col[f] for f in uni] + [name_to_col[f] for f in spec[t]]
            for t in range(dataset.n_tasks)
        ]
        evs, naes = downstream_scores(dataset, split, selected, base_config.tree)
        points.append(
            PathPoint(lam=float(lam), universal=uni, task_specific=spec, ev_train=evs, nae_test=naes)
        )
    return RegularizationPath(task_names=dataset.task_names, points=points)


def select_penalty(path: RegularizationPath, drop: float = 0.10) -> SelectedPenalty:
    """Largest penalty directly preceding a >``drop`` explained-variance fall.

    The reference is each task's explained variance at the smallest penalty.
    If that reference point itself violates the rule (negative reference),
    index 0 is returned with the warning flag set.
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
                return SelectedPenalty(index=0, lam=path.points[0].lam, warning=True)
            return SelectedPenalty(index=j - 1, lam=path.points[j - 1].lam, warning=False)
    last = len(path.points) - 1
    return SelectedPenalty(index=last, lam=path.points[last].lam, warning=False)
