"""Two-stage boosted feature selection.

Stage 1 fits ``rounds_universal`` multitask trees on all tasks' squared-error
residuals; every feature they introduce joins the universal set.  Stage 2
boosts each task independently for ``rounds_task`` rounds, charging
``lambda_task`` only for features outside the universal set.  Labels are
assumed standardized, so the initial prediction is 0 and the implied
coefficient mass after r accepted rounds is exactly beta * r.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .data import MultitaskDataset, SplitAssignment
from .errors import DataError
from .multitask import MultitaskTree, grow_multitask_tree
from .trees import TreeParams

# A single-leaf tree whose value is this close to zero adds nothing; the
# round is skipped.  Residual means on standardized labels land here once
# the intercept is exhausted.
DEGENERATE_TOL = 1e-12

OnRound = Callable[[str, object, object], None]


@dataclass
class BoostConfig:
    """Knobs for both boosting stages."""

    rounds_universal: int = 100
    rounds_task: int = 100
    learning_rate: float = 0.1
    lambda_u: float = 0.0
    lambda_task: Union[float, Sequence[float]] = 0.0
    tree: TreeParams = field(default_factory=TreeParams)

    def __post_init__(self) -> None:
        if self.rounds_universal < 0 or self.rounds_task < 0:
            raise ValueError("round counts must be >= 0")
        if self.rounds_universal + self.rounds_task < 1:
            raise ValueError("need at least one boosting round across the two stages")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if not self.lambda_u >= 0:  # NaN fails too; inf means "admit no new feature"
            raise ValueError(f"lambda_u must be >= 0, got {self.lambda_u}")
        lams = self.lambda_task if _is_sequence(self.lambda_task) else [self.lambda_task]
        if not all(l >= 0 for l in lams):
            raise ValueError("lambda_task must be >= 0")

    def lambda_for_task(self, t: int, n_tasks: int) -> float:
        if _is_sequence(self.lambda_task):
            if len(self.lambda_task) != n_tasks:
                raise ValueError(
                    f"lambda_task has {len(self.lambda_task)} entries for {n_tasks} tasks"
                )
            return float(self.lambda_task[t])
        return float(self.lambda_task)

    def to_dict(self) -> dict:
        lam_t = (
            list(self.lambda_task) if _is_sequence(self.lambda_task) else self.lambda_task
        )
        return {
            "rounds_universal": self.rounds_universal,
            "rounds_task": self.rounds_task,
            "learning_rate": self.learning_rate,
            "lambda_u": self.lambda_u,
            "lambda_task": lam_t,
            "tree": self.tree.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BoostConfig":
        d = dict(d)
        d["tree"] = TreeParams.from_dict(d["tree"])
        return cls(**d)


def _is_sequence(x) -> bool:
    return isinstance(x, (list, tuple))


def _mse(residuals: np.ndarray) -> float:
    return float(np.mean(residuals * residuals))


def _boost(
    Xs: Sequence[np.ndarray],
    residuals: list[np.ndarray],
    rounds: int,
    learning_rate: float,
    lam: float,
    used: set[int],
    params: TreeParams,
    on_round: Optional[Callable[[int, list[np.ndarray]], None]],
) -> tuple[list[MultitaskTree], list[list[float]]]:
    """The boosting loop of both stages, over one or more tasks.

    Grows up to ``rounds`` shared trees on the current ``residuals``,
    updating them and ``used`` in place, and calls ``on_round`` (if given)
    with the tree count and the live residuals after each accepted round.
    Returns the accepted trees and the per-task training MSE after each.  A
    round producing a single leaf with every value ~0 is skipped; since
    nothing changed, every later round would repeat it, so the loop exits.
    """
    trees: list[MultitaskTree] = []
    history: list[list[float]] = []
    for _ in range(rounds):
        tree = grow_multitask_tree(Xs, residuals, used, lam, params)
        if tree.is_stump_leaf and all(abs(v) <= DEGENERATE_TOL for v in tree.values[0]):
            break
        trees.append(tree)
        used |= tree.features_used
        for t, X in enumerate(Xs):
            residuals[t] -= learning_rate * tree.predict(t, X)
        history.append([_mse(r) for r in residuals])
        if on_round is not None:
            on_round(len(trees), residuals)
    return trees, history


def fit_single_task(
    X: np.ndarray,
    y: np.ndarray,
    rounds: int,
    learning_rate: float,
    lam: float = 0.0,
    used: Optional[set[int]] = None,
    params: Optional[TreeParams] = None,
    on_round: Optional[Callable[[int, np.ndarray], None]] = None,
) -> tuple[list[MultitaskTree], set[int], list[float]]:
    """Plain single-task gradient boosting on squared error.

    Returns the accepted T=1 trees, the final used-feature set (a mutated
    copy of ``used``), and the training MSE after each accepted round.
    """
    used_now = set(used) if used is not None else set()
    cb = None
    if on_round is not None:
        cb = lambda b, res: on_round(b, res[0].copy())
    residuals = [np.array(y, dtype=np.float64)]
    trees, history = _boost(
        [X], residuals, rounds, learning_rate, lam, used_now, params or TreeParams(), cb
    )
    return trees, used_now, [h[0] for h in history]


@dataclass
class BoutsModel:
    """The fitted two-stage ensemble."""

    config: BoostConfig
    feature_names: list[str]
    task_names: list[str]
    universal_trees: list[MultitaskTree]
    task_trees: list[list[MultitaskTree]]  # T=1 trees
    f0: list[float]
    universal_mse: list[list[float]] = field(default_factory=list)  # per round, per task
    task_mse: list[list[float]] = field(default_factory=list)  # per task, per round

    @property
    def n_tasks(self) -> int:
        return len(self.task_names)

    @property
    def universal_feature_indices(self) -> set[int]:
        out: set[int] = set()
        for tree in self.universal_trees:
            out |= tree.features_used
        return out

    def task_feature_indices(self, t: int) -> set[int]:
        out: set[int] = set()
        for tree in self.task_trees[t]:
            out |= tree.features_used
        return out

    def predict(self, t: int, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != len(self.feature_names):
            raise DataError(
                f"expected {len(self.feature_names)} feature columns, got shape {X.shape}"
            )
        out = np.full(X.shape[0], self.f0[t])
        beta = self.config.learning_rate
        for mtree in self.universal_trees:
            out += beta * mtree.predict(t, X)
        for tree in self.task_trees[t]:
            out += beta * tree.predict(0, X)
        return out

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "feature_names": self.feature_names,
            "task_names": self.task_names,
            "f0": self.f0,
            "universal_trees": [t.to_dict() for t in self.universal_trees],
            "task_trees": [[t.to_dict(scalar=True) for t in trees] for trees in self.task_trees],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BoutsModel":
        """Decode a saved model.

        Raises DataError when the parts disagree on the number of tasks, an
        ``f0`` entry is not finite or a tree is malformed (see ``MultitaskTree.from_dict``); a missing key
        raises KeyError and a mistyped value TypeError or ValueError.
        """
        T, n_features = len(d["task_names"]), len(d["feature_names"])
        model = cls(
            config=BoostConfig.from_dict(d["config"]),
            feature_names=list(d["feature_names"]),
            task_names=list(d["task_names"]),
            universal_trees=[
                MultitaskTree.from_dict(tree, n_features, T) for tree in d["universal_trees"]
            ],
            task_trees=[
                [MultitaskTree.from_dict(tree, n_features, 1) for tree in trees]
                for trees in d["task_trees"]
            ],
            f0=[float(v) for v in d["f0"]],
        )
        if len(model.f0) != T or len(model.task_trees) != T:
            raise DataError(
                f"{T} tasks but {len(model.f0)} f0 entries and {len(model.task_trees)} "
                "stage-2 tree lists"
            )
        if not np.isfinite(model.f0).all():
            raise DataError(f"f0 holds a non-finite number: {model.f0}")
        return model


def fit(
    dataset: MultitaskDataset,
    split: SplitAssignment,
    config: BoostConfig,
    on_round: Optional[OnRound] = None,
) -> BoutsModel:
    """Run both boosting stages on the training partition.

    ``on_round`` (if given) is called after every accepted update: with
    ("universal", trees_so_far, residual copies per task) during stage 1 and
    ("task", (task, trees_so_far), residual copy) during stage 2.
    """
    T = dataset.n_tasks
    Xs, ys = [], []
    for t, task in enumerate(dataset.tasks):
        idx = split.train[t]
        if len(idx) == 0:
            raise DataError(f"task {task.name!r}: empty training partition")
        Xs.append(task.X[idx])
        ys.append(task.y[idx])

    residuals = [y.copy() for y in ys]
    universal_used: set[int] = set()
    beta = config.learning_rate
    cb = None
    if on_round is not None:
        cb = lambda b, res: on_round("universal", b, [r.copy() for r in res])
    universal_trees, universal_mse = _boost(
        Xs, residuals, config.rounds_universal, beta, config.lambda_u, universal_used,
        config.tree, cb,
    )

    task_trees: list[list[MultitaskTree]] = []
    task_mse: list[list[float]] = []
    for t in range(T):
        cb = None
        if on_round is not None:
            cb = lambda b, r, _t=t: on_round("task", (_t, b), r)
        lam = config.lambda_for_task(t, T)
        trees, _, history = fit_single_task(
            Xs[t], residuals[t], config.rounds_task, beta, lam, universal_used, config.tree, cb
        )
        task_trees.append(trees)
        task_mse.append(history)

    return BoutsModel(
        config=replace(config, tree=replace(config.tree)),
        feature_names=list(dataset.candidate_features),
        task_names=dataset.task_names,
        universal_trees=universal_trees,
        task_trees=task_trees,
        f0=[0.0] * T,
        universal_mse=universal_mse,
        task_mse=task_mse,
    )


def universal_features(model: BoutsModel) -> list[str]:
    """Names of every feature the stage-1 trees split on, sorted."""
    return sorted(model.feature_names[i] for i in model.universal_feature_indices)


def task_specific_features(model: BoutsModel, t: int) -> list[str]:
    """Names used by task t's stage-2 trees and not universal, sorted."""
    extra = model.task_feature_indices(t) - model.universal_feature_indices
    return sorted(model.feature_names[i] for i in extra)


def feature_importances(model: BoutsModel, t: int) -> dict[str, float]:
    """Share of total raw split gain per feature for task t's trees."""
    totals: dict[int, float] = {}
    # Universal trees carry task t's gains in column t; stage-2 trees are T=1.
    components = [(tree, t) for tree in model.universal_trees]
    components += [(tree, 0) for tree in model.task_trees[t]]
    for tree, k in components:
        for i in range(tree.n_nodes):
            if not tree.is_leaf(i):
                totals[tree.feature[i]] = totals.get(tree.feature[i], 0.0) + tree.gains[i][k]
    grand = sum(totals.values())
    if grand <= 0.0:
        return {}
    return {model.feature_names[f]: g / grand for f, g in sorted(totals.items())}
