"""Two-stage boosted feature selection.

Stage 1 fits ``rounds_universal`` multitask trees on all tasks' squared-error
residuals; every feature they introduce joins the universal set.  Stage 2
boosts each task independently for ``rounds_task`` rounds, charging
``lambda_task`` only for features outside the universal set.  Labels are
assumed standardized, so the initial prediction is 0 and the implied
coefficient mass after r accepted rounds is exactly beta * r.

A fitted ``BoutsModel`` holds exactly what ``model.json`` holds; per-round
numbers, such as the training MSE, come only through the ``on_round`` hooks.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field, replace
from typing import AbstractSet, Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .data import MultitaskDataset, SplitAssignment, _first_duplicate, json_numbers
from .errors import DataError
from .multitask import MultitaskTree, grow_multitask_tree
from .trees import TreeParams, sort_rows

# A single-leaf tree whose value is this close to zero adds nothing; the
# round is skipped.  Residual means on standardized labels land here once
# the intercept is exhausted.
DEGENERATE_TOL = 1e-12

OnRound = Callable[[str, object, object], None]
RoundHook = Callable[[int, list[np.ndarray], list[np.ndarray]], None]


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

    def task_lambdas(self, n_tasks: int) -> list[float]:
        """Each task's stage-2 penalty; a ValueError unless a list has ``n_tasks`` entries."""
        if not _is_sequence(self.lambda_task):
            return [float(self.lambda_task)] * n_tasks
        if len(self.lambda_task) != n_tasks:
            raise ValueError(f"lambda_task has {len(self.lambda_task)} entries for {n_tasks} tasks")
        return [float(lam) for lam in self.lambda_task]

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "BoostConfig":
        return cls(**{**d, "tree": TreeParams(**d["tree"])})


def _is_sequence(x) -> bool:
    return isinstance(x, (list, tuple))


def _boost(
    Xs: Sequence[np.ndarray],
    residuals: list[np.ndarray],
    rounds: int,
    learning_rate: float,
    lam: float,
    used: AbstractSet[int],
    params: TreeParams,
    on_round: Optional[RoundHook],
) -> tuple[list[MultitaskTree], set[int]]:
    """The boosting loop of both stages, over one or more tasks.

    Grows up to ``rounds`` shared trees on the current ``residuals``,
    updating them in place, and calls ``on_round`` (if given) after each
    accepted round with the tree count, the live residuals and the round's
    per-task update of the training predictions.  Returns the accepted trees
    and a new set: ``used`` plus every feature they split on.  A round
    producing a single leaf with every value ~0 is skipped; since nothing
    changed, every later round would repeat it, so the loop exits.
    """
    used_now = set(used)
    if rounds <= 0:  # a stage switched off prepares nothing
        return [], used_now
    # X is the same in every round: prepare each task's root once.
    roots = [sort_rows(np.ascontiguousarray(X.T, dtype=np.float64)) for X in Xs]
    trees: list[MultitaskTree] = []
    for _ in range(rounds):
        tree, leaf_of_row = grow_multitask_tree(roots, residuals, used_now, lam, params)
        if tree.is_stump_leaf and all(abs(v) <= DEGENERATE_TOL for v in tree.values[0]):
            break
        trees.append(tree)
        used_now |= tree.features_used
        # The grower saw where each training row landed: no routing needed.
        steps = [learning_rate * tree.values[leaves, t] for t, leaves in enumerate(leaf_of_row)]
        for residual, step in zip(residuals, steps):
            residual -= step
        if on_round is not None:
            on_round(len(trees), residuals, steps)
    return trees, used_now


def fit_single_task(
    X: np.ndarray,
    y: np.ndarray,
    rounds: int,
    learning_rate: float,
    lam: float = 0.0,
    used: Optional[AbstractSet[int]] = None,
    params: Optional[TreeParams] = None,
    on_round: Optional[RoundHook] = None,
) -> tuple[list[MultitaskTree], set[int]]:
    """Plain single-task gradient boosting on squared error.

    Features in ``used`` split free of ``lam``.  Returns the accepted T=1
    trees and a new set: ``used`` plus every feature they split on.  After
    each accepted round, ``on_round`` gets the tree count, ``[residual]``
    and ``[step]``, the round's update of the training predictions
    (``learning_rate`` times each row's leaf).  Both arrays are live: copy
    what you keep.
    """
    residuals = [np.array(y, dtype=np.float64)]
    return _boost(
        [X], residuals, rounds, learning_rate, lam, used or (), params or TreeParams(), on_round
    )


@dataclass
class BoutsModel:
    """The fitted two-stage ensemble."""

    config: BoostConfig
    feature_names: list[str]
    task_names: list[str]
    universal_trees: list[MultitaskTree]
    task_trees: list[list[MultitaskTree]]  # T=1 trees
    f0: list[float]

    @property
    def n_tasks(self) -> int:
        return len(self.task_names)

    @property
    def universal_feature_indices(self) -> set[int]:
        return set().union(*(tree.features_used for tree in self.universal_trees))

    def _check_task(self, t: int) -> None:
        if not 0 <= t < self.n_tasks:
            raise IndexError(f"task index {t} out of range for a model of {self.n_tasks} tasks")

    def task_feature_indices(self, t: int) -> set[int]:
        self._check_task(t)
        return set().union(*(tree.features_used for tree in self.task_trees[t]))

    def predict(self, t: int, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != len(self.feature_names):
            raise DataError(
                f"expected {len(self.feature_names)} feature columns, got shape {X.shape}"
            )
        used = sorted(self.universal_feature_indices | self.task_feature_indices(t))
        return self.predict_columns(t, dict(zip(used, X.T[used])), len(X))

    def predict_columns(self, t: int, XT, n_rows: int) -> np.ndarray:
        """``predict`` on feature-major columns: ``XT[f]`` is feature f of every row."""
        self._check_task(t)
        out, leaves, nans = np.full(n_rows, self.f0[t]), np.empty(n_rows), {}
        beta = self.config.learning_rate
        for mtree in self.universal_trees:
            out += np.multiply(mtree.route(t, XT, nans, leaves), beta, out=leaves)
        for tree in self.task_trees[t]:
            out += np.multiply(tree.route(0, XT, nans, leaves), beta, out=leaves)
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

        Raises DataError when a feature or task name repeats, the parts
        disagree on the number of tasks, an ``f0`` entry is not finite or a
        tree is malformed (see ``MultitaskTree.from_dict``); a missing key
        raises KeyError and a mistyped value TypeError or ValueError.
        """
        names, trees = (d["feature_names"], d["task_names"]), (d["universal_trees"], d["task_trees"])
        if not all(type(n) is list and {*map(type, n)} <= {str} for n in names):
            raise DataError("feature_names and task_names must be lists of strings")
        for what, values in zip(("feature", "task"), names):
            if len(set(values)) != len(values):
                raise DataError(f"repeated {what} name {_first_duplicate(values)!r}")
        if not all(type(ts) is list for ts in (*trees, *trees[1])):
            raise DataError("universal_trees and task_trees must be lists")
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
            f0=json_numbers(d["f0"], "f0"),
        )
        if len(model.f0) != T or len(model.task_trees) != T:
            raise DataError(
                f"{T} tasks but {len(model.f0)} f0 entries and {len(model.task_trees)} "
                "stage-2 tree lists"
            )
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
    lambda_tasks = config.task_lambdas(T)  # a bad list fails before any tree grows
    Xs, residuals = [], []
    for t, task in enumerate(dataset.tasks):
        idx = split.train[t]
        if len(idx) == 0:
            raise DataError(f"task {task.name!r}: empty training partition")
        Xs.append(task.X[idx])
        residuals.append(task.y[idx])  # index arrays select a copy

    beta = config.learning_rate
    cb = None
    if on_round is not None:
        cb = lambda b, res, _: on_round("universal", b, [r.copy() for r in res])
    universal_trees, universal_used = _boost(
        Xs, residuals, config.rounds_universal, beta, config.lambda_u, (), config.tree, cb
    )

    task_trees: list[list[MultitaskTree]] = []
    for t in range(T):
        cb = None
        if on_round is not None:
            cb = lambda b, res, _, _t=t: on_round("task", (_t, b), res[0].copy())
        trees, _ = fit_single_task(
            Xs[t], residuals[t], config.rounds_task, beta, lambda_tasks[t], universal_used,
            config.tree, cb,
        )
        task_trees.append(trees)

    return BoutsModel(
        config=replace(config, tree=replace(config.tree)),
        feature_names=list(dataset.candidate_features),
        task_names=dataset.task_names,
        universal_trees=universal_trees,
        task_trees=task_trees,
        f0=[0.0] * T,
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
    model._check_task(t)
    totals: dict[int, float] = {}
    # Universal trees carry task t's gains in column t; stage-2 trees are T=1.
    components = [(tree, t) for tree in model.universal_trees]
    components += [(tree, 0) for tree in model.task_trees[t]]
    for tree, k in components:
        split = tree.feature != tree.LEAF
        for f, g in zip(tree.feature[split].tolist(), tree.gains[split, k].tolist()):
            totals[f] = totals.get(f, 0.0) + g
    grand = sum(totals.values())
    if grand <= 0.0:
        return {}
    return {model.feature_names[f]: g / grand for f, g in sorted(totals.items())}


# What ``pool_map`` ships to each worker once; set by the pool initializer.
_shared: tuple = ()


def _start_worker(shared: tuple) -> None:
    """Pool initializer: keep ``shared`` for the calls."""
    global _shared
    _shared = shared


def _call_with_shared(fn: Callable, item):
    return fn(*_shared, item)


def pool_map(fn: Callable, items: Iterable, jobs: int = 1, shared: tuple = ()) -> list:
    """``[fn(*shared, item) for item in items]``, over up to ``jobs`` processes.

    The pool has ``min(jobs, len(items))`` workers; with one, everything
    runs in this process.  ``shared`` (the data every item reads) goes to
    each worker once, through the pool initializer; only ``item`` goes with
    each call, so ``fn`` must be a module-level function.  Results come back
    in item order, and the first item to fail, in item order, raises its
    error, as in the serial loop.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    items = list(items)
    workers = min(jobs, len(items))
    if workers <= 1:
        return [fn(*shared, item) for item in items]
    from concurrent.futures import ProcessPoolExecutor  # its import costs a serial run 6 ms

    with ProcessPoolExecutor(
        max_workers=workers, initializer=_start_worker, initargs=(shared,)
    ) as pool:
        return list(pool.map(functools.partial(_call_with_shared, fn), items))
