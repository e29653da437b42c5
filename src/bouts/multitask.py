"""The regression tree: one shared topology across T tasks.

Every node position uses one split feature for all T tasks, but each task
keeps its own threshold and leaf values.  The split feature is chosen by a
maximin rule: each task reports the best penalized gain it can reach on a
feature, and the feature with the largest worst-task gain wins.

This is the package's only tree.  A single-task tree is the T=1 case, where
the maximin rule reduces to the plain argmax of the penalized gain; stage-2
boosting and the downstream re-fits grow such trees.  ``MultitaskTree``
also owns the two on-disk node layouts: per-task lists for universal trees
and scalars for T=1 stage-2 trees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from typing import AbstractSet, Optional, Sequence

import numpy as np

from .errors import DataError, NumericalError
from .trees import TIE_MARGIN, NodeView, TreeParams, best_on_feature, raw_gain, scan_columns


@dataclass(frozen=True)
class MultitaskNodeView:
    """Per-task sample views sitting at one shared node position."""

    Xs: tuple[np.ndarray, ...]
    ys: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if len(self.Xs) != len(self.ys) or not self.Xs:
            raise ValueError("need one (X, y) pair per task")
        for X, y in zip(self.Xs, self.ys):
            if len(y) == 0:
                raise ValueError("every task view must be nonempty")
            if X.shape[0] != y.shape[0]:
                raise ValueError("X and y row counts differ")

    @property
    def n_tasks(self) -> int:
        return len(self.Xs)


@dataclass(frozen=True)
class MultitaskSplit:
    feature: int
    thresholds: tuple[float, ...]  # one per task
    gains: tuple[float, ...]  # per-task penalized gain at the chosen threshold
    raw_gains: tuple[float, ...]
    score: float  # min over tasks of the penalized gains


def maximin_split(
    node: MultitaskNodeView,
    used_universal: AbstractSet[int],
    lambda_u: float,
    params: TreeParams,
) -> Optional[MultitaskSplit]:
    """Shared split feature maximizing the minimum per-task penalized gain.

    Pass one scores every feature: each task maximizes over its own midpoint
    thresholds, the per-feature score is the min across tasks, and the argmax
    feature wins (lowest index on ties).  Pass two re-solves each task's
    threshold and gain on the winning column with the definition-based ops;
    features within the tie margin of the best score go through the same
    re-solve so near-ties cannot be misordered by scan arithmetic.  Returns
    None when the score is <= ``params.min_gain``.
    """
    d = node.Xs[0].shape[1]
    n_tasks = node.n_tasks
    new = np.ones(d, dtype=bool)
    if used_universal:
        new[list(used_universal)] = False
    charges = np.where(new, lambda_u, 0.0)
    # Per task: (raw gains, thresholds, ambiguous flags) over the d features.
    scans = [
        scan_columns(X, y, params.min_samples_leaf, params.criterion)
        for X, y in zip(node.Xs, node.ys)
    ]
    pens = []
    for raw, _, _ in scans:
        pen = raw - charges
        pen[~np.isfinite(raw)] = -np.inf
        pens.append(pen)
    score = reduce(np.minimum, pens)
    s_max = float(np.max(score)) if d else -np.inf
    if not np.isfinite(s_max):
        return None
    tol = TIE_MARGIN * max(1.0, abs(s_max))
    if s_max <= params.min_gain - tol:
        return None
    views = [NodeView(X, y) for X, y in zip(node.Xs, node.ys)]
    shortlist = np.flatnonzero(np.isfinite(score) & (score >= s_max - tol))
    best = None  # (score, feature, per-task (penalized gain, threshold, raw))
    for f in shortlist:
        f = int(f)
        charge = float(charges[f])
        task_best: list[tuple[float, float, float]] = []
        for t, (_, thresholds, ambiguous) in enumerate(scans):
            if ambiguous[f]:
                resolved = best_on_feature(
                    views[t], f, charge, params.min_samples_leaf, params.criterion
                )
                if resolved is None:
                    break
                g_pen, v = resolved
                g_raw = float(raw_gain(views[t], f, v, params.criterion))
            else:
                v = float(thresholds[f])
                g_raw = float(raw_gain(views[t], f, v, params.criterion))
                g_pen = g_raw - charge
            task_best.append((g_pen, v, g_raw))
        if len(task_best) < n_tasks:
            continue
        sc = min(g for g, _, _ in task_best)
        if best is None or sc > best[0]:
            best = (sc, f, task_best)
    if best is None or best[0] <= params.min_gain:
        return None
    sc, f, task_best = best
    gains, thresholds, raw_gains = zip(*task_best)
    return MultitaskSplit(f, thresholds, gains, raw_gains, float(sc))


# Stage-2 trees are stored with one number per field instead of a per-task
# list; these are the scalar layout's names for the per-task fields.
_SCALAR_KEYS = {
    "values": "value",
    "thresholds": "threshold",
    "gains": "gain",
    "penalized_gains": "penalized_gain",
}


@dataclass
class MultitaskTree:
    """Shared-topology tree: one feature per node, per-task thresholds/leaves.

    Parallel node arrays (index 0 is the root).  ``feature[i] == -1`` marks
    a leaf; ``thresholds[i]``, ``values[i]`` and the raw/penalized gains
    achieved when the split was chosen hold one entry per task.
    """

    n_tasks: int
    feature: list[int] = field(default_factory=list)
    thresholds: list[list[float]] = field(default_factory=list)
    left: list[int] = field(default_factory=list)
    right: list[int] = field(default_factory=list)
    values: list[list[float]] = field(default_factory=list)
    gains: list[list[float]] = field(default_factory=list)
    penalized_gains: list[list[float]] = field(default_factory=list)

    LEAF = -1

    @property
    def features_used(self) -> set[int]:
        return {f for f in self.feature if f != self.LEAF}

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def is_leaf(self, i: int) -> bool:
        return self.feature[i] == self.LEAF

    @property
    def is_stump_leaf(self) -> bool:
        return self.n_nodes == 1 and self.is_leaf(0)

    def add_leaf(self, values: Sequence[float]) -> int:
        self.feature.append(self.LEAF)
        self.thresholds.append([0.0] * self.n_tasks)
        self.left.append(self.LEAF)
        self.right.append(self.LEAF)
        self.values.append(list(values))
        self.gains.append([0.0] * self.n_tasks)
        self.penalized_gains.append([0.0] * self.n_tasks)
        return len(self.feature) - 1

    def add_internal(
        self, f: int, thresholds: Sequence[float], gains: Sequence[float], pen: Sequence[float]
    ) -> int:
        """Append a split on ``f``; one threshold, raw gain and penalized gain per task."""
        self.feature.append(f)
        self.thresholds.append(list(thresholds))
        self.left.append(self.LEAF)
        self.right.append(self.LEAF)
        self.values.append([float("nan")] * self.n_tasks)
        self.gains.append(list(gains))
        self.penalized_gains.append(list(pen))
        return len(self.feature) - 1

    def predict(self, task: int, X: np.ndarray) -> np.ndarray:
        """Predictions of this tree's component for one task; ties go left."""
        X = np.asarray(X, dtype=np.float64)
        out = np.empty(X.shape[0])
        stack = [(0, np.arange(X.shape[0]))]
        while stack:
            i, idx = stack.pop()
            if idx.size == 0:
                continue
            if self.is_leaf(i):
                out[idx] = self.values[i][task]
                continue
            col = X[idx, self.feature[i]]
            if np.isnan(col).any():
                raise NumericalError(f"NaN at feature index {self.feature[i]} during prediction")
            go_left = col <= self.thresholds[i][task]
            stack.append((self.left[i], idx[go_left]))
            stack.append((self.right[i], idx[~go_left]))
        return out

    def to_dict(self, scalar: bool = False) -> dict:
        """Node list with per-task fields; ``scalar`` writes a T=1 tree in the
        stage-2 layout (one number per field, no ``n_tasks`` key)."""
        if scalar and self.n_tasks != 1:
            raise ValueError("only a single-task tree has a scalar layout")
        nodes = []
        for i in range(self.n_nodes):
            if self.is_leaf(i):
                node, keys = {}, ("values",)
            else:
                node = {"feature": self.feature[i], "left": self.left[i], "right": self.right[i]}
                keys = ("thresholds", "gains", "penalized_gains")
            for key in keys:
                row = getattr(self, key)[i]
                node[_SCALAR_KEYS[key] if scalar else key] = row[0] if scalar else row
            nodes.append(node)
        return {"nodes": nodes} if scalar else {"n_tasks": self.n_tasks, "nodes": nodes}

    @classmethod
    def from_dict(cls, d: dict, n_features: int, n_tasks: int) -> "MultitaskTree":
        """Decode either layout (a dict without ``n_tasks`` is scalar).

        Raises DataError unless the tree covers ``n_tasks`` tasks, every
        per-task field has that many finite entries, every split feature is below
        ``n_features``, and every child index points forward (past its
        parent) inside the node list, which rules out cycles before anything
        is routed.  Missing keys raise KeyError.
        """
        scalar = "n_tasks" not in d
        if d.get("n_tasks", 1) != n_tasks:
            raise DataError(f"tree covers {d.get('n_tasks', 1)!r} tasks, not {n_tasks}")
        nodes = d["nodes"]
        if not nodes:
            raise DataError("tree has no nodes")

        def get(node: dict, key: str, i: int) -> list:
            row = [node[_SCALAR_KEYS[key]]] if scalar else node[key]
            if len(row) != n_tasks:
                raise DataError(f"node {i}: {key} has {len(row)} entries for {n_tasks} tasks")
            row = [float(v) for v in row]
            if not all(map(math.isfinite, row)):
                raise DataError(f"node {i}: {key} holds a non-finite number")
            return row

        tree = cls(n_tasks=n_tasks)
        n = len(nodes)
        for i, node in enumerate(nodes):
            if ("value" if scalar else "values") in node:
                tree.add_leaf(get(node, "values", i))
                continue
            f, left, right = node["feature"], node["left"], node["right"]
            if not isinstance(f, int) or not 0 <= f < n_features:
                raise DataError(f"node {i}: feature index {f!r} is not in 0..{n_features - 1}")
            for child in (left, right):
                if not isinstance(child, int) or not i < child < n:
                    raise DataError(f"node {i}: child index {child!r} is not in {i + 1}..{n - 1}")
            keys = ("thresholds", "gains", "penalized_gains")
            j = tree.add_internal(f, *(get(node, key, i) for key in keys))
            tree.left[j] = left
            tree.right[j] = right
        return tree


def grow_multitask_tree(
    Xs: Sequence[np.ndarray],
    ys: Sequence[np.ndarray],
    used_universal: AbstractSet[int] = frozenset(),
    lambda_u: float = 0.0,
    params: Optional[TreeParams] = None,
) -> MultitaskTree:
    """Grow one shared-topology tree over all tasks' current targets.

    A node position turns into a leaf (for every task) when the depth limit
    is hit, when ANY task has too few samples to split, or when no feature
    clears the maximin bar.  Leaf values are per-task target means.  A
    feature introduced at an ancestor node counts as used for every
    descendant split, so ``lambda_u`` is charged once per feature the tree
    adds to the model.
    """
    if params is None:
        params = TreeParams()
    n_tasks = len(Xs)
    if n_tasks == 0 or len(ys) != n_tasks:
        raise ValueError("need one (X, y) pair per task")
    if any(len(y) == 0 for y in ys):
        raise ValueError("cannot grow a tree on zero samples")
    used_now = set(used_universal)
    tree = MultitaskTree(n_tasks=n_tasks)
    min_split = 2 * params.min_samples_leaf

    def build(idxs: list[np.ndarray], depth: int) -> int:
        sub_y = [y[idx] for y, idx in zip(ys, idxs)]
        split = None
        if depth < params.max_depth and min(idx.size for idx in idxs) >= min_split:
            view = MultitaskNodeView(tuple([X[idx] for X, idx in zip(Xs, idxs)]), tuple(sub_y))
            split = maximin_split(view, used_now, lambda_u, params)
        if split is None:
            return tree.add_leaf([float(np.mean(v)) for v in sub_y])
        used_now.add(split.feature)
        i = tree.add_internal(split.feature, split.thresholds, split.raw_gains, split.gains)
        go_left = [Xs[t][idxs[t], split.feature] <= split.thresholds[t] for t in range(n_tasks)]
        tree.left[i] = build([idx[g] for idx, g in zip(idxs, go_left)], depth + 1)
        tree.right[i] = build([idx[~g] for idx, g in zip(idxs, go_left)], depth + 1)
        return i

    build([np.arange(len(y)) for y in ys], 0)
    return tree
