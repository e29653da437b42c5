"""The regression tree: one shared topology across T tasks.

Every node position uses one split feature for all T tasks, but each task
keeps its own threshold and leaf values.  The split feature is chosen by a
maximin rule: each task reports the best penalized gain it can reach on a
feature, and the feature with the largest worst-task gain wins.

This is the package's only tree.  A single-task tree is the T=1 case, where
the maximin rule reduces to the plain argmax of the penalized gain; stage-2
boosting and the downstream re-fits grow such trees.  ``maximin_split`` reads
one prepared node per task (``trees.SortedRows``): it takes every candidate
split from ``trees.scan_columns`` and re-scores only the candidates the scan
cannot tell apart from a feature's best with the definition, ``trees.raw_gain``,
at the node's own ``SortedRows.threshold``.  ``MultitaskTree`` keeps its nodes
in flat arrays, which ``MultitaskTree.of_nodes`` builds from one record per
node for the grower and the decoder alike, and owns the two on-disk node
layouts: per-task lists for universal trees and scalars for T=1 stage-2 trees.
The grower takes each task's prepared root, prepares every node below it once
with ``SortedRows.subset`` (an integer sort of the root's ranks of the node's
rows), routes the node's rows on those, and returns the leaf each training row
reached, so boosting never routes its own training rows.  Other rows go through
``MultitaskTree.route``: on feature-major columns, a node compares its whole
column with its threshold once and hands each child the mask of its rows, and
each leaf writes its value under its mask with one exact masked store.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import AbstractSet, Optional, Sequence

import numpy as np

from .data import json_numbers
from .errors import DataError, NumericalError
from .trees import TIE_MARGIN, SortedRows, TreeParams, raw_gain, scan_columns


@dataclass(frozen=True)
class MultitaskSplit:
    feature: int
    thresholds: tuple[float, ...]  # one per task
    gains: tuple[float, ...]  # per-task penalized gain at the chosen threshold
    raw_gains: tuple[float, ...]
    score: float  # min over tasks of the penalized gains


def maximin_split(
    nodes: Sequence[SortedRows],
    ys: Sequence[np.ndarray],
    used_universal: AbstractSet[int],
    lambda_u: float,
    params: TreeParams,
) -> Optional[MultitaskSplit]:
    """Shared split feature maximizing the minimum per-task penalized gain.

    ``nodes`` holds one prepared node per task and ``ys`` its targets.  Pass
    one scores every feature: each task maximizes over its own midpoint
    thresholds, the per-feature score is the min across tasks, and the argmax
    feature wins (lowest index on ties).  Pass two re-scores, for each feature
    within the tie margin of the best score and each task, every candidate
    within the tie margin of that task's best with the definition-based
    ``raw_gain`` and keeps the first maximum (the lowest threshold on ties), so
    near-ties cannot be misordered by scan arithmetic.  Returns None when the
    score is <= ``params.min_gain``.
    """
    if not nodes or len(ys) != len(nodes):
        raise ValueError("need one node and one target vector per task")
    d = nodes[0].XT.shape[0]
    m = params.min_samples_leaf
    charges = np.full(d, float(lambda_u))  # the charge for adding each feature
    charges[list(used_universal)] = 0.0
    # Per task: the (d, n - 2m + 1) candidate gains and each feature's best.
    cands = [
        scan_columns(node.order, node.distinct, y, m, params.criterion)
        for node, y in zip(nodes, ys)
    ]
    raws = [cand.max(axis=1, initial=-np.inf) for cand in cands]
    # -inf (no candidate) stays -inf, and so does any gain charged lambda = inf.
    score = reduce(np.minimum, [raw - charges for raw in raws])
    s_max = float(score.max(initial=-np.inf))
    if not math.isfinite(s_max):
        return None
    tol = TIE_MARGIN * max(1.0, abs(s_max))
    if s_max <= params.min_gain - tol:
        return None
    shortlist = np.flatnonzero(score >= s_max - tol)
    best = None  # (score, feature, per-task (penalized gain, threshold, raw))
    for f in shortlist.tolist():
        charge = float(charges[f])
        task_best = []
        for node, y, cand, raw in zip(nodes, ys, cands, raws):
            near = np.flatnonzero(cand[f] >= raw[f] - TIE_MARGIN * max(1.0, abs(raw[f])))
            top = None  # (penalized gain, threshold, raw gain)
            for j in near.tolist():
                v = node.threshold(f, j, m)
                g_raw = raw_gain(node.XT[f], y, v, params.criterion)
                if top is None or g_raw - charge > top[0]:
                    top = (g_raw - charge, v, g_raw)
            task_best.append(top)
        sc = min(g for g, _, _ in task_best)
        if best is None or sc > best[0]:
            best = (sc, f, task_best)
    if best[0] <= params.min_gain:
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
_SPLIT_KEYS = ("thresholds", "gains", "penalized_gains")


@dataclass(eq=False)
class MultitaskTree:
    """Shared-topology tree: one feature per node, per-task thresholds/leaves.

    Flat node arrays in depth-first order, index 0 the root.  ``feature[i]
    == LEAF`` marks a leaf, whose ``values[i]`` hold one prediction per task
    (NaN at internal nodes).  An internal node's ``thresholds[i]`` and the
    raw and penalized ``gains[i]`` achieved when its split was chosen hold
    one entry per task (0 at leaves).
    """

    feature: np.ndarray  # (n_nodes,)
    left: np.ndarray  # (n_nodes,) child indices, LEAF at a leaf
    right: np.ndarray  # (n_nodes,)
    thresholds: np.ndarray  # (n_nodes, n_tasks)
    values: np.ndarray  # (n_nodes, n_tasks)
    gains: np.ndarray  # (n_nodes, n_tasks)
    penalized_gains: np.ndarray  # (n_nodes, n_tasks)

    LEAF = -1

    @classmethod
    def of_nodes(cls, records: Sequence[tuple]) -> "MultitaskTree":
        """The tree whose node ``i`` is ``records[i]``.

        A record is ``(feature, left, right, thresholds, values, gains,
        penalized_gains)``, the last four with one number per task.
        """
        feature, left, right, *per_task = zip(*records)
        links = np.array([feature, left, right], dtype=np.intp)
        return cls(*links, *np.array(per_task, dtype=np.float64))

    @property
    def n_tasks(self) -> int:
        return self.values.shape[1]

    @property
    def features_used(self) -> set[int]:
        return set(self.feature[self.feature != self.LEAF].tolist())

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def is_leaf(self, i: int) -> bool:
        return bool(self.feature[i] == self.LEAF)

    @property
    def is_stump_leaf(self) -> bool:
        return self.n_nodes == 1 and self.is_leaf(0)

    def predict(self, task: int, X: np.ndarray) -> np.ndarray:
        """This tree's predictions for one task: ``route`` on the columns of ``X``."""
        X = np.asarray(X, dtype=np.float64)
        return self.route(task, X.T, {}, np.empty(len(X)))

    def route(self, task: int, XT, nans: dict, out: np.ndarray) -> np.ndarray:
        """Write into ``out`` the leaf value for ``task`` that each row reaches:
        ``XT[f]`` holds feature f of every row, and ties go left.  A NaN raises
        NumericalError only if a row that reaches a split on its column holds
        it.  ``nans`` caches each column's NaN mask (None: no NaN) across calls.
        """
        feature, left, right = self.feature.tolist(), self.left.tolist(), self.right.tolist()
        thresholds, values = self.thresholds[:, task].tolist(), self.values[:, task].tolist()
        stack = [(0, True)]  # (node, mask of the rows that reach it; True: every row)
        while stack:
            i, reach = stack.pop()
            f = feature[i]
            if f == self.LEAF:
                if reach is True:  # the root is a leaf
                    out.fill(values[i])
                else:
                    np.putmask(out, reach, values[i])
                continue
            col = XT[f]
            if f not in nans:  # the column's NaN mask, kept only if it holds a NaN
                nans[f] = nan if (nan := np.isnan(col)).any() else None
            if nans[f] is not None and (nans[f] & reach).any():
                raise NumericalError(f"NaN at feature index {f} during prediction")
            go_left = col <= thresholds[i]
            stack += ((right[i], reach > go_left), (left[i], reach & go_left))
        return out

    def to_dict(self, scalar: bool = False) -> dict:
        """Node list with per-task fields; ``scalar`` writes a T=1 tree in the
        stage-2 layout (one number per field, no ``n_tasks`` key)."""
        if scalar and self.n_tasks != 1:
            raise ValueError("only a single-task tree has a scalar layout")
        left, right = self.left.tolist(), self.right.tolist()
        rows = {key: getattr(self, key).tolist() for key in ("values", *_SPLIT_KEYS)}
        nodes = []
        for i, f in enumerate(self.feature.tolist()):
            if f == self.LEAF:
                node, keys = {}, ("values",)
            else:
                node, keys = {"feature": f, "left": left[i], "right": right[i]}, _SPLIT_KEYS
            for key in keys:
                row = rows[key][i]
                node[_SCALAR_KEYS[key] if scalar else key] = row[0] if scalar else row
            nodes.append(node)
        return {"nodes": nodes} if scalar else {"n_tasks": self.n_tasks, "nodes": nodes}

    @classmethod
    def from_dict(cls, d: dict, n_features: int, n_tasks: int) -> "MultitaskTree":
        """Decode either layout (a dict without ``n_tasks`` is scalar).

        Raises DataError unless the tree covers ``n_tasks`` tasks (an int, not
        a bool), every per-task field has that many finite entries, every
        split feature is below ``n_features``, and every child index points
        forward (past its parent) inside the node list, which rules out cycles
        before anything is routed.  Missing keys raise KeyError.
        """
        scalar = "n_tasks" not in d
        covered = d.get("n_tasks", 1)
        if type(covered) is not int or covered != n_tasks:
            raise DataError(f"tree covers {covered!r} tasks, not {n_tasks}")
        nodes = d["nodes"]
        if type(nodes) is not list or not nodes:
            raise DataError("tree has no node list")

        def get(node: dict, key: str, i: int) -> list:
            row = json_numbers([node[_SCALAR_KEYS[key]]] if scalar else node[key], f"node {i}: {key}")
            if len(row) != n_tasks:
                raise DataError(f"node {i}: {key} has {len(row)} entries for {n_tasks} tasks")
            if not all(map(math.isfinite, row)):
                raise DataError(f"node {i}: {key} holds a non-finite number")
            return row

        n = len(nodes)
        zeros, nans = [0.0] * n_tasks, [math.nan] * n_tasks
        records = []
        for i, node in enumerate(nodes):
            if ("value" if scalar else "values") in node:
                values = get(node, "values", i)
                records.append((cls.LEAF, cls.LEAF, cls.LEAF, zeros, values, zeros, zeros))
                continue
            f, left, right = node["feature"], node["left"], node["right"]
            if type(f) is not int or not 0 <= f < n_features:
                raise DataError(f"node {i}: feature index {f!r} is not in 0..{n_features - 1}")
            for child in (left, right):
                if type(child) is not int or not i < child < n:
                    raise DataError(f"node {i}: child index {child!r} is not in {i + 1}..{n - 1}")
            thresholds, gains, penalized_gains = (get(node, key, i) for key in _SPLIT_KEYS)
            records.append((f, left, right, thresholds, nans, gains, penalized_gains))
        return cls.of_nodes(records)


def grow_multitask_tree(
    roots: Sequence[SortedRows],
    ys: Sequence[np.ndarray],
    used_universal: AbstractSet[int] = frozenset(),
    lambda_u: float = 0.0,
    params: Optional[TreeParams] = None,
) -> tuple[MultitaskTree, list[np.ndarray]]:
    """Grow one shared-topology tree over all tasks' current targets.

    ``roots`` holds each task's prepared training rows (``trees.sort_rows``),
    so a caller that grows many trees on the same rows prepares them once.
    A node position turns into a leaf (for every task) when the depth limit
    is hit, when ANY task has too few samples to split, or when no feature
    clears the maximin bar.  Leaf values are per-task target means.  Nodes
    grow depth first, left subtree before right, and a feature counts as used
    for every split grown after the one that added it, anywhere in the tree:
    a right subtree splits for free on features its left sibling added.  So
    ``lambda_u`` is charged once per feature the tree adds to the model.

    Returns the tree and, per task, the index of the leaf each training row
    reaches.
    """
    if params is None:
        params = TreeParams()
    n_tasks = len(roots)
    if n_tasks == 0 or len(ys) != n_tasks:
        raise ValueError("need one prepared root and one target vector per task")
    if any(len(y) == 0 for y in ys):
        raise ValueError("cannot grow a tree on zero samples")
    used_now = set(used_universal)
    min_split = 2 * params.min_samples_leaf
    LEAF = MultitaskTree.LEAF
    zeros, nans = (0.0,) * n_tasks, (math.nan,) * n_tasks
    records: list[Optional[tuple]] = []  # MultitaskTree.of_nodes records, depth first
    leaf_of_row = [np.empty(len(y), dtype=np.intp) for y in ys]

    def build(idxs: list[np.ndarray], depth: int) -> int:
        i = len(records)
        records.append(None)  # filled in once its children are numbered
        split = None
        if depth < params.max_depth and min(idx.size for idx in idxs) >= min_split:
            # The root reads every row and is prepared; any other node is
            # prepared once from the root's ranks of its rows.
            if depth == 0:
                nodes, node_ys = roots, ys
            else:
                nodes = [root.subset(idx) for root, idx in zip(roots, idxs)]
                node_ys = [y[idx] for y, idx in zip(ys, idxs)]
            split = maximin_split(nodes, node_ys, used_now, lambda_u, params)
        if split is None:
            for rows, idx in zip(leaf_of_row, idxs):
                rows[idx] = i
            values = tuple(y[idx].sum() / idx.size for y, idx in zip(ys, idxs))  # np.mean's bits
            records[i] = (LEAF, LEAF, LEAF, zeros, values, zeros, zeros)
            return i
        f = split.feature
        used_now.add(f)
        go_left = [node.XT[f] <= v for node, v in zip(nodes, split.thresholds)]
        left = build([idx[g] for idx, g in zip(idxs, go_left)], depth + 1)
        right = build([idx[~g] for idx, g in zip(idxs, go_left)], depth + 1)
        records[i] = (f, left, right, split.thresholds, nans, split.raw_gains, split.gains)
        return i

    build([np.arange(len(y)) for y in ys], 0)
    del build  # it refers to itself: break that cycle so its arrays are freed now
    return MultitaskTree.of_nodes(records), leaf_of_row
