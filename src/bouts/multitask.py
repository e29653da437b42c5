"""The regression tree: one shared topology across T tasks.

Every node position uses one split feature for all T tasks, but each task
keeps its own threshold and leaf values.  The split feature is chosen by a
maximin rule: each task reports the best penalized gain it can reach on a
feature, and the feature with the largest worst-task gain wins.

This is the package's only tree.  A single-task tree is the T=1 case, where the
maximin rule reduces to the plain argmax of the penalized gain; stage-2 boosting
and the downstream re-fits grow such trees.  ``maximin_split`` reads one node
per task (``trees.SortedRows``): it sorts and scans every feature only on the
lead task, the one with the fewest root rows, and the other tasks only on the
features that can still win.  It re-scores only the candidates the scan cannot
tell apart from a feature's best with the definition, ``trees.raw_gain``, at
``SortedRows.threshold`` of the scanned order.  ``MultitaskTree`` keeps its
nodes in flat arrays, which ``MultitaskTree.of_nodes`` builds from one record
per node for the grower and the decoder alike, and owns the two on-disk node
layouts: per-task lists for universal trees and scalars for T=1 stage-2 trees.
The grower takes each task's prepared root, makes every node below it a view
of the root's rows with ``SortedRows.subset`` (which sorts nothing and copies
no rows), routes the node's rows on those, and returns the leaf each training
row reached, so boosting never routes its own training rows.  Other rows take
``MultitaskTree.route``, which returns the same leaf indices: on feature-major
columns, each row carries the index of the node it has reached, and a split
compares its whole column with its threshold once and moves its rows to a
child by adding to their indices.  ``MultitaskTree.step`` turns leaf indices,
from either source, into a prediction step: the leaf values scaled once, then
one gather per row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    one scores features: each task maximizes over its own midpoint thresholds,
    the per-feature score is the min across tasks, and the argmax feature wins
    (lowest index on ties).  It scans every feature only on the lead task, the
    one with the fewest root rows (the lowest index on ties), whose penalized
    gains bound the scores.  The other tasks scan features best lead gain
    first, in batches of 1, 2, 4, ..., while the next lead gain is within the
    tie margin of ``lb``, the best score so far (-inf rules out only -inf).  A
    feature past that can neither win nor tie, and scan rows are computed
    alone, so this is exact.  Pass two re-scores, for each feature within the
    tie margin of the best score and each task, every candidate within the tie
    margin of that task's best with the definition-based ``raw_gain`` and keeps
    the first maximum (the lowest threshold on ties), so near-ties cannot be
    misordered by scan arithmetic.  Returns None when the score is <=
    ``params.min_gain``.
    """
    if not nodes or len(ys) != len(nodes):
        raise ValueError("need one node and one target vector per task")
    d = nodes[0].root_XT.shape[0]
    m = params.min_samples_leaf
    charges = np.full(d, float(lambda_u))  # the charge for adding each feature
    if used_universal:
        charges[list(used_universal)] = 0.0
    sizes = [node.root_XT.shape[1] for node in nodes]
    lead = sizes.index(min(sizes))  # the fewest root rows, the lowest index on ties
    others = [t for t in range(len(nodes)) if t != lead]

    def scan(t: int, features) -> tuple:  # task t's order, candidate gains and bests on features
        order, distinct = nodes[t].rows(features)
        cand = scan_columns(order, distinct, ys[t], m, params.criterion)
        return order, cand, np.maximum.reduce(cand, axis=1, initial=-np.inf)

    # Per task, the scans of its batches of features; the lead's one batch is every feature.
    scans = [[scan(t, slice(None))] if t == lead else [] for t in range(len(nodes))]
    # -inf (no candidate) stays -inf, and so does any gain charged lambda = inf.
    score = scans[lead][0][2] - charges  # the lead's penalized gains, then the min over tasks
    if others:
        rank = np.argsort(-score, kind="stable")  # best lead gain first, ties by index
        lb, low, start = -math.inf, np.nextafter(-np.inf, 0), 0  # -inf rules out only -inf
        while start < d and score[rank[start]] >= low:
            batch = rank[start : 2 * start + 1]  # sizes 1, 2, 4, ...
            charge, worst = charges[batch], score[batch]
            for t in others:
                scans[t].append(scan(t, batch))
                np.minimum(worst, scans[t][-1][2] - charge, out=worst)
            score[batch] = worst
            lb = max(lb, float(worst.max()))
            if lb > -math.inf:
                low = lb - TIE_MARGIN * max(1.0, abs(lb))
            start = 2 * start + 1
        # Each scanned feature's batch and row: batch b holds rank places 2**b .. 2**(b + 1) - 1.
        at = {f: (p.bit_length() - 1, p - (1 << (p.bit_length() - 1)))
              for p, f in enumerate(rank[:start].tolist(), 1)}

    s_max = float(np.maximum.reduce(score, initial=-np.inf))
    if not math.isfinite(s_max):
        return None
    tol = TIE_MARGIN * max(1.0, abs(s_max))
    if s_max <= params.min_gain - tol:
        return None
    best = None  # (score, feature, per-task (penalized gain, threshold, raw))
    for f in (score >= s_max - tol).nonzero()[0].tolist():
        charge = float(charges[f])
        task_best = []
        for t, (node, y) in enumerate(zip(nodes, ys)):
            b, i = (0, f) if t == lead else at[f]
            order, cand, raw = scans[t][b]
            order, cand, raw = order[i], cand[i], raw[i]
            x = node.column(f)
            near = (cand >= raw - TIE_MARGIN * max(1.0, abs(raw))).nonzero()[0]
            top = None  # (penalized gain, threshold, raw gain)
            for j in near.tolist():
                v = node.threshold(f, j, m, order)
                g_raw = raw_gain(x, y, v, params.criterion)
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

    def route(self, task: int, XT, n_rows: int, nans: dict) -> np.ndarray:
        """The index of the leaf that each of ``n_rows`` rows reaches for ``task``,
        as the grower's ``leaf_of_row`` gives for its training rows: ``XT[f]``
        holds feature f of every row, and ties go left.  A NaN raises
        NumericalError only if a row that reaches a split on its column holds
        it.  ``nans`` caches each column's NaN mask (None: no NaN) across calls.

        Each row carries the index of the node it has reached, in the smallest
        unsigned type that holds them all.  Splits run in node order, each after
        its parent: split ``i`` compares its column once, steps its rows to its
        left child ``i + 1`` and those that go right on to ``right[i]``.
        """
        LEAF, feature, right = self.LEAF, self.feature.tolist(), self.right.tolist()
        thresholds = self.thresholds[:, task].tolist()
        dtype = np.min_scalar_type(self.n_nodes - 1)
        node = np.zeros(n_rows, dtype=dtype)  # the node each row has reached
        reach = {0: True}  # the mask of the rows that reach each split ahead; True: every row
        for i, f in enumerate(feature):
            if f == LEAF:
                continue
            at, r, col = reach.pop(i), right[i], XT[f]
            if f not in nans:  # the column's NaN mask, kept only if it holds a NaN
                nans[f] = nan if (nan := np.isnan(col)).any() else None
            if nans[f] is not None and (nans[f] & at).any():
                raise NumericalError(f"NaN at feature index {f} during prediction")
            go_left = col <= thresholds[i]
            to_right = at > go_left
            np.add(node, at, out=node, dtype=dtype)
            step = to_right if r == i + 2 else np.multiply(to_right, r - i - 1, dtype=dtype)
            np.add(node, step, out=node, dtype=dtype)
            if feature[i + 1] != LEAF:
                reach[i + 1] = at & go_left
            if feature[r] != LEAF:
                reach[r] = to_right
        return node

    def step(self, task: int, leaves: np.ndarray, scale: float, out=None) -> np.ndarray:
        """``scale`` times the value for ``task`` of each leaf in ``leaves``: the
        leaf values are scaled once and gathered per row, so a row holds the same
        product as ``scale * value`` (a ``-0.0`` leaf keeps its sign)."""
        # Every index is in range, and mode="clip" writes straight into out.
        return np.multiply(self.values[:, task], scale).take(leaves, out=out, mode="clip")

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
        split feature is below ``n_features``, and the nodes form one tree as
        ``route`` reads it: a split's left child is the next node, its right
        child a later one, and each node but the root has one parent, which
        rules out cycles before anything is routed.  Missing keys raise KeyError.
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
            if type(left) is not int or left != i + 1:
                raise DataError(f"node {i}: left child {left!r} is not the next node, {i + 1}")
            if type(right) is not int or not i + 1 < right < n:
                raise DataError(f"node {i}: right child {right!r} is not in {i + 2}..{n - 1}")
            thresholds, gains, penalized_gains = (get(node, key, i) for key in _SPLIT_KEYS)
            records.append((f, left, right, thresholds, nans, gains, penalized_gains))
        children = sorted(c for record in records for c in record[1:3] if c != cls.LEAF)
        if children != list(range(1, n)):
            raise DataError("the nodes are not one tree: a node is the child of no split or of two")
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
            # The root reads every row and is prepared; any other node is a
            # view that sorts the root's ranks of its rows as the search asks.
            if depth == 0:
                nodes, node_ys = roots, ys
            else:
                nodes = [root.subset(idx) for root, idx in zip(roots, idxs)]
                node_ys = [y[idx] for y, idx in zip(ys, idxs)]
            split = maximin_split(nodes, node_ys, used_now, lambda_u, params)
        if split is None:
            for rows, idx in zip(leaf_of_row, idxs):
                rows[idx] = i
            values = tuple(np.add.reduce(y[i]) / i.size for y, i in zip(ys, idxs))  # as np.mean
            records[i] = (LEAF, LEAF, LEAF, zeros, values, zeros, zeros)
            return i
        f = split.feature
        used_now.add(f)
        go_left = [node.column(f) <= v for node, v in zip(nodes, split.thresholds)]
        left = build([idx[g] for idx, g in zip(idxs, go_left)], depth + 1)
        right = build([idx[~g] for idx, g in zip(idxs, go_left)], depth + 1)
        records[i] = (f, left, right, split.thresholds, nans, split.raw_gains, split.gains)
        return i

    build([np.arange(len(y)) for y in ys], 0)
    del build  # it refers to itself: break that cycle so its arrays are freed now
    return MultitaskTree.of_nodes(records), leaf_of_row
