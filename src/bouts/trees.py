"""Split scoring for one task's samples at one tree node.

Split quality is an impurity decrease (intra-node variance) or the Friedman
improvement score, minus a fixed charge ``lam`` whenever the candidate feature
is not yet in the model's used-feature set.  Candidate thresholds are the
midpoints between consecutive distinct sorted values of each feature, so an
exhaustive enumeration oracle is well defined.

A node's rows are ``SortedRows``, whose ``rows`` give each asked-for feature's
sort order by (value, row) and which sorted neighbours differ.  Boosting
prepares each task's root once per run with ``sort_rows``, since the root sees
the same rows in every round.  That is the one float sort; it also keeps each
feature's dense ranks (equal values share a rank).  ``SortedRows.subset`` makes
every other node, a view that sorts a feature only when asked: one integer sort
of the node's gathered ranks, each packed with its row's position in the node
into one key.  A node keeps the root's feature-major (d, n) matrix and its
rows' indices, not a copy of its rows; ``SortedRows.column`` gathers the one
feature a search or split reads.
``scan_columns`` is the one enumeration of candidate splits: it scores every
boundary of every feature of a prepared node at once with prefix sums, both
criteria as one expression, (s_left - n_left * mean)^2 times a weight per
boundary.  ``SortedRows.threshold`` maps a scan column back to its midpoint.
The scan's arithmetic cannot be trusted to order near-ties, so the split search
re-scores the candidates within ``TIE_MARGIN`` of a feature's best with
``raw_gain``, the definition.  The only tree built on these scores, and the
only split search, live in ``multitask`` (a single-task tree is its T=1 case).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

VARIANCE = "variance"
FRIEDMAN = "friedman"
CRITERIA = (VARIANCE, FRIEDMAN)


@dataclass
class TreeParams:
    """Stopping and scoring configuration for tree growth."""

    max_depth: int = 3
    min_samples_leaf: int = 5
    min_gain: float = 1e-7
    criterion: str = FRIEDMAN

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")
        if not self.min_gain >= 0:  # NaN fails too
            raise ValueError(f"min_gain must be >= 0, got {self.min_gain}")
        if self.criterion not in CRITERIA:
            raise ValueError(f"criterion must be one of {CRITERIA}")


def raw_gain(x: np.ndarray, y: np.ndarray, v: float, criterion: str) -> float:
    """Unpenalized quality of splitting the rows whose feature values are ``x``
    and targets ``y`` at ``v`` (rows with ``x <= v`` go left).

    The variance criterion is the classic weighted impurity decrease; the
    friedman criterion is n_L*n_R/(n_L+n_R) * (mean_L - mean_R)^2.  Both are
    computed naively from the definition so they can serve as an enumeration
    oracle for the vectorized search.
    """
    left = x <= v
    n_left = np.count_nonzero(left)
    n = len(y)
    if n_left == 0 or n_left == n:
        raise ValueError("split produces an empty child")
    y_left = y[left]
    y_right = y[~left]
    if criterion == FRIEDMAN:
        n_right = n - n_left
        diff = float(np.add.reduce(y_left) / n_left) - float(np.add.reduce(y_right) / n_right)
        return n_left * n_right / n * diff * diff
    w_left = n_left / n
    return float(np.var(y) - w_left * np.var(y_left) - (1.0 - w_left) * np.var(y_right))


# Score differences below this (relative) margin are treated as potential
# ties and re-decided with the definition-based gain ops, so the fast scan
# and plain enumeration always agree on the chosen split.
TIE_MARGIN = 1e-9


@dataclass(frozen=True)
class SortedRows:
    """One node's rows, as indices into the root's rows, sorted per feature on demand."""

    root_XT: np.ndarray  # (d, N) the root's rows, one per feature
    idx: Optional[np.ndarray] = None  # (n,) the node's columns of root_XT; None: all
    root: Optional["SortedRows"] = None  # the prepared root of a node from ``subset``
    # Kept by ``sort_rows`` only: every feature's ``rows`` at the root, and each
    # value's dense rank in its row (equal values share one), for ``subset``.
    prepared: tuple = ()
    ranks: Optional[np.ndarray] = None

    def rows(self, features) -> tuple[np.ndarray, np.ndarray]:
        """``order`` and ``distinct`` of ``features``, an index array or a slice:
        each one's (k, n) node positions by (value, position), and (k, n - 1)
        whether sorted value j + 1 exceeds value j.  The root returns its
        prepared rows; a node from ``subset`` sorts those features only."""
        if self.root is None:
            order, distinct = self.prepared
            return order[features], distinct[features]
        ranks = self.root.ranks
        ranks = ranks[features] if isinstance(features, slice) else ranks.take(features, axis=0)
        return _packed(ranks.take(self.idx, axis=1))

    order = property(lambda self: self.rows(slice(None))[0])
    distinct = property(lambda self: self.rows(slice(None))[1])

    def column(self, f: int) -> np.ndarray:
        """Feature ``f``'s values at the node's rows, in node order."""
        return self.root_XT[f] if self.idx is None else self.root_XT[f].take(self.idx)

    def threshold(self, f: int, j: int, min_samples_leaf: int, order=None) -> float:
        """The threshold of ``scan_columns``' column ``j`` for feature ``f``: the
        midpoint of its sorted values m + j - 1 and m + j, m = ``min_samples_leaf``.
        ``order`` is f's row of ``rows`` as scanned; None sorts it here."""
        order = self.rows([f])[0][0] if order is None else order
        pair = order[min_samples_leaf + j - 1 : min_samples_leaf + j + 1]
        lo, hi = self.root_XT[f].take(pair if self.idx is None else self.idx.take(pair))
        return float(0.5 * (lo + hi))

    def subset(self, idx: np.ndarray) -> "SortedRows":
        """The node of columns ``idx`` of the root ``root_XT``, sorted on demand:
        its ``rows`` equal those of ``sort_rows(root_XT[:, idx])``, sorted by the
        root's ranks, not the values.  Only a root from ``sort_rows`` has subsets."""
        return SortedRows(self.root_XT, idx, self)


def _packed(ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``order`` and ``distinct`` of ``ranks``: each row sorted by the key ``rank << s | column``.

    One ``sort`` of the keys orders every row by (value, column): the column is
    in the low ``s`` bits and equal values share their rank in the high bits,
    so a run of equal values keeps its column order at every node.  Ranks and
    columns are below the root's column count, so ``sort_rows`` picks int32
    ranks (s = 15) up to 2**15 root columns and int64 (s = 31) above.
    """
    s = 4 * ranks.itemsize - 1
    key = ranks << s
    key |= np.arange(ranks.shape[1], dtype=key.dtype)
    key.sort(axis=1)
    order = np.bitwise_and(key, (1 << s) - 1, dtype=np.intp)  # intp: y[order] needs no cast
    key >>= s
    return order, key[:, 1:] != key[:, :-1]


def sort_rows(XT: np.ndarray) -> SortedRows:
    """The ``SortedRows`` of the feature-major (d, n) matrix ``XT``, keeping
    its ``ranks`` so that ``subset`` prepares any node below it."""
    d, n = XT.shape
    # The one float sort: the introsort's order within a run of equal values
    # does not matter, since the dense ranks it gives are the same.
    by_value = np.argsort(XT, axis=1)
    xs = np.take_along_axis(XT, by_value, axis=1)
    dense = np.zeros((d, n), dtype=np.int32 if n <= 1 << 15 else np.int64)
    np.cumsum(xs[:, 1:] > xs[:, :-1], axis=1, out=dense[:, 1:])
    ranks = np.empty_like(dense)
    np.put_along_axis(ranks, by_value, dense, axis=1)
    return SortedRows(XT, prepared=_packed(ranks), ranks=ranks)


def scan_columns(
    order: np.ndarray,
    distinct: np.ndarray,
    y: np.ndarray,
    min_samples_leaf: int,
    criterion: str,
) -> np.ndarray:
    """Approximate raw gain of every candidate split of a node's (d, n) rows.

    ``order`` and ``distinct`` are those of the node's ``SortedRows``.
    Returns the (d, n - 2m + 1) gains, m = ``min_samples_leaf``: column j is
    the boundary that leaves the m + j lowest values of a feature on its left,
    at ``SortedRows.threshold``, and holds -inf where the two values around it
    are equal.
    """
    d, n = order.shape
    m = min_samples_leaf
    if n < 2 or n < 2 * m:
        return np.empty((d, 0))
    # Boundary j of the window leaves m + j samples on the left.  Friedman's
    # n_L n_R / n (mean_L - mean_R)^2 is n (s_L - n_L mean)^2 / (n_L n_R), and
    # the variance decrease is that over n.
    n_left = np.arange(m, n - m + 1, dtype=np.float64)
    cand = np.add.accumulate(y[order], axis=1)[:, m - 1 : n - m] - n_left * (np.add.reduce(y) / n)
    cand *= cand
    cand *= (n if criterion == FRIEDMAN else 1.0) / (n_left * (n - n_left))
    np.putmask(cand, ~distinct[:, m - 1 : n - m], -np.inf)
    return cand
