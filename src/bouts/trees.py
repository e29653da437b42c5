"""Split scoring for one task's samples at one tree node.

Split quality is an impurity decrease (intra-node variance) or the Friedman
improvement score, minus a fixed charge ``lam`` whenever the candidate feature
is not yet in the model's used-feature set.  Candidate thresholds are the
midpoints between consecutive distinct sorted values of each feature, so an
exhaustive enumeration oracle is well defined.

A node's rows are prepared once, by ``sort_rows``, into ``SortedRows``: the
feature-major (d, n) rows, each feature's sort order and which sorted
neighbours differ.  Boosting prepares each task's root once per run, since the
root sees the same rows in every round; the grower prepares every other node
from its gather of the root's rows.  ``scan_columns`` is the one enumeration
of candidate splits: it scores every boundary of every feature of a prepared
node at once with prefix sums, both criteria as one expression,
(s_left - n_left * mean)^2 times a weight per boundary.  ``SortedRows.threshold``
maps a scan column back to its midpoint.  The scan's arithmetic cannot be
trusted to order near-ties, so the split search re-scores the candidates within
``TIE_MARGIN`` of a feature's best with ``raw_gain``, the definition.  The only
tree built on these scores, and the only split search, live in ``multitask``
(a single-task tree is its T=1 case).
"""

from __future__ import annotations

from dataclasses import dataclass

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
    n_left = int(left.sum())
    n = len(y)
    if n_left == 0 or n_left == n:
        raise ValueError("split produces an empty child")
    y_left = y[left]
    y_right = y[~left]
    if criterion == FRIEDMAN:
        n_right = n - n_left
        diff = float(y_left.sum() / y_left.size) - float(y_right.sum() / y_right.size)
        return n_left * n_right / n * diff * diff
    w_left = n_left / n
    return float(np.var(y) - w_left * np.var(y_left) - (1.0 - w_left) * np.var(y_right))


# Score differences below this (relative) margin are treated as potential
# ties and re-decided with the definition-based gain ops, so the fast scan
# and plain enumeration always agree on the chosen split.
TIE_MARGIN = 1e-9


@dataclass(frozen=True)
class SortedRows:
    """One node's rows, feature-major, with each feature's sort order."""

    XT: np.ndarray  # (d, n) one row per feature
    order: np.ndarray  # (d, n) argsort of each row of XT
    distinct: np.ndarray  # (d, n - 1) whether sorted value j + 1 exceeds value j

    def threshold(self, f: int, j: int, min_samples_leaf: int) -> float:
        """The threshold of ``scan_columns``' column ``j`` for feature ``f``: the
        midpoint of its sorted values m + j - 1 and m + j, m = ``min_samples_leaf``."""
        k = min_samples_leaf + j
        lo, hi = self.XT[f, self.order[f, k - 1 : k + 1]]
        return float(0.5 * (lo + hi))


def sort_rows(XT: np.ndarray) -> SortedRows:
    """The ``SortedRows`` of the feature-major (d, n) matrix ``XT``."""
    # Default introsort: ties among equal x values only permute rows inside
    # a run of duplicates, and boundaries inside such runs are never valid
    # candidates, so candidate sums differ by at most rounding noise, which
    # the tie margin absorbs.
    order = np.argsort(XT, axis=1)
    xs = np.take(XT, order + np.arange(0, XT.size, XT.shape[1])[:, None])
    return SortedRows(XT, order, xs[:, 1:] > xs[:, :-1])


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
    cand = np.cumsum(y[order], axis=1)[:, m - 1 : n - m] - n_left * (y.sum() / n)
    cand *= cand
    cand *= (n if criterion == FRIEDMAN else 1.0) / (n_left * (n - n_left))
    np.putmask(cand, ~distinct[:, m - 1 : n - m], -np.inf)
    return cand
