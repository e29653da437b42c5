"""Split scoring for one task's samples at one tree node.

Split quality is an impurity decrease (intra-node variance) or the Friedman
improvement score, minus a fixed charge ``lam`` whenever the candidate feature
is not yet in the model's used-feature set.  Candidate thresholds are the
midpoints between consecutive distinct sorted values of each feature, so an
exhaustive enumeration oracle is well defined.

``scan_columns`` is the one enumeration of candidate splits: it scores every
boundary of every feature at once with prefix sums over a feature-major
(d, n) matrix, both criteria as one expression, (s_left - n_left * mean)^2
times a weight per boundary.  A node below the root sorts its own rows; the
root sees the same rows in every boosting round, so ``sort_root`` sorts them
once and each root scan only gathers the current targets in that order.  The
scan's arithmetic cannot be trusted to order near-ties, so the split search
re-scores the candidates within ``TIE_MARGIN`` of a feature's best with
``raw_gain``, the definition.  The only tree built on these scores, and the
only split search, live in ``multitask`` (a single-task tree is its T=1 case).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Optional

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


@dataclass(frozen=True)
class NodeView:
    """The samples currently sitting in one tree node."""

    X: np.ndarray  # (n, d) feature rows of the node's samples
    y: np.ndarray  # (n,) targets (residuals during boosting)

    def __post_init__(self) -> None:
        if len(self.y) == 0:
            raise ValueError("node must be nonempty")
        if self.X.shape[0] != self.y.shape[0]:
            raise ValueError("X and y row counts differ")

    def __len__(self) -> int:
        return len(self.y)


def raw_gain(node: NodeView, f: int, v: float, criterion: str) -> float:
    """Unpenalized quality of splitting ``node`` on feature ``f`` at ``v``.

    The variance criterion is the classic weighted impurity decrease; the
    friedman criterion is n_L*n_R/(n_L+n_R) * (mean_L - mean_R)^2.  Both are
    computed naively from the definition so they can serve as an enumeration
    oracle for the vectorized search.
    """
    left = node.X[:, f] <= v
    n_left = int(left.sum())
    n = len(node)
    if n_left == 0 or n_left == n:
        raise ValueError("split produces an empty child")
    y_left = node.y[left]
    y_right = node.y[~left]
    if criterion == FRIEDMAN:
        n_right = n - n_left
        diff = float(y_left.sum() / y_left.size) - float(y_right.sum() / y_right.size)
        return n_left * n_right / n * diff * diff
    w_left = n_left / n
    return float(np.var(node.y) - w_left * np.var(y_left) - (1.0 - w_left) * np.var(y_right))


def penalized_gain(
    node: NodeView,
    f: int,
    v: float,
    used: AbstractSet[int],
    lam: float,
    criterion: str,
) -> float:
    """``raw_gain`` minus ``lam`` when ``f`` would be a new feature."""
    g = raw_gain(node, f, v, criterion)
    return g if f in used else g - lam


# Score differences below this (relative) margin are treated as potential
# ties and re-decided with the definition-based gain ops, so the fast scan
# and plain enumeration always agree on the chosen split.
TIE_MARGIN = 1e-9


@dataclass(frozen=True)
class SortedRoot:
    """One task's training rows, feature-major and sorted once per boosting run."""

    XT: np.ndarray  # (d, n) one row per feature
    order: np.ndarray  # (d, n) argsort of each row of XT
    distinct: np.ndarray  # (d, n - 1) whether sorted value j + 1 exceeds value j


def sort_root(X: np.ndarray) -> SortedRoot:
    """The ``SortedRoot`` of the (n, d) matrix ``X``."""
    return _sorted(np.ascontiguousarray(np.asarray(X, dtype=np.float64).T))


def _sorted(XT: np.ndarray) -> SortedRoot:
    order = np.argsort(XT, axis=1)
    xs = np.take(XT, order + np.arange(0, XT.size, XT.shape[1])[:, None])
    return SortedRoot(XT, order, xs[:, 1:] > xs[:, :-1])


def scan_columns(
    XT: np.ndarray,
    y: np.ndarray,
    min_samples_leaf: int,
    criterion: str,
    root: Optional[SortedRoot] = None,
) -> np.ndarray:
    """Approximate raw gain of every candidate split of every feature of ``XT`` (d, n).

    ``root``, when given, is ``sort_root`` of these very rows and spares the
    sort.  Returns the (d, n - 2m + 1) gains, m = ``min_samples_leaf``:
    column j is the boundary that leaves the m + j lowest values of a feature
    on its left, at the midpoint of sorted values m + j - 1 and m + j, and
    holds -inf where those two values are equal.
    """
    d, n = XT.shape
    m = min_samples_leaf
    if n < 2 or n < 2 * m:
        return np.empty((d, 0))
    # Default introsort: ties among equal x values only permute rows inside
    # a run of duplicates, and boundaries inside such runs are never valid
    # candidates, so candidate sums differ by at most rounding noise, which
    # the tie margin absorbs.
    if root is None:
        root = _sorted(XT)
    # Boundary j of the window leaves m + j samples on the left.  Friedman's
    # n_L n_R / n (mean_L - mean_R)^2 is n (s_L - n_L mean)^2 / (n_L n_R), and
    # the variance decrease is that over n.
    n_left = np.arange(m, n - m + 1, dtype=np.float64)
    cand = np.cumsum(y[root.order], axis=1)[:, m - 1 : n - m] - n_left * (y.sum() / n)
    cand *= cand
    cand *= (n if criterion == FRIEDMAN else 1.0) / (n_left * (n - n_left))
    np.putmask(cand, ~root.distinct[:, m - 1 : n - m], -np.inf)
    return cand
