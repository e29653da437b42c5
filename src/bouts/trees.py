"""Split scoring for one task's samples at one tree node.

Split quality is an impurity decrease (intra-node variance) or the Friedman
improvement score, minus a fixed charge ``lam`` whenever the candidate feature
is not yet in the model's used-feature set.  Candidate thresholds are the
midpoints between consecutive distinct sorted values of each feature, so an
exhaustive enumeration oracle is well defined.

``scan_columns`` scores every feature at once with prefix sums;
``best_on_feature`` and ``raw_gain`` re-score from the definition where the
scan cannot be trusted to order near-ties.  The only tree built on these
scores, and the only split search, live in ``multitask`` (a single-task tree
is its T=1 case).
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


def raw_gain(node: NodeView, f: int, v: float, criterion: str = VARIANCE) -> float:
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
        diff = float(np.mean(y_left)) - float(np.mean(y_right))
        return n_left * n_right / n * diff * diff
    w_left = n_left / n
    return float(np.var(node.y) - w_left * np.var(y_left) - (1.0 - w_left) * np.var(y_right))


def penalized_gain(
    node: NodeView,
    f: int,
    v: float,
    used: AbstractSet[int],
    lam: float,
    criterion: str = VARIANCE,
) -> float:
    """``raw_gain`` minus ``lam`` when ``f`` would be a new feature."""
    g = raw_gain(node, f, v, criterion)
    return g if f in used else g - lam


# Score differences below this (relative) margin are treated as potential
# ties and re-decided with the definition-based gain ops, so the fast scan
# and plain enumeration always agree on the chosen split.
TIE_MARGIN = 1e-9


def scan_columns(
    X: np.ndarray,
    y: np.ndarray,
    min_samples_leaf: int,
    criterion: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Approximate best raw gain and threshold per feature.

    Returns ``(gains, thresholds, ambiguous)`` of length d; a feature with
    no valid split gets gain -inf.  ``ambiguous[f]`` flags a feature whose
    top candidates are within the tie margin of each other, meaning the
    prefix-sum arithmetic used here cannot be trusted to order them.
    """
    n, d = X.shape
    if n < 2 or n < 2 * min_samples_leaf:
        return np.full(d, -np.inf), np.zeros(d), np.zeros(d, dtype=bool)
    # Default introsort: ties among equal x values only permute rows inside
    # a run of duplicates, and boundaries inside such runs are never valid
    # candidates, so candidate sums differ by at most rounding noise, which
    # the tie margin absorbs.
    order = np.argsort(X, axis=0)
    xs = np.take_along_axis(X, order, axis=0)
    ys = y[order]
    csum = np.cumsum(ys, axis=0)
    total = csum[-1, :]
    n_left = np.arange(1, n, dtype=np.float64)[:, None]
    n_right = n - n_left
    s_left = csum[:-1, :]
    s_right = total[None, :] - s_left
    if criterion == FRIEDMAN:
        diff = s_left / n_left - s_right / n_right
        cand = (n_left * n_right / n) * diff * diff
    else:
        cand = (s_left * s_left / n_left + s_right * s_right / n_right - total * total / n) / n
    valid = xs[1:, :] > xs[:-1, :]
    if min_samples_leaf > 1:
        valid &= (n_left >= min_samples_leaf) & (n_right >= min_samples_leaf)
    cand = np.where(valid, cand, -np.inf)
    pos = np.argmax(cand, axis=0)  # first max = lowest threshold
    cols = np.arange(d)
    gains = cand[pos, cols]
    thresholds = 0.5 * (xs[pos, cols] + xs[pos + 1, cols])
    finite = np.isfinite(gains)
    thresholds[~finite] = 0.0
    tol = TIE_MARGIN * np.maximum(1.0, np.abs(gains))
    close = (cand >= gains[None, :] - tol[None, :]).sum(axis=0)
    ambiguous = finite & (close > 1)
    return gains, thresholds, ambiguous


def best_on_feature(
    node: NodeView,
    f: int,
    charge: float,
    min_samples_leaf: int,
    criterion: str,
) -> Optional[tuple[float, float]]:
    """Definition-based best (penalized gain, threshold) for one feature.

    Enumerates every midpoint between consecutive distinct values and keeps
    the first maximum, i.e. the lowest threshold on ties.
    """
    col = node.X[:, f]
    xs = np.unique(col)
    n = len(node)
    best = None
    for lo, hi in zip(xs[:-1], xs[1:]):
        v = (lo + hi) / 2.0
        n_left = int((col <= v).sum())
        if min(n_left, n - n_left) < min_samples_leaf:
            continue
        g = raw_gain(node, f, v, criterion) - charge
        if best is None or g > best[0]:
            best = (float(g), float(v))
    return best
