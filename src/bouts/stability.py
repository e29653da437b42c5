"""Selection-stability statistics over randomized replicates.

Z is an M x d binary matrix: row m flags which of the d candidate features
replicate m selected.  Stability is 1 minus the mean per-feature selection
variance, either plain ("paper_formula") or normalized by the variance of a
random selector with the same average subset size ("normalized", the
default; the plain form saturates near 1 whenever d >> selected count).

Variance estimates use the delta method: Phi-hat is a smooth function of the
per-row statistics, so v = (4/M^2) * sum_i (phi_i - mean(phi))^2 with phi_i
the per-row influence values, the same quantity a row bootstrap of Z
estimates.
"""

from __future__ import annotations

import csv
import io
import math
import statistics
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .boosting import BoostConfig, fit, universal_features
from .data import (
    MultitaskDataset,
    TaskDataset,
    overlap_split,
    standardize_dataset,
)
from .errors import DataError, NumericalError

PAPER_FORMULA = "paper_formula"
NORMALIZED = "normalized"
ALPHA = 0.05  # default significance level of the stability confidence interval
VARIANTS = (PAPER_FORMULA, NORMALIZED)


@dataclass
class SelectionMatrix:
    """Binary M x d record of selections across M randomized replicates."""

    Z: np.ndarray
    feature_names: list[str]

    def __post_init__(self) -> None:
        self.Z = np.asarray(self.Z)
        if self.Z.ndim != 2:
            raise DataError("Z must be a 2-dimensional matrix")
        if self.Z.shape[0] < 2:
            raise DataError("need at least 2 replicates")
        if self.Z.shape[1] != len(self.feature_names):
            raise DataError("feature_names length does not match Z columns")
        if not np.isin(self.Z, (0, 1)).all():
            raise DataError("Z entries must be 0 or 1")
        self.Z = self.Z.astype(np.float64)

    @property
    def n_replicates(self) -> int:
        return self.Z.shape[0]

    @property
    def n_features(self) -> int:
        return self.Z.shape[1]

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(self.feature_names)
        for row in self.Z:
            writer.writerow([int(v) for v in row])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "SelectionMatrix":
        rows = list(csv.reader(io.StringIO(text)))
        if len(rows) < 3:
            raise DataError("selection CSV needs a header and at least 2 rows")
        header = [h.strip() for h in rows[0]]
        try:
            Z = np.array([[int(v) for v in row] for row in rows[1:] if row], dtype=np.float64)
        except ValueError as e:
            raise DataError(f"selection CSV has a non-integer cell: {e}") from None
        return cls(Z=Z, feature_names=header)


def _check_variant(variant: str) -> None:
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")


def _sample_variances(Z: np.ndarray) -> np.ndarray:
    M = Z.shape[0]
    p = Z.mean(axis=0)
    return M / (M - 1) * p * (1.0 - p)


def stability(matrix: SelectionMatrix, variant: str = NORMALIZED) -> float:
    """Mean selection-variance stability of the replicate matrix."""
    _check_variant(variant)
    Z = matrix.Z
    d = matrix.n_features
    mean_s2 = float(np.mean(_sample_variances(Z)))
    if variant == PAPER_FORMULA:
        return 1.0 - mean_s2
    kbar = float(Z.sum(axis=1).mean())
    denom = (kbar / d) * (1.0 - kbar / d)
    if denom == 0.0:
        raise NumericalError(
            "normalized stability is undefined when every replicate selects "
            "no features or all features"
        )
    return 1.0 - mean_s2 / denom


def _influence(matrix: SelectionMatrix, variant: str) -> np.ndarray:
    """Per-row influence values whose scaled variance estimates v(Phi-hat)."""
    Z = matrix.Z
    M, d = Z.shape
    p = Z.mean(axis=0)
    k = Z.sum(axis=1)
    if variant == PAPER_FORMULA:
        return (Z @ p - k / 2.0) / d
    kbar = float(k.mean())
    denom = (kbar / d) * (1.0 - kbar / d)
    if denom == 0.0:
        raise NumericalError("normalized stability variance undefined for degenerate Z")
    phi_hat = stability(matrix, variant)
    inner = (
        Z @ p / d
        - k * kbar / d**2
        + (phi_hat / 2.0) * (2.0 * k * kbar / d**2 - k / d - kbar / d + 1.0)
    )
    return inner / denom


def stability_variance(matrix: SelectionMatrix, variant: str = NORMALIZED) -> float:
    """Asymptotic variance of the stability estimate (delta method)."""
    _check_variant(variant)
    phi = _influence(matrix, variant)
    M = matrix.n_replicates
    centered = phi - phi.mean()
    return float(4.0 / M**2 * np.sum(centered * centered))


def stability_ci(
    matrix: SelectionMatrix, alpha: float = ALPHA, variant: str = NORMALIZED
) -> tuple[float, float]:
    """Symmetric normal confidence interval around the stability estimate."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    phi_hat = stability(matrix, variant)
    z = statistics.NormalDist().inv_cdf(1.0 - alpha / 2.0)
    half = z * float(np.sqrt(stability_variance(matrix, variant)))
    return (phi_hat - half, phi_hat + half)


def ztest(
    a: SelectionMatrix, b: SelectionMatrix, variant: str = NORMALIZED
) -> tuple[float, float]:
    """Two-sample Z comparison of stabilities: statistic and two-sided p."""
    phi_a = stability(a, variant)
    phi_b = stability(b, variant)
    v = stability_variance(a, variant) + stability_variance(b, variant)
    if v == 0.0:
        if phi_a == phi_b:
            return (0.0, 1.0)
        return (float(np.inf) if phi_a > phi_b else float(-np.inf), 0.0)
    t = (phi_a - phi_b) / float(np.sqrt(v))
    p = math.erfc(abs(t) / math.sqrt(2.0))
    return (t, p)


def cohens_d(a: SelectionMatrix, b: SelectionMatrix, variant: str = NORMALIZED) -> float:
    """Effect size sqrt(2) * T; requires equal replicate counts."""
    if a.n_replicates != b.n_replicates:
        raise DataError(
            f"replicate counts differ ({a.n_replicates} vs {b.n_replicates}); "
            "the effect size assumes equal sample counts"
        )
    t, _ = ztest(a, b, variant)
    return float(np.sqrt(2.0)) * t


@dataclass
class StabilityReport:
    phi: float
    variance: float
    ci_low: float
    ci_high: float
    mean_features_selected: float
    variant: str

    def to_dict(self) -> dict:
        return {
            "stability": self.phi,
            "variance": self.variance,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "mean_features_selected": self.mean_features_selected,
            "variant": self.variant,
        }


def make_report(
    matrix: SelectionMatrix, alpha: float = ALPHA, variant: str = NORMALIZED
) -> StabilityReport:
    low, high = stability_ci(matrix, alpha, variant)
    return StabilityReport(
        phi=stability(matrix, variant),
        variance=stability_variance(matrix, variant),
        ci_low=low,
        ci_high=high,
        mean_features_selected=float(matrix.Z.sum(axis=1).mean()),
        variant=variant,
    )


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of ``x``; tied values share the mean of their ranks."""
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Rank correlation with average ranks for ties."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 2:
        raise DataError("spearman needs two equal-length vectors of length >= 2")
    if np.isnan(x).any() or np.isnan(y).any():
        raise DataError("spearman is undefined for NaN input")
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    if np.std(rx) == 0.0 or np.std(ry) == 0.0:
        raise NumericalError("spearman is undefined for a constant input")
    return float(np.corrcoef(rx, ry)[0, 1])


def universal_correlation_matrix(
    tasks: Sequence[TaskDataset], feature_names: Sequence[str]
) -> np.ndarray:
    """Mean absolute rank correlation per feature pair across the datasets.

    A dataset counts for a pair only when it defines both features with
    nonconstant columns; a pair no dataset defines gets NaN.  Diagonal is 1.
    """
    k = len(feature_names)
    mat = np.full((k, k), np.nan)
    np.fill_diagonal(mat, 1.0)
    columns: list[dict[str, np.ndarray]] = []
    for task in tasks:
        cols = {}
        for j, name in enumerate(task.feature_names):
            if name in feature_names:
                col = task.X[:, j]
                if not np.isnan(col).any() and np.ptp(col) > 0:
                    cols[name] = col
        columns.append(cols)
    for i in range(k):
        for j in range(i + 1, k):
            vals = []
            for cols in columns:
                a = cols.get(feature_names[i])
                b = cols.get(feature_names[j])
                if a is None or b is None:
                    continue
                try:
                    vals.append(abs(spearman(a, b)))
                except NumericalError:
                    continue
            if vals:
                mat[i, j] = mat[j, i] = float(np.mean(vals))
    return mat


def _replicate_rows(
    dataset: MultitaskDataset, config: BoostConfig, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """One replicate: a fresh split, one universal row, T single-task rows."""
    from dataclasses import replace

    split = overlap_split(dataset.tasks, seed=seed)
    standardized, _ = standardize_dataset(dataset, split)
    d = len(dataset.candidate_features)
    col = {f: i for i, f in enumerate(dataset.candidate_features)}

    # Universal selections do not depend on stage 2, so skip it here.
    uni_config = replace(config, rounds_task=0)
    model_u = fit(standardized, split, uni_config)
    row_u = np.zeros(d)
    for name in universal_features(model_u):
        row_u[col[name]] = 1.0

    single_config = replace(config, rounds_universal=0)
    model_s = fit(standardized, split, single_config)
    rows_t = np.zeros((dataset.n_tasks, d))
    for t in range(dataset.n_tasks):
        for f in model_s.task_feature_indices(t):
            rows_t[t, f] = 1.0
    return row_u, rows_t


def selection_replicates(
    dataset: MultitaskDataset,
    config: BoostConfig,
    replicates: int = 100,
    seed: int = 0,
    jobs: int = 1,
) -> tuple[SelectionMatrix, list[SelectionMatrix]]:
    """Selection matrices over ``replicates`` randomized splits.

    Returns the universal matrix and one per-task matrix of independent
    single-task selections (the no-universal-stage runs).  Replicate m uses
    split seed ``seed + m``, so results do not depend on ``jobs``.
    """
    if replicates < 2 or jobs < 1:
        raise ValueError(f"need at least 2 replicates and 1 job, got {replicates} and {jobs}")
    if config.rounds_universal < 1 or config.rounds_task < 1:
        raise ValueError(
            "stability replicates compare universal and single-task selections; "
            "both stage budgets must be >= 1"
        )
    seeds = [seed + m for m in range(replicates)]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, replicates)) as pool:
            results = list(pool.map(_replicate_rows, [dataset] * replicates, [config] * replicates, seeds))
    else:
        results = [_replicate_rows(dataset, config, s) for s in seeds]
    names = list(dataset.candidate_features)
    Z_u = np.stack([r[0] for r in results])
    Z_t = np.stack([r[1] for r in results])  # (M, T, d)
    return (
        SelectionMatrix(Z=Z_u, feature_names=names),
        [SelectionMatrix(Z=Z_t[:, t, :], feature_names=names) for t in range(dataset.n_tasks)],
    )
