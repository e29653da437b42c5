"""Selection-stability statistics over randomized replicates.

Z is an M x d binary matrix: row m flags which of the d candidate features
replicate m selected.  Stability is 1 minus the mean per-feature selection
variance, either plain ("paper_formula") or normalized by the variance of a
random selector with the same average subset size ("normalized", the
default; the plain form saturates near 1 whenever d >> selected count).

Variance estimates use the delta method: Phi-hat is a smooth function of the
per-row statistics, so v = (4/M^2) * sum_i (phi_i - mean(phi))^2 with phi_i
the per-row influence values, the same quantity a row bootstrap of Z
estimates.  Phi-hat and v are computed in one pass, from one computation of
the per-feature selection rates p, the per-row counts k, their mean k-bar and
the normalizer.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, replace

import numpy as np

from .boosting import BoostConfig, fit, pool_map
from .data import MultitaskDataset, overlap_split, standardize_dataset
from .errors import BoutsError, DataError, NumericalError

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

    def csv_rows(self) -> tuple[list[str], list[list[int]]]:
        """Header (the feature names) and one 0/1 row per replicate."""
        return self.feature_names, self.Z.astype(np.int64).tolist()


def _estimate(matrix: SelectionMatrix, variant: str) -> tuple[float, float]:
    """Phi-hat and its delta-method variance, from one pass over Z."""
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    Z = matrix.Z
    M, d = Z.shape
    p = Z.mean(axis=0)
    k = Z.sum(axis=1)
    mean_s2 = float(np.mean(M / (M - 1) * p * (1.0 - p)))
    if variant == PAPER_FORMULA:
        phi_hat = 1.0 - mean_s2
        phi = (Z @ p - k / 2.0) / d  # per-row influence values
    else:
        kbar = float(k.mean())
        denom = (kbar / d) * (1.0 - kbar / d)
        if denom == 0.0:
            raise NumericalError(
                "normalized stability is undefined when every replicate selects "
                "no features or all features"
            )
        phi_hat = 1.0 - mean_s2 / denom
        phi = (
            Z @ p / d
            - k * kbar / d**2
            + (phi_hat / 2.0) * (2.0 * k * kbar / d**2 - k / d - kbar / d + 1.0)
        ) / denom
    centered = phi - phi.mean()
    return phi_hat, float(4.0 / M**2 * np.sum(centered * centered))


def stability(matrix: SelectionMatrix, variant: str = NORMALIZED) -> float:
    """Mean selection-variance stability of the replicate matrix."""
    return _estimate(matrix, variant)[0]


def ztest(
    a: SelectionMatrix, b: SelectionMatrix, variant: str = NORMALIZED
) -> tuple[float, float]:
    """Two-sample Z comparison of stabilities: statistic and two-sided p."""
    (phi_a, v_a), (phi_b, v_b) = _estimate(a, variant), _estimate(b, variant)
    v = v_a + v_b
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


def make_report(matrix: SelectionMatrix, alpha: float = ALPHA, variant: str = NORMALIZED) -> dict:
    """One matrix's ``stability_report.json`` entry: Phi-hat, its delta-method
    variance and the symmetric normal interval of level 1 - ``alpha`` around it."""
    phi, variance = _estimate(matrix, variant)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    half = statistics.NormalDist().inv_cdf(1.0 - alpha / 2.0) * float(np.sqrt(variance))
    return {
        "stability": phi,
        "variance": variance,
        "ci_low": phi - half,
        "ci_high": phi + half,
        "mean_features_selected": float(matrix.Z.sum(axis=1).mean()),
        "variant": variant,
    }


def _replicate_rows(
    dataset: MultitaskDataset, config: BoostConfig, seed: int, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """Replicate m: a fresh split with seed ``seed + m``, one universal row,
    T single-task rows; an error names the replicate and its split seed."""
    try:
        split = overlap_split(dataset.tasks, seed=seed + m)
        standardized, _ = standardize_dataset(dataset, split)
        # Universal selections do not depend on stage 2, so skip it here.
        model_u = fit(standardized, split, replace(config, rounds_task=0))
        model_s = fit(standardized, split, replace(config, rounds_universal=0))
    except BoutsError as e:
        raise type(e)(f"replicate {m} (split seed {seed + m}): {e}") from None
    rows = np.zeros((1 + dataset.n_tasks, len(dataset.candidate_features)))
    rows[0, list(model_u.universal_feature_indices)] = 1.0
    for t in range(dataset.n_tasks):
        rows[1 + t, list(model_s.task_feature_indices(t))] = 1.0
    return rows[0], rows[1:]


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
    config.task_lambdas(dataset.n_tasks)  # a bad list fails here, not in every replicate
    results = pool_map(_replicate_rows, range(replicates), jobs, (dataset, config, seed))
    names = list(dataset.candidate_features)
    Z_u = np.stack([r[0] for r in results])
    Z_t = np.stack([r[1] for r in results])  # (M, T, d)
    return (
        SelectionMatrix(Z=Z_u, feature_names=names),
        [SelectionMatrix(Z=Z_t[:, t, :], feature_names=names) for t in range(dataset.n_tasks)],
    )
