"""Synthetic multitask regression data with planted feature ground truth.

Targets are sign_t * (g(universal columns) + h_t(task-specific columns))
plus Gaussian noise.  Nuisance columns can be equicorrelated through a
shared latent factor to make spurious selection tempting.  The planted
index sets are emitted alongside the data as the recovery oracle.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .data import MultitaskDataset, TaskDataset, write_csv, write_json

LINEAR = "linear"
QUADRATIC = "quadratic"
INTERACTION = "interaction"
NONLINEARITIES = (LINEAR, QUADRATIC, INTERACTION)


@dataclass
class SynthSpec:
    """Planted-truth generator configuration; a bad parameter raises ValueError."""

    n_tasks: int
    n_features: int
    n_samples: Union[int, Sequence[int]]
    universal: Sequence[int]
    task_specific: Sequence[Sequence[int]]
    noise_sigma: float = 0.1
    nonlinearity: str = QUADRATIC
    correlation_rho: float = 0.0
    output_sign: Union[None, Sequence[int]] = None
    seed: int = 0

    def __post_init__(self) -> None:
        T, d = self.n_tasks, self.n_features
        if T < 1:
            raise ValueError("need at least one task")
        if len(self.task_specific) != T:
            raise ValueError("task_specific must list one index set per task")
        if self.output_sign is None:
            self.output_sign = [1] * T
        if len(self.output_sign) != T or any(s not in (-1, 1) for s in self.output_sign):
            raise ValueError("output_sign must be one of {-1, +1} per task")
        uni = set(self.universal)
        all_planted = set(uni)
        for t, spec_t in enumerate(self.task_specific):
            st = set(spec_t)
            if st & uni:
                raise ValueError(
                    f"task {t}: specific features {sorted(st & uni)} overlap the universal set"
                )
            all_planted |= st
        if any(not 0 <= f < d for f in all_planted):
            raise ValueError("planted feature indices must lie in [0, n_features)")
        if T >= 2:
            shared_by_all = set.intersection(*(set(s) for s in self.task_specific))
            if shared_by_all:
                raise ValueError(
                    f"features {sorted(shared_by_all)} appear in every task's specific set; "
                    "a feature used by all tasks is universal, not task-specific"
                )
        if len(uni) + sum(len(s) for s in self.task_specific) >= d:
            raise ValueError("planted features must leave room for nuisance features")
        if not 0 <= self.noise_sigma < np.inf:  # NaN fails too
            raise ValueError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if not 0.0 <= self.correlation_rho < 1.0:
            raise ValueError("correlation_rho must be in [0, 1)")
        if self.nonlinearity not in NONLINEARITIES:
            raise ValueError(f"nonlinearity must be one of {NONLINEARITIES}")
        ns = self.n_samples
        self.n_samples = [int(ns)] * T if isinstance(ns, int) else [int(v) for v in ns]
        if len(self.n_samples) != T or any(v < 1 for v in self.n_samples):
            raise ValueError("n_samples must be a positive count (or one per task)")

    @property
    def feature_names(self) -> list[str]:
        width = max(3, len(str(self.n_features - 1)))
        return [f"f{j:0{width}d}" for j in range(self.n_features)]

    @property
    def task_names(self) -> list[str]:
        return [f"task{t}" for t in range(self.n_tasks)]


def _signal(cols: np.ndarray, nonlinearity: str) -> np.ndarray:
    """Planted signal from the (n, k) matrix of planted columns.

    quadratic: sum of squares plus all pairwise products; interaction:
    pairwise products only, falling back to the identity when k = 1.
    """
    n, k = cols.shape
    if k == 0:
        return np.zeros(n)
    if nonlinearity == LINEAR:
        return cols.sum(axis=1)
    total = cols.sum(axis=1)
    sq = (cols * cols).sum(axis=1)
    pairs = 0.5 * (total * total - sq)
    if nonlinearity == QUADRATIC:
        return sq + pairs
    return pairs if k > 1 else cols[:, 0]


def generate(spec: SynthSpec) -> tuple[MultitaskDataset, dict]:
    """Draw the dataset ``spec`` describes; same parameters, same bits.

    Also returns the ``truth.json`` object: the planted sets by feature name,
    ``{"universal": [...], "task_specific": {task: [...]}}``.
    """
    names = spec.feature_names
    planted = set(spec.universal)
    for s in spec.task_specific:
        planted |= set(s)
    nuisance = np.array([j for j in range(spec.n_features) if j not in planted], dtype=np.intp)
    seeds = np.random.SeedSequence(spec.seed).spawn(spec.n_tasks)
    tasks = []
    for t in range(spec.n_tasks):
        rng = np.random.default_rng(seeds[t])
        n = spec.n_samples[t]
        X = rng.standard_normal((n, spec.n_features))
        common = rng.standard_normal(n)
        eps = rng.standard_normal(n)
        if spec.correlation_rho > 0.0 and nuisance.size:
            rho = spec.correlation_rho
            X[:, nuisance] = np.sqrt(rho) * common[:, None] + np.sqrt(1.0 - rho) * X[:, nuisance]
        signal = _signal(X[:, sorted(spec.universal)], spec.nonlinearity) + _signal(
            X[:, sorted(spec.task_specific[t])], spec.nonlinearity
        )
        y = spec.output_sign[t] * signal + spec.noise_sigma * eps
        tasks.append(
            TaskDataset(
                name=spec.task_names[t],
                feature_names=list(names),
                X=X,
                y=y,
                sample_ids=[f"{spec.task_names[t]}-{i:06d}" for i in range(n)],
            )
        )
    truth = {
        "universal": sorted(names[j] for j in spec.universal),
        "task_specific": {
            spec.task_names[t]: sorted(names[j] for j in spec.task_specific[t])
            for t in range(spec.n_tasks)
        },
    }
    return MultitaskDataset(tasks=tasks, candidate_features=list(names)), truth


def write_outputs(dataset: MultitaskDataset, truth: dict, outdir: str) -> dict[str, str]:
    """Write per-task CSVs, the ingestion manifest, and ``truth`` as truth.json.

    Returns the paths written, keyed by artifact name.
    """
    os.makedirs(outdir, exist_ok=True)
    manifest = {"tasks": {}}
    paths: dict[str, str] = {}
    for task in dataset.tasks:
        csv_path = os.path.join(outdir, f"{task.name}.csv")
        # Row by row: a whole-matrix tolist() would hold every cell as a Python float.
        rows = ([sid, *x.tolist(), y] for sid, x, y in zip(task.sample_ids, task.X, task.y.tolist()))
        write_csv(csv_path, ["id", *task.feature_names, "target"], rows)
        manifest["tasks"][task.name] = f"{task.name}.csv"
        paths[f"csv:{task.name}"] = csv_path
    paths["manifest"] = os.path.join(outdir, "manifest.json")
    paths["truth"] = os.path.join(outdir, "truth.json")
    write_json(paths["manifest"], manifest)
    write_json(paths["truth"], truth)
    return paths
