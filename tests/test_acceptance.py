"""Acceptance gate: one test per shipped guarantee.

Each test pins one end-to-end claim with its tolerance and, where stated,
its runtime budget, and finishes by printing a single PASS line so the
suite output reads as a checklist (run with ``-v`` to see one line per
criterion either way).
"""

from __future__ import annotations

import math
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bouts import multitask
from bouts.boosting import (
    BoostConfig,
    fit,
    fit_single_task,
    task_specific_features,
    universal_features,
)
from bouts.data import TaskDataset, overlap_split, standardize_dataset
from bouts.multitask import MultitaskTree, grow_multitask_tree, maximin_split
from bouts.pathsweep import PathPoint, RegularizationPath, log_grid, select_penalty, sweep
from bouts.stability import (
    SelectionMatrix,
    cohens_d,
    make_report,
    selection_replicates,
    stability,
    ztest,
)
from bouts.synth import SynthSpec, generate
from bouts.trees import (
    CRITERIA,
    VARIANCE,
    TreeParams,
    raw_gain,
    scan_columns,
    sort_rows,
)

GAIN_TOL = 1e-12
PREDICTION_TOL = 1e-12


# ---------------------------------------------------------------------------
# Shared planted-recovery setup: 3 tasks, 50 candidates, 3 universal and
# 2 task-specific planted features per task, mixed output signs.

PLANTED_UNIVERSAL = [0, 1, 2]
PLANTED_SPECIFIC = [[3, 4], [5, 6], [7, 8]]
PLANTED_CONFIG = BoostConfig(
    rounds_universal=100,
    rounds_task=100,
    learning_rate=0.1,
    lambda_u=5.0,
    lambda_task=5.0,
)


def planted_spec(seed: int) -> SynthSpec:
    return SynthSpec(
        n_tasks=3,
        n_features=50,
        n_samples=500,
        universal=PLANTED_UNIVERSAL,
        task_specific=PLANTED_SPECIFIC,
        noise_sigma=0.1,
        nonlinearity="quadratic",
        output_sign=[1, -1, 1],
        seed=seed,
    )


@pytest.fixture(scope="module")
def planted_fit():
    """Seed-0 planted dataset fitted once, with the per-round MSE streams
    recomputed from the residual vectors handed to the callback."""
    dataset, truth = generate(planted_spec(0))
    split = overlap_split(dataset.tasks, seed=0)
    standardized, _ = standardize_dataset(dataset, split)

    stage1: list[list[float]] = []
    stage2: dict[int, list[float]] = {t: [] for t in range(3)}

    def on_round(stage, info, residuals):
        if stage == "universal":
            stage1.append([float(np.mean(r * r)) for r in residuals])
        else:
            t, _ = info
            stage2[t].append(float(np.mean(residuals * residuals)))

    model = fit(standardized, split, PLANTED_CONFIG, on_round=on_round)
    return standardized, split, model, truth, stage1, stage2


# ---------------------------------------------------------------------------
# A1: the vectorized single-task split search equals plain enumeration.


def random_columns(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Feature matrix mixing continuous, integer, and rounded columns so
    duplicate values and exact score ties both occur."""
    X = np.empty((n, d))
    for j in range(d):
        kind = int(rng.integers(0, 3))
        if kind == 0:
            X[:, j] = rng.normal(size=n)
        elif kind == 1:
            X[:, j] = rng.integers(0, 4, size=n)
        else:
            X[:, j] = np.round(rng.normal(size=n), 1)
    return X


def random_targets(rng: np.random.Generator, X: np.ndarray) -> np.ndarray:
    n = X.shape[0]
    kind = int(rng.integers(0, 3))
    if kind == 0:
        return rng.normal(size=n)
    if kind == 1:
        return rng.integers(0, 3, size=n).astype(np.float64)
    w = rng.normal(size=X.shape[1])
    return X @ w + 0.5 * rng.normal(size=n)


def prepared(X):
    """The (n, d) matrix ``X`` prepared as a node."""
    return sort_rows(np.ascontiguousarray(X.T))


def charged_gain(X, y, f, v, used, lam, criterion):
    """``raw_gain`` minus the charge ``lam`` when ``f`` is a new feature."""
    return raw_gain(X[:, f], y, v, criterion) - (0.0 if f in used else lam)


def enumerate_best_single(X, y, used, lam, params):
    """Plain argmax of the penalized gain over every (feature, midpoint)."""
    best = None
    for f in range(X.shape[1]):
        col = X[:, f]
        xs = np.unique(col)
        for lo, hi in zip(xs[:-1], xs[1:]):
            v = (lo + hi) / 2.0
            n_left = int((col <= v).sum())
            if min(n_left, len(y) - n_left) < params.min_samples_leaf:
                continue
            g = charged_gain(X, y, f, v, used, lam, params.criterion)
            if best is None or g > best[0]:
                best = (g, f, v)
    if best is None or best[0] <= params.min_gain:
        return None
    g, f, v = best
    return g, f, v, raw_gain(X[:, f], y, v, params.criterion)


def test_a1_split_oracle_equivalence():
    rng = np.random.default_rng(1)
    started = time.perf_counter()
    n_instances = 1000
    n_splits = 0
    for _ in range(n_instances):
        n = int(rng.integers(2, 33))
        d = int(rng.integers(1, 6))
        X = random_columns(rng, n, d)
        y = random_targets(rng, X)
        lam = float(rng.choice([0.0, 0.1, 0.5]))
        used = {f for f in range(d) if rng.random() < 0.5}
        params = TreeParams(
            max_depth=1,
            min_samples_leaf=int(rng.integers(1, 3)),
            min_gain=0.0,
            criterion=str(rng.choice(CRITERIA)),
        )
        got = maximin_split([prepared(X)], [y], used, lam, params)
        want = enumerate_best_single(X, y, used, lam, params)
        if want is None:
            assert got is None
            continue
        w_gain, w_f, w_v, w_raw = want
        assert got is not None
        assert got.feature == w_f
        assert got.thresholds[0] == w_v
        assert abs(got.gains[0] - w_gain) <= GAIN_TOL
        assert abs(got.raw_gains[0] - w_raw) <= GAIN_TOL
        n_splits += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"A1 split-oracle equivalence: PASS ({n_instances} instances, "
          f"{n_splits} with a split, {elapsed:.1f}s)")


def test_a1_definition_overrides_the_scan_on_a_tie():
    """Instance 52 of A1's generator.  Feature 1 wins, and its two boundaries
    both split y = [1, 2, 0] into one lone row and a pair.  The scan scores the
    two alike and its first maximum is the lower midpoint.  The definition
    scores the upper one higher, and the split takes the upper midpoint, as
    plain enumeration does."""
    X = np.array([
        [-0.3, -0.3522447692622993, -0.5952491751840291],
        [0.5, 1.3762055289095616, 1.668150629718043],
        [-1.3, -0.7434350846307666, 0.0464148224834097],
    ])
    y = np.array([1.0, 2.0, 0.0])
    used, lam = {1, 2}, 0.1
    params = TreeParams(max_depth=1, min_samples_leaf=1, min_gain=0.0, criterion=VARIANCE)
    col = np.sort(X[:, 1])
    lower, upper = (col[0] + col[1]) / 2.0, (col[1] + col[2]) / 2.0
    col_gain = lambda v: raw_gain(X[:, 1], y, v, params.criterion)
    assert col_gain(lower) < col_gain(upper)

    got = maximin_split([prepared(X)], [y], used, lam, params)
    want = enumerate_best_single(X, y, used, lam, params)
    assert got.feature == want[1] == 1
    assert got.thresholds[0] == want[2] == upper


# ---------------------------------------------------------------------------
# A2: the maximin shared-feature search equals brute force.


def brute_force_maximin(Xs, ys, used, lam, params):
    """Independent maximin enumeration: per task the best penalized midpoint
    split per feature, then min across tasks, then argmax across features."""
    best = None
    for f in range(Xs[0].shape[1]):
        per_task = []
        for X, y in zip(Xs, ys):
            xs = np.unique(X[:, f])
            cand = None
            for lo, hi in zip(xs[:-1], xs[1:]):
                v = (lo + hi) / 2.0
                n_left = int((X[:, f] <= v).sum())
                if min(n_left, len(y) - n_left) < params.min_samples_leaf:
                    continue
                g = charged_gain(X, y, f, v, used, lam, params.criterion)
                if cand is None or g > cand[0]:
                    cand = (g, v)
            per_task.append(cand)
        if any(c is None for c in per_task):
            continue
        score = min(c[0] for c in per_task)
        if best is None or score > best[0]:
            best = (score, f, per_task)
    if best is None or best[0] <= params.min_gain:
        return None
    return best


def assert_brute_force_split(got, want) -> bool:
    """Assert that ``maximin_split``'s ``got`` is ``brute_force_maximin``'s
    ``want``; True if they split."""
    if want is None:
        assert got is None
        return False
    w_score, w_f, w_per_task = want
    assert got is not None
    assert got.feature == w_f
    assert got.thresholds == tuple(v for _, v in w_per_task)
    assert abs(got.score - w_score) <= GAIN_TOL
    for g, (wg, _) in zip(got.gains, w_per_task):
        assert abs(g - wg) <= GAIN_TOL
    return True


def test_a2_maximin_oracle_equivalence():
    rng = np.random.default_rng(2)
    started = time.perf_counter()
    n_instances = 500
    n_splits = 0
    for _ in range(n_instances):
        T = int(rng.integers(1, 4))
        d = int(rng.integers(1, 5))
        Xs, ys = [], []
        for _t in range(T):
            n = int(rng.integers(2, 17))
            X = random_columns(rng, n, d)
            Xs.append(X)
            ys.append(random_targets(rng, X))
        lam = float(rng.choice([0.0, 0.1, 0.5]))
        used = {f for f in range(d) if rng.random() < 0.5}
        params = TreeParams(
            max_depth=1,
            min_samples_leaf=int(rng.integers(1, 3)),
            min_gain=0.0,
            criterion=str(rng.choice(CRITERIA)),
        )
        got = maximin_split([prepared(X) for X in Xs], ys, used, lam, params)
        n_splits += assert_brute_force_split(got, brute_force_maximin(Xs, ys, used, lam, params))
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"A2 maximin-oracle equivalence: PASS ({n_instances} instances, "
          f"{n_splits} with a split, {elapsed:.1f}s)")


@st.composite
def prunable_nodes(draw):
    """2 or 3 tasks on 8 to 12 tie-free or level columns, whose targets step
    at the median of one used feature, so the first task rules most features out."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    T, d = draw(st.sampled_from([2, 3])), draw(st.integers(8, 12))
    columns = draw(st.sampled_from([continuous_columns, level_columns]))
    signal = int(rng.integers(0, d))
    used = {signal, *(f for f in range(d) if rng.random() < 0.2)}
    Xs = [columns(rng, int(rng.integers(8, 25)), d) for _ in range(T)]
    ys = [2.0 * (X[:, signal] > np.median(X[:, signal])) + 0.5 * rng.normal(size=len(X))
          for X in Xs]
    params = TreeParams(
        max_depth=1,
        min_samples_leaf=draw(st.integers(1, 2)),
        min_gain=0.0,
        criterion=draw(st.sampled_from(CRITERIA)),
    )
    return Xs, ys, used, draw(st.sampled_from([0.0, 0.5, 5.0, math.inf])), params


@given(prunable_nodes())
@settings(max_examples=150, deadline=None)
def test_a2_maximin_oracle_equivalence_when_tasks_skip_features(case):
    """A2 on nodes where the tasks after the first scan fewer than d features."""
    Xs, ys, used, lam, params = case
    with mock.patch.object(multitask, "scan_columns", wraps=scan_columns) as scan:
        got = maximin_split([prepared(X) for X in Xs], ys, used, lam, params)
    assume(scan.call_args_list[-1].args[0].shape[0] < Xs[0].shape[1])
    assert_brute_force_split(got, brute_force_maximin(Xs, ys, used, lam, params))


@st.composite
def unequal_nodes(draw):
    """2 to 4 tasks on 1 to 10 tie-free or level columns, whose fewest rows are
    not the first task's, with pure-noise targets or targets that step on one feature."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    T, d = draw(st.integers(2, 4)), draw(st.integers(1, 10))
    columns = draw(st.sampled_from([continuous_columns, level_columns]))
    sizes = [int(rng.integers(12, 40)) for _ in range(T)]
    sizes[draw(st.integers(1, T - 1))] = int(rng.integers(4, 12))  # the lead
    Xs = [columns(rng, n, d) for n in sizes]
    signal = int(rng.integers(0, d)) if draw(st.booleans()) else None
    ys = [random_targets(rng, X) if signal is None
          else 2.0 * (X[:, signal] > np.median(X[:, signal])) + 0.5 * rng.normal(size=len(X))
          for X in Xs]
    used = {f for f in range(d) if rng.random() < 0.3}
    params = TreeParams(
        max_depth=1,
        min_samples_leaf=draw(st.integers(1, 2)),
        min_gain=0.0,
        criterion=draw(st.sampled_from(CRITERIA)),
    )
    return Xs, ys, used, draw(st.sampled_from([0.0, 0.5, 5.0, math.inf])), params


@given(unequal_nodes())
@settings(max_examples=150, deadline=None)
def test_a2_maximin_oracle_equivalence_when_a_later_task_leads(case):
    """A2 on nodes whose smallest task, which scans every feature, is not the first."""
    Xs, ys, used, lam, params = case
    lead = min(range(len(Xs)), key=lambda t: len(Xs[t]))
    with mock.patch.object(multitask, "scan_columns", wraps=scan_columns) as scan:
        got = maximin_split([prepared(X) for X in Xs], ys, used, lam, params)
    first = scan.call_args_list[0].args
    assert first[0].shape[0] == Xs[0].shape[1] and first[2] is ys[lead]
    assert_brute_force_split(got, brute_force_maximin(Xs, ys, used, lam, params))


@given(unequal_nodes(), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_maximin_split_does_not_depend_on_the_task_order(case, random):
    """Permuting the tasks picks the same feature and score and permutes the
    per-task thresholds and gains alike."""
    Xs, ys, used, lam, params = case
    perm = random.sample(range(len(Xs)), len(Xs))
    got = maximin_split([prepared(X) for X in Xs], ys, used, lam, params)
    moved = maximin_split([prepared(Xs[t]) for t in perm], [ys[t] for t in perm], used, lam, params)
    if got is None:
        assert moved is None
        return
    assert (moved.feature, moved.score) == (got.feature, got.score)
    for key in ("thresholds", "gains", "raw_gains"):
        assert getattr(moved, key) == tuple(getattr(got, key)[t] for t in perm), key


def continuous_columns(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Feature matrix without a repeated value in any column."""
    return rng.normal(size=(n, d))


def level_columns(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """Feature matrix whose every column takes 2 to 63 levels, counts or
    arbitrary values, so most boundaries fall inside runs of equal values."""
    X = np.empty((n, d))
    for j in range(d):
        k = int(rng.integers(2, 64))
        codes = rng.integers(0, k, size=n)
        X[:, j] = codes if rng.random() < 0.5 else rng.normal(size=k)[codes]
    return X


COLUMN_KINDS = [random_columns, continuous_columns, level_columns]


@pytest.mark.parametrize("columns", COLUMN_KINDS)
def test_scan_matches_the_definition(columns):
    """Every finite scan gain is ``raw_gain`` at that boundary's midpoint, which
    is the node's threshold for that column, for both criteria, and the scan
    reads -inf exactly between equal neighbours."""
    rng = np.random.default_rng(4)
    n_checked = 0
    for _ in range(300):
        n, d = int(rng.integers(2, 33)), int(rng.integers(1, 6))
        X = columns(rng, n, d)
        y = random_targets(rng, X)
        node = prepared(X)
        m = int(rng.integers(1, 3))
        for criterion in CRITERIA:
            cand = scan_columns(node.order, node.distinct, y, m, criterion)
            assert cand.shape == (d, max(n - 2 * m + 1, 0))
            for f, j in np.ndindex(*cand.shape):
                xs = np.sort(X[:, f])
                lo, hi = xs[m + j - 1], xs[m + j]
                assert np.isneginf(cand[f, j]) == (lo == hi)
                if lo < hi:
                    v = float(0.5 * (lo + hi))
                    assert node.threshold(f, j, m) == v
                    g = raw_gain(X[:, f], y, v, criterion)
                    assert abs(cand[f, j] - g) <= 1e-12 * max(1.0, abs(g))
                    n_checked += 1
    assert n_checked > 10_000


def reference_tree(Xs, ys, used, lam, params):
    """``grow_multitask_tree`` from its definition: ``maximin_split`` on every
    node prepared from a fresh copy of its rows, routed on the original rows."""
    used_now = set(used)
    records = []
    leaf_of_row = [np.empty(len(y), dtype=np.intp) for y in ys]
    n_tasks = len(Xs)

    def build(idxs, depth):
        i = len(records)
        records.append(None)
        split = None
        if depth < params.max_depth and min(idx.size for idx in idxs) >= 2 * params.min_samples_leaf:
            nodes = [prepared(X[idx]) for X, idx in zip(Xs, idxs)]
            node_ys = [y[idx] for y, idx in zip(ys, idxs)]
            split = maximin_split(nodes, node_ys, used_now, lam, params)
        if split is None:
            for rows, idx in zip(leaf_of_row, idxs):
                rows[idx] = i
            values = [np.mean(y[idx]) for y, idx in zip(ys, idxs)]
            records[i] = (-1, -1, -1, [0.0] * n_tasks, values, [0.0] * n_tasks, [0.0] * n_tasks)
            return i
        used_now.add(split.feature)
        go_left = [X[idx, split.feature] <= v for X, idx, v in zip(Xs, idxs, split.thresholds)]
        left = build([idx[g] for idx, g in zip(idxs, go_left)], depth + 1)
        right = build([idx[~g] for idx, g in zip(idxs, go_left)], depth + 1)
        records[i] = (split.feature, left, right, split.thresholds, [math.nan] * n_tasks,
                      split.raw_gains, split.gains)
        return i

    build([np.arange(len(y)) for y in ys], 0)
    return MultitaskTree.of_nodes(records), leaf_of_row


@pytest.mark.parametrize("columns", COLUMN_KINDS)
def test_grower_matches_the_reference_tree(columns):
    """The grower, which prepares each node below the root from its gather of
    the root's ranks (``SortedRows.subset``), grows bit for bit the tree of
    ``reference_tree``."""
    rng = np.random.default_rng(5)
    n_internal = 0
    for _ in range(150):
        T, d = int(rng.integers(1, 4)), int(rng.integers(1, 6))
        Xs = [columns(rng, int(rng.integers(8, 61)), d) for _t in range(T)]
        ys = [random_targets(rng, X) for X in Xs]
        used = {f for f in range(d) if rng.random() < 0.3}
        lam = float(rng.choice([0.0, 0.1, 0.5]))
        params = TreeParams(
            max_depth=3,
            min_samples_leaf=int(rng.integers(1, 4)),
            min_gain=0.0,
            criterion=str(rng.choice(CRITERIA)),
        )
        tree, leaves = grow_multitask_tree([prepared(X) for X in Xs], ys, used, lam, params)
        want, want_leaves = reference_tree(Xs, ys, used, lam, params)
        for key in ("feature", "left", "right", "thresholds", "values", "gains", "penalized_gains"):
            got_a, want_a = getattr(tree, key), getattr(want, key)
            assert got_a.shape == want_a.shape and got_a.tobytes() == want_a.tobytes(), key
        for got_rows, want_rows in zip(leaves, want_leaves):
            np.testing.assert_array_equal(got_rows, want_rows)
        n_internal += int(np.count_nonzero(tree.feature != MultitaskTree.LEAF))
    assert n_internal > 300


# ---------------------------------------------------------------------------
# A3: planted universal and task-specific features are recovered.


def test_a3_planted_recovery():
    started = time.perf_counter()
    n_seeds = 10
    clean_seeds = 0
    specific_recalls: list[float] = []
    for seed in range(n_seeds):
        dataset, truth = generate(planted_spec(seed))
        split = overlap_split(dataset.tasks, seed=seed)
        standardized, _ = standardize_dataset(dataset, split)
        model = fit(standardized, split, PLANTED_CONFIG)

        universal = set(universal_features(model))
        truth_universal = set(truth["universal"])
        recall = len(universal & truth_universal) / len(truth_universal)
        spurious = len(universal - truth_universal)
        if recall == 1.0 and spurious <= 2:
            clean_seeds += 1
        for t, name in enumerate(standardized.task_names):
            truth_t = set(truth["task_specific"][name])
            selected = set(task_specific_features(model, t))
            specific_recalls.append(len(selected & truth_t) / len(truth_t))
    elapsed = time.perf_counter() - started
    mean_specific = float(np.mean(specific_recalls))
    assert clean_seeds >= 9, f"only {clean_seeds}/10 seeds recovered cleanly"
    assert mean_specific >= 0.9, f"mean task-specific recall {mean_specific:.3f}"
    assert elapsed < 120.0
    print(f"A3 planted recovery: PASS ({clean_seeds}/10 clean seeds, "
          f"specific recall {mean_specific:.3f}, {elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# A4: training MSE never increases at an accepted round, either stage.


def test_a4_monotone_training_loss(planted_fit):
    standardized, split, model, _, stage1, stage2 = planted_fit
    violations = 0
    rounds_checked = 0
    for t, task in enumerate(standardized.tasks):
        y_train = task.y[split.train[t]]
        stream = [float(np.mean(y_train * y_train))]
        stream += [per_task[t] for per_task in stage1]
        stream += stage2[t]
        for prev, cur in zip(stream, stream[1:]):
            rounds_checked += 1
            if cur > prev:
                violations += 1
    # The hook is the only per-round record: it must fire once per accepted tree.
    assert len(stage1) == len(model.universal_trees) > 0
    assert [len(stage2[t]) for t in range(3)] == [len(trees) for trees in model.task_trees]
    assert violations == 0, f"{violations} MSE increases"
    print(f"A4 monotone training loss: PASS ({rounds_checked} round transitions, "
          f"0 violations)")


# ---------------------------------------------------------------------------
# A5: universal selection is more stable than the small task's own.


def test_a5_stability_improvement():
    started = time.perf_counter()
    spec = SynthSpec(
        n_tasks=3,
        n_features=30,
        n_samples=[100, 1000, 1000],
        universal=[0, 1, 2],
        task_specific=[[3], [4], [5]],
        noise_sigma=0.5,
        nonlinearity="quadratic",
        output_sign=[1, -1, 1],
        seed=0,
    )
    dataset, _ = generate(spec)
    config = BoostConfig(
        rounds_universal=100,
        rounds_task=100,
        learning_rate=0.1,
        lambda_u=2.0,
        lambda_task=2.0,
    )
    Z_universal, Z_tasks = selection_replicates(dataset, config, replicates=100, seed=100, jobs=2)
    Z_small = Z_tasks[0]  # the n=100 task

    phi_universal = stability(Z_universal)
    phi_small = stability(Z_small)
    _, p = ztest(Z_universal, Z_small)
    d_effect = cohens_d(Z_universal, Z_small)
    elapsed = time.perf_counter() - started

    assert phi_universal > phi_small
    assert p < 0.05
    assert d_effect > 1.0
    assert elapsed < 600.0
    print(f"A5 stability improvement: PASS (phi {phi_universal:.3f} vs "
          f"{phi_small:.3f}, p {p:.2e}, d {d_effect:.2f}, {elapsed:.0f}s)")


# ---------------------------------------------------------------------------
# A6: the stability statistics agree with resampling ground truth.


def phi_of(Z: np.ndarray, variant: str) -> float:
    """Definition-level stability of one replicate matrix."""
    M, d = Z.shape
    p = Z.mean(axis=0)
    mean_s2 = float(np.mean(M / (M - 1) * p * (1.0 - p)))
    if variant == "paper_formula":
        return 1.0 - mean_s2
    kbar = float(Z.sum(axis=1).mean())
    return 1.0 - mean_s2 / ((kbar / d) * (1.0 - kbar / d))


def phi_many(Zb: np.ndarray, variant: str) -> np.ndarray:
    """Same, vectorized over a (B, M, d) stack of matrices."""
    M, d = Zb.shape[1], Zb.shape[2]
    p = Zb.mean(axis=1)
    mean_s2 = (M / (M - 1) * p * (1.0 - p)).mean(axis=1)
    if variant == "paper_formula":
        return 1.0 - mean_s2
    kbar = Zb.sum(axis=2).mean(axis=1)
    return 1.0 - mean_s2 / ((kbar / d) * (1.0 - kbar / d))


def variance_many(Zb: np.ndarray, variant: str) -> np.ndarray:
    """Influence-function variance of the stability estimate, vectorized
    over a (B, M, d) stack."""
    B, M, d = Zb.shape
    p = Zb.mean(axis=1)
    k = Zb.sum(axis=2)
    Zp = np.einsum("bmd,bd->bm", Zb, p)
    if variant == "paper_formula":
        rows = (Zp - k / 2.0) / d
    else:
        kbar = k.mean(axis=1)[:, None]
        denom = (kbar / d) * (1.0 - kbar / d)
        phi_hat = phi_many(Zb, variant)[:, None]
        inner = (
            Zp / d
            - k * kbar / d**2
            + (phi_hat / 2.0) * (2.0 * k * kbar / d**2 - k / d - kbar / d + 1.0)
        )
        rows = inner / denom
    centered = rows - rows.mean(axis=1, keepdims=True)
    return 4.0 / M**2 * np.sum(centered * centered, axis=1)


def random_selection_matrix(rng: np.random.Generator, M: int, d: int) -> np.ndarray:
    p = rng.uniform(0.2, 0.8, size=d)
    return (rng.random((M, d)) < p).astype(np.float64)


def bootstrap_variance(rng, Z: np.ndarray, variant: str, draws: int = 10_000) -> float:
    M = Z.shape[0]
    phis = np.empty(draws)
    done = 0
    while done < draws:
        chunk = min(1000, draws - done)
        idx = rng.integers(0, M, size=(chunk, M))
        phis[done : done + chunk] = phi_many(Z[idx], variant)
        done += chunk
    return float(np.var(phis))


def studentized_many(Za: np.ndarray, Zb: np.ndarray, variant: str) -> np.ndarray:
    """The two-sample statistic (difference over pooled standard error) for
    each pair in two (B, M, d) stacks; the same functional the z test uses."""
    dphi = phi_many(Za, variant) - phi_many(Zb, variant)
    return dphi / np.sqrt(variance_many(Za, variant) + variance_many(Zb, variant))


def permutation_pvalue(rng, Z_a, Z_b, variant: str, draws: int = 10_000) -> float:
    M = Z_a.shape[0]
    pool = np.vstack([Z_a, Z_b])
    observed = abs(float(studentized_many(Z_a[None], Z_b[None], variant)[0]))
    hits = 0
    done = 0
    base = np.tile(np.arange(2 * M), (500, 1))
    while done < draws:
        chunk = min(500, draws - done)
        perm = rng.permuted(base[:chunk], axis=1)
        t = studentized_many(pool[perm[:, :M]], pool[perm[:, M:]], variant)
        hits += int(np.sum(np.abs(t) >= observed))
        done += chunk
    return hits / draws


def test_a6_stability_statistics_consistency():
    names = [f"f{j}" for j in range(12)]
    rng = np.random.default_rng(6)

    # Delta-method variance vs a 10,000-resample row bootstrap.
    for M in (50, 100):
        Z = random_selection_matrix(rng, M, 12)
        matrix = SelectionMatrix(Z=Z, feature_names=names)
        for variant in ("paper_formula", "normalized"):
            assert phi_of(Z, variant) == pytest.approx(
                stability(matrix, variant), rel=1e-12
            )
            v_delta = make_report(matrix, variant=variant)["variance"]
            v_boot = bootstrap_variance(rng, Z, variant)
            assert abs(v_delta - v_boot) <= 0.25 * v_boot, (
                f"M={M} {variant}: delta {v_delta:.3e} vs bootstrap {v_boot:.3e}"
            )

    # Two-sample p-value vs a 10,000-draw permutation test under the null.
    worst_gap = 0.0
    for variant in ("paper_formula", "normalized"):
        Z_a = random_selection_matrix(rng, 100, 12)
        Z_b = random_selection_matrix(rng, 100, 12)
        a = SelectionMatrix(Z=Z_a, feature_names=names)
        b = SelectionMatrix(Z=Z_b, feature_names=names)
        t_z, p_z = ztest(a, b, variant)
        # The reimplemented statistic must agree with production before the
        # permutation distribution built from it means anything.
        t_mine = float(studentized_many(Z_a[None], Z_b[None], variant)[0])
        assert t_mine == pytest.approx(t_z, rel=1e-12)
        p_perm = permutation_pvalue(rng, Z_a, Z_b, variant)
        worst_gap = max(worst_gap, abs(p_z - p_perm))
        assert abs(p_z - p_perm) <= 0.02, (
            f"{variant}: z-test p {p_z:.4f} vs permutation {p_perm:.4f}"
        )

        # Effect size is exactly sqrt(2) times the two-sample statistic.
        t, _ = ztest(a, b, variant)
        assert cohens_d(a, b, variant) == math.sqrt(2.0) * t
    print(f"A6 stability statistics consistency: PASS (variance within 25%, "
          f"p-value gap <= {worst_gap:.4f}, effect size exact)")


# ---------------------------------------------------------------------------
# A7: the penalty-path protocol behaves as documented.


def rank_correlation(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman's rho: the Pearson correlation of the ranks, tied values sharing their mean rank."""

    def average_ranks(v: np.ndarray) -> np.ndarray:
        _, inverse, counts = np.unique(v, return_inverse=True, return_counts=True)
        return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]

    return float(np.corrcoef(average_ranks(x), average_ranks(y))[0, 1])


def test_a7_rank_correlation_averages_tied_ranks():
    x, y = np.array([1.0, 2.0, 3.0, 4.0, 5.0]), np.array([1.0, 3.0, 2.0, 5.0, 4.0])
    assert rank_correlation(x, -x) == pytest.approx(-1.0)
    assert rank_correlation(x, np.exp(y)) == pytest.approx(0.8)
    # Ranks (1.5, 1.5, 3) against (1, 2, 3).
    tied = rank_correlation(np.array([1.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0]))
    assert tied == pytest.approx(math.sqrt(3) / 2)


def test_a7_path_protocol(planted_fit):
    standardized, split, _, _, _, _ = planted_fit

    grid = log_grid(20)
    assert len(grid) == 20
    # Formula-level endpoints are bitwise e**(+/-4); the libm cross-check is
    # looser only because pow and exp round the same value differently.
    assert grid[0] == math.e ** -4.0
    assert grid[-1] == math.e ** 4.0
    assert grid[0] == pytest.approx(math.exp(-4.0), rel=1e-15)
    assert grid[-1] == pytest.approx(math.exp(4.0), rel=1e-15)
    ratios = np.diff(np.log(grid))
    assert np.allclose(ratios, ratios[0], rtol=1e-9)

    path = sweep(standardized, split, PLANTED_CONFIG, grid, jobs=2)
    totals = [
        len(p.universal) + sum(len(s) for s in p.task_specific) for p in path.points
    ]
    rho = rank_correlation(np.asarray(grid), np.asarray(totals, dtype=np.float64))
    assert rho <= -0.8, f"sparsity trend Spearman {rho:.3f}"

    # A constructed 12% explained-variance drop at index 2 selects index 1.
    def point(lam: float, ev: float) -> PathPoint:
        return PathPoint(
            lam=lam,
            universal=[],
            task_specific=[[]],
            ev_train=[ev],
            nae_test=[np.array([])],
        )

    reference = 0.9
    constructed = RegularizationPath(
        task_names=["t0"],
        points=[
            point(0.1, reference),
            point(1.0, 0.95 * reference),
            point(10.0, 0.88 * reference),
            point(100.0, 0.5 * reference),
        ],
    )
    chosen = select_penalty(constructed, drop=0.10)
    assert chosen == {"index": 1, "lambda": 1.0, "warning": False}
    print(f"A7 path protocol: PASS (endpoints exact, Spearman {rho:.2f}, "
          f"cutoff index {chosen['index']})")


# ---------------------------------------------------------------------------
# A8: the degenerate configurations collapse to plain boosting.


def test_a8_degeneration_equivalences():
    # Single task: the shared-stage fit must equal plain boosting node for node.
    spec1 = SynthSpec(
        n_tasks=1,
        n_features=10,
        n_samples=150,
        universal=[0, 1],
        task_specific=[[2]],
        noise_sigma=0.2,
        nonlinearity="quadratic",
        seed=5,
    )
    dataset1, _ = generate(spec1)
    split1 = overlap_split(dataset1.tasks, seed=5)
    standardized1, _ = standardize_dataset(dataset1, split1)
    config1 = BoostConfig(
        rounds_universal=25,
        rounds_task=0,
        learning_rate=0.1,
        lambda_u=1.0,
        lambda_task=0.0,
    )
    model1 = fit(standardized1, split1, config1)
    task = standardized1.tasks[0]
    X_train = task.X[split1.train[0]]
    y_train = task.y[split1.train[0]]
    trees, _ = fit_single_task(
        X_train, y_train, 25, 0.1, lam=1.0, params=config1.tree
    )
    assert len(model1.universal_trees) == len(trees) > 0
    for mtree, tree in zip(model1.universal_trees, trees):
        assert mtree.to_dict() == tree.to_dict()

    # No universal stage: the two-stage fit must equal independent per-task
    # boosting, prediction for prediction.
    spec2 = SynthSpec(
        n_tasks=2,
        n_features=12,
        n_samples=200,
        universal=[0, 1],
        task_specific=[[2], [3]],
        noise_sigma=0.2,
        nonlinearity="quadratic",
        seed=7,
    )
    dataset2, _ = generate(spec2)
    split2 = overlap_split(dataset2.tasks, seed=7)
    standardized2, _ = standardize_dataset(dataset2, split2)
    config2 = BoostConfig(
        rounds_universal=0,
        rounds_task=40,
        learning_rate=0.1,
        lambda_u=0.0,
        lambda_task=1.0,
    )
    model2 = fit(standardized2, split2, config2)
    worst = 0.0
    for t, task in enumerate(standardized2.tasks):
        X_train = task.X[split2.train[t]]
        y_train = task.y[split2.train[t]]
        trees, used = fit_single_task(
            X_train, y_train, 40, 0.1, lam=1.0, params=config2.tree
        )
        assert len(trees) > 0
        assert model2.task_feature_indices(t) == used
        expected = np.zeros(len(task.y))
        for tree in trees:
            expected += 0.1 * tree.predict(0, task.X)
        diff = float(np.max(np.abs(model2.predict(t, task.X) - expected)))
        worst = max(worst, diff)
        assert diff <= PREDICTION_TOL
    print(f"A8 degeneration equivalences: PASS (trees identical, "
          f"prediction gap {worst:.1e})")


# ---------------------------------------------------------------------------
# A9: splitting overlapping tasks never leaks and respects the ratios.


def test_a9_overlap_split_leakage_and_ratios():
    rng = np.random.default_rng(9)
    ratios = (0.7, 0.2, 0.1)
    n_configs = 1000
    leaks = 0
    quota_violations = 0
    for i in range(n_configs):
        T = int(rng.integers(1, 5))
        pool_size = int(rng.integers(3, 61))
        pool = [f"s{j:03d}" for j in range(pool_size)]
        tasks = []
        for t in range(T):
            k = int(rng.integers(1, pool_size + 1))
            ids = [pool[j] for j in sorted(rng.choice(pool_size, size=k, replace=False))]
            tasks.append(
                TaskDataset(
                    name=f"t{t}",
                    feature_names=["a", "b"],
                    X=rng.normal(size=(len(ids), 2)),
                    y=rng.normal(size=len(ids)),
                    sample_ids=ids,
                )
            )
        split = overlap_split(tasks, ratios=ratios, seed=i)

        label: dict[str, int] = {}
        for t, task in enumerate(tasks):
            seen = np.concatenate([split.train[t], split.val[t], split.test[t]])
            assert sorted(seen) == list(range(len(task.sample_ids)))
            for part, idx in enumerate((split.train[t], split.val[t], split.test[t])):
                for sid in (task.sample_ids[j] for j in idx):
                    if sid in label and label[sid] != part:
                        leaks += 1
                    label[sid] = part

        # Every membership-signature cell must satisfy the quota rule
        # |count - n * ratio| < 1 for each partition.
        memberships: dict[str, tuple[int, ...]] = {}
        for t, task in enumerate(tasks):
            for sid in task.sample_ids:
                memberships[sid] = memberships.get(sid, ()) + (t,)
        cells: dict[tuple[int, ...], list[str]] = {}
        for sid, signature in memberships.items():
            cells.setdefault(signature, []).append(sid)
        for ids in cells.values():
            counts = [0, 0, 0]
            for sid in ids:
                counts[label[sid]] += 1
            for part, r in enumerate(ratios):
                if abs(counts[part] - len(ids) * r) >= 1.0:
                    quota_violations += 1
    assert leaks == 0
    assert quota_violations == 0
    print(f"A9 overlap-split leakage and ratios: PASS ({n_configs} configurations, "
          f"0 leaks, 0 quota violations)")
