"""Stability statistics: point estimates, variances, tests, correlations."""

import concurrent.futures
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bouts.boosting import BoostConfig
from bouts.data import MultitaskDataset, TaskDataset
from bouts.errors import DataError, NumericalError
from bouts.stability import (
    NORMALIZED,
    PAPER_FORMULA,
    SelectionMatrix,
    _average_ranks,
    cohens_d,
    make_report,
    selection_replicates,
    spearman,
    stability,
    stability_ci,
    stability_variance,
    universal_correlation_matrix,
    ztest,
)
from bouts.synth import SynthSpec, generate
from bouts.trees import TreeParams


def matrix(rows):
    Z = np.asarray(rows)
    return SelectionMatrix(Z=Z, feature_names=[f"f{j}" for j in range(Z.shape[1])])


# Hand-derived with exact rational arithmetic.
ZA = [[1, 0], [1, 0], [0, 1]]  # phi_paper 2/3, variance 2/243
ZB = [[1, 1], [1, 1], [1, 0]]  # phi_paper 5/6, variance 1/486


class TestSelectionMatrix:
    def test_validation(self):
        with pytest.raises(DataError, match="at least 2 replicates"):
            matrix([[1, 0]])
        with pytest.raises(DataError, match="0 or 1"):
            matrix([[1, 2], [0, 1]])
        with pytest.raises(DataError, match="2-dimensional"):
            SelectionMatrix(Z=np.zeros(3), feature_names=["a", "b", "c"])
        with pytest.raises(DataError, match="feature_names"):
            SelectionMatrix(Z=np.zeros((2, 3)), feature_names=["a"])

    def test_csv_round_trip(self):
        m = matrix([[1, 0, 1], [0, 0, 1]])
        clone = SelectionMatrix.from_csv(m.to_csv())
        assert clone.feature_names == m.feature_names
        np.testing.assert_array_equal(clone.Z, m.Z)

    def test_csv_errors(self):
        with pytest.raises(DataError, match="header and at least 2 rows"):
            SelectionMatrix.from_csv("a,b\n1,0\n")
        with pytest.raises(DataError, match="non-integer cell"):
            SelectionMatrix.from_csv("a,b\n1,0\n0,oops\n")


class TestStability:
    def test_identical_rows_are_fully_stable(self):
        m = matrix([[1, 0, 1]] * 3)
        assert stability(m, PAPER_FORMULA) == 1.0
        assert stability(m, NORMALIZED) == 1.0

    def test_disjoint_selections(self):
        m = matrix([[1, 0], [0, 1]])
        # Sample variance 0.5 per feature; the plain variant reads 0.5 while
        # the normalized variant bottoms out at -1 (worse than random).
        assert stability(m, PAPER_FORMULA) == pytest.approx(0.5)
        assert stability(m, NORMALIZED) == pytest.approx(-1.0)

    def test_partial_agreement_frozen_values(self):
        m = matrix([[1, 1, 0], [1, 0, 0], [1, 1, 0], [1, 0, 0]])
        assert stability(m, PAPER_FORMULA) == pytest.approx(8.0 / 9.0)
        assert stability(m, NORMALIZED) == pytest.approx(5.0 / 9.0)

    def test_normalized_undefined_for_degenerate_selections(self):
        for rows in ([[0, 0], [0, 0]], [[1, 1], [1, 1]]):
            with pytest.raises(NumericalError, match="normalized stability"):
                stability(matrix(rows), NORMALIZED)
            assert stability(matrix(rows), PAPER_FORMULA) == 1.0

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            stability(matrix(ZA), "other")

    def test_column_permutation_invariant(self):
        m = matrix([[1, 0, 0], [1, 1, 0], [0, 1, 0]])
        perm = matrix(np.asarray([[0, 0, 1], [0, 1, 1], [0, 1, 0]]))
        for variant in (PAPER_FORMULA, NORMALIZED):
            assert stability(m, variant) == pytest.approx(stability(perm, variant))

    @given(
        st.lists(
            st.lists(st.integers(0, 1), min_size=4, max_size=4),
            min_size=2,
            max_size=12,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_normalized_never_exceeds_paper_form(self, rows):
        m = matrix(rows)
        paper = stability(m, PAPER_FORMULA)
        M = m.n_replicates
        assert paper <= 1.0 + 1e-12
        assert paper >= 1.0 - 0.25 * M / (M - 1) - 1e-12
        k = m.Z.sum(axis=1)
        if 0 < k.mean() < m.n_features:
            assert stability(m, NORMALIZED) <= paper + 1e-12


class TestStabilityVariance:
    def test_identical_rows_have_zero_variance(self):
        m = matrix([[1, 0, 1]] * 4)
        assert stability_variance(m, PAPER_FORMULA) == 0.0
        assert stability_variance(m, NORMALIZED) == 0.0

    def test_frozen_value(self):
        assert stability_variance(matrix(ZA), PAPER_FORMULA) == pytest.approx(2.0 / 243.0)
        assert stability_variance(matrix(ZB), PAPER_FORMULA) == pytest.approx(1.0 / 486.0)

    def test_nonnegative_on_random_matrices(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            Z = rng.integers(0, 2, size=(rng.integers(2, 12), rng.integers(1, 6)))
            m = matrix(Z)
            assert stability_variance(m, PAPER_FORMULA) >= 0.0
            k = m.Z.sum(axis=1)
            if 0 < k.mean() < m.n_features:
                assert stability_variance(m, NORMALIZED) >= 0.0

    def test_ci_is_symmetric_normal_interval(self):
        m = matrix(ZA)
        low, high = stability_ci(m, alpha=0.05, variant=PAPER_FORMULA)
        half = 1.959963984540054 * math.sqrt(2.0 / 243.0)  # normal quantile at 0.975
        assert (low + high) / 2.0 == pytest.approx(2.0 / 3.0)
        assert high - low == pytest.approx(2.0 * half, rel=1e-15)
        narrow = stability_ci(m, alpha=0.32, variant=PAPER_FORMULA)
        assert narrow[1] - narrow[0] < high - low
        with pytest.raises(ValueError, match="alpha"):
            stability_ci(m, alpha=0.0)


class TestZtestAndEffectSize:
    def test_frozen_comparison(self):
        t, p = ztest(matrix(ZA), matrix(ZB), PAPER_FORMULA)
        assert t == pytest.approx(-1.643167672515499, rel=1e-12)
        assert p == pytest.approx(0.10034824646229065, rel=1e-9)

    def test_antisymmetric(self):
        t_ab, p_ab = ztest(matrix(ZA), matrix(ZB), PAPER_FORMULA)
        t_ba, p_ba = ztest(matrix(ZB), matrix(ZA), PAPER_FORMULA)
        assert t_ab == pytest.approx(-t_ba)
        assert p_ab == pytest.approx(p_ba)

    def test_identical_inputs_sentinel(self):
        m = matrix([[1, 0, 1]] * 3)
        assert ztest(m, m, PAPER_FORMULA) == (0.0, 1.0)

    def test_zero_variance_but_different_sentinel(self):
        stable = matrix([[1, 0]] * 2)  # phi 1, variance 0
        unstable = matrix([[1, 0], [0, 1]])  # phi 0.5, variance 0 at M=2
        t, p = ztest(stable, unstable, PAPER_FORMULA)
        assert t == math.inf and p == 0.0
        t, p = ztest(unstable, stable, PAPER_FORMULA)
        assert t == -math.inf and p == 0.0

    def test_cohens_d_is_root_two_times_t(self):
        t, _ = ztest(matrix(ZA), matrix(ZB), PAPER_FORMULA)
        assert cohens_d(matrix(ZA), matrix(ZB), PAPER_FORMULA) == pytest.approx(
            math.sqrt(2.0) * t, rel=1e-15
        )

    def test_cohens_d_needs_equal_replicates(self):
        with pytest.raises(DataError, match="replicate counts differ"):
            cohens_d(matrix(ZA), matrix([[1, 0], [0, 1]]), PAPER_FORMULA)


class TestReport:
    def test_fields_consistent(self):
        m = matrix([[1, 1, 0], [1, 0, 0]])
        report = make_report(m, alpha=0.05, variant=PAPER_FORMULA)
        assert report.phi == stability(m, PAPER_FORMULA)
        assert report.variance == stability_variance(m, PAPER_FORMULA)
        assert report.ci_low <= report.phi <= report.ci_high
        assert report.mean_features_selected == 1.5
        assert report.to_dict()["variant"] == PAPER_FORMULA


class TestSpearman:
    def test_monotone_and_reversed(self):
        assert spearman([1.0, 2.0, 3.0], [10.0, 20.0, 30.0]) == pytest.approx(1.0)
        assert spearman([1.0, 2.0, 3.0], [30.0, 20.0, 10.0]) == pytest.approx(-1.0)

    def test_frozen_value_and_rank_invariance(self):
        x = [1.0, 2.0, 3.0, 4.0, 5.0]
        y = [1.0, 3.0, 2.0, 5.0, 4.0]
        assert spearman(x, y) == pytest.approx(0.8)
        assert spearman(x, np.exp(y)) == pytest.approx(0.8)

    def test_average_ranks_on_ties(self):
        # Ranks (1.5, 1.5, 3) vs (1, 2, 3): correlation sqrt(3)/2.
        assert spearman([1.0, 1.0, 2.0], [1.0, 2.0, 3.0]) == pytest.approx(math.sqrt(3) / 2)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.sampled_from([-1.0, 0.0, 2.5]) | st.floats(allow_nan=False), min_size=1, max_size=40
        )
    )
    def test_average_ranks_match_definition(self, values):
        # Ties are drawn often: about half the elements come from a three-value pool.
        x = np.asarray(values)
        expected = [1 + np.sum(x < v) + (np.sum(x == v) - 1) / 2 for v in x]
        np.testing.assert_array_equal(_average_ranks(x), expected)

    def test_errors(self):
        with pytest.raises(NumericalError, match="constant"):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(DataError, match="equal-length"):
            spearman([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(DataError, match="length >= 2"):
            spearman([1.0], [1.0])
        with pytest.raises(DataError, match="NaN"):
            spearman([1.0, math.nan, 2.0], [1.0, 2.0, 3.0])


def make_task(name, X, names):
    X = np.asarray(X, dtype=float)
    return TaskDataset(
        name=name,
        feature_names=names,
        X=X,
        y=np.zeros(X.shape[0]),
        sample_ids=[f"{name}-{i}" for i in range(X.shape[0])],
    )


class TestUniversalCorrelationMatrix:
    def test_mean_absolute_rank_correlation(self):
        # task1 defines a, b with |rho| = 0.6; task2 has a, b with |rho| = 1
        # and c correlating sqrt(3)/2 with a.
        t1 = make_task("t1", np.column_stack([[1, 2, 3, 4], [2, 1, 4, 3]]), ["a", "b"])
        t2 = make_task(
            "t2", np.column_stack([[1, 2, 3], [3, 2, 1], [1, 2, 2]]), ["a", "b", "c"]
        )
        mat = universal_correlation_matrix([t1, t2], ["a", "b", "c", "ghost"])
        assert mat.shape == (4, 4)
        np.testing.assert_allclose(np.diag(mat), 1.0)
        assert mat[0, 1] == pytest.approx((0.6 + 1.0) / 2.0)
        assert mat[0, 2] == pytest.approx(math.sqrt(3) / 2)
        assert mat[1, 2] == pytest.approx(math.sqrt(3) / 2)  # b vs c, task2 only
        assert np.isnan(mat[0, 3]) and np.isnan(mat[3, 1])
        np.testing.assert_allclose(mat, mat.T, equal_nan=True)

    def test_constant_columns_do_not_count(self):
        t1 = make_task("t1", np.column_stack([[1, 2, 3], [5, 5, 5]]), ["a", "b"])
        mat = universal_correlation_matrix([t1], ["a", "b"])
        assert np.isnan(mat[0, 1])


def bit_design(n_features, reps):
    rows = 1 << n_features
    idx = np.arange(rows * reps) % rows
    return np.column_stack([(idx >> j) & 1 for j in range(n_features)]).astype(float)


def replicate_dataset():
    rng = np.random.default_rng(33)
    X = bit_design(4, reps=8) + 0.01 * rng.normal(size=(128, 4))
    names = [f"f{j}" for j in range(4)]
    tasks = []
    for t in range(2):
        y = 2.0 * X[:, 0] + 1.0 * X[:, 1 + t] + 0.05 * rng.normal(size=128)
        tasks.append(
            TaskDataset(
                name=f"task{t}",
                feature_names=names,
                X=X,
                y=y - y.mean(),
                sample_ids=[f"task{t}-{i}" for i in range(128)],
            )
        )
    return MultitaskDataset(tasks=tasks, candidate_features=names)


class TestSelectionReplicates:
    def config(self):
        return BoostConfig(
            rounds_universal=10,
            rounds_task=10,
            learning_rate=0.3,
            lambda_u=10.0,
            lambda_task=10.0,
            tree=TreeParams(max_depth=2, min_samples_leaf=2, min_gain=1e-7),
        )

    def test_shapes_and_determinism(self):
        data = replicate_dataset()
        uni, per_task = selection_replicates(data, self.config(), replicates=3, seed=7)
        assert uni.Z.shape == (3, 4)
        assert len(per_task) == 2 and all(m.Z.shape == (3, 4) for m in per_task)
        uni2, per_task2 = selection_replicates(data, self.config(), replicates=3, seed=7)
        np.testing.assert_array_equal(uni.Z, uni2.Z)
        for a, b in zip(per_task, per_task2):
            np.testing.assert_array_equal(a.Z, b.Z)

    def test_strong_shared_signal_is_always_selected(self):
        data = replicate_dataset()
        uni, per_task = selection_replicates(data, self.config(), replicates=4, seed=1)
        assert uni.Z[:, 0].all()
        for t, m in enumerate(per_task):
            assert m.Z[:, 0].all()
            assert m.Z[:, 1 + t].all()

    def test_validation(self):
        data = replicate_dataset()
        with pytest.raises(ValueError, match="at least 2 replicates"):
            selection_replicates(data, self.config(), replicates=1)
        with pytest.raises(ValueError, match="1 job, got 3 and 0"):
            selection_replicates(data, self.config(), replicates=3, jobs=0)
        bad = BoostConfig(rounds_universal=0, rounds_task=5)
        with pytest.raises(ValueError, match="stage budgets"):
            selection_replicates(data, bad, replicates=2)

    @pytest.mark.parametrize("jobs,workers", [(2, 2), (3, 3), (64, 3)])
    def test_pool_has_at_most_one_worker_per_replicate(self, jobs, workers, monkeypatch):
        started = []

        class SerialPool:
            """Records the pool size and runs the replicates here; starts no process."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        data = replicate_dataset()
        uni, _ = selection_replicates(data, self.config(), replicates=3, seed=7, jobs=jobs)
        assert started == [workers]
        assert uni.n_replicates == 3

    def test_jobs_do_not_change_results(self):
        spec = SynthSpec(
            n_tasks=2, n_features=6, n_samples=60, universal=[0], task_specific=[[1], [2]],
            seed=3,
        )
        data, _ = generate(spec)
        config = BoostConfig(rounds_universal=3, rounds_task=3, lambda_u=0.5, lambda_task=0.5)
        serial = selection_replicates(data, config, replicates=3, seed=5, jobs=1)
        pooled = selection_replicates(data, config, replicates=3, seed=5, jobs=2)
        # The replicates select different sets, so a reordering would show too.
        assert len({row.tobytes() for row in serial[0].Z}) > 1
        np.testing.assert_array_equal(serial[0].Z, pooled[0].Z)
        assert len(serial[1]) == len(pooled[1]) == 2
        for a, b in zip(serial[1], pooled[1]):
            np.testing.assert_array_equal(a.Z, b.Z)
