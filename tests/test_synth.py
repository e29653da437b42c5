"""Planted-truth generator: validation, determinism, and signal definitions."""

import json

import numpy as np
import pytest

from bouts.data import load_manifest
from bouts.synth import SynthSpec, generate, write_outputs


def base_spec(**overrides):
    kwargs = dict(
        n_tasks=2,
        n_features=8,
        n_samples=50,
        universal=[0, 1],
        task_specific=[[2], [3]],
        noise_sigma=0.1,
        nonlinearity="quadratic",
        seed=0,
    )
    kwargs.update(overrides)
    return SynthSpec(**kwargs)


def reference_signal(cols, kind):
    """Row-wise loop version of the planted signal, used as the oracle."""
    n, k = cols.shape
    out = np.zeros(n)
    for i in range(n):
        x = cols[i]
        if kind == "linear":
            out[i] = x.sum()
            continue
        pairs = sum(x[a] * x[b] for a in range(k) for b in range(a + 1, k))
        if kind == "quadratic":
            out[i] = (x * x).sum() + pairs
        else:
            out[i] = pairs if k > 1 else x[0]
    return out


class TestSpecValidation:
    def test_accepts_good_spec(self):
        spec = base_spec()
        assert spec.n_samples == [50, 50]
        assert spec.output_sign == [1, 1]

    def test_per_task_sample_counts(self):
        spec = base_spec(n_samples=[10, 20])
        assert spec.n_samples == [10, 20]
        with pytest.raises(ValueError, match="n_samples"):
            base_spec(n_samples=[10])
        with pytest.raises(ValueError, match="n_samples"):
            base_spec(n_samples=0)

    def test_task_specific_shape(self):
        with pytest.raises(ValueError, match="one index set per task"):
            base_spec(task_specific=[[2]])

    def test_overlap_with_universal_rejected(self):
        with pytest.raises(ValueError, match="task 1.*overlap the universal set"):
            base_spec(task_specific=[[2], [1]])

    def test_out_of_range_indices(self):
        with pytest.raises(ValueError, match="indices must lie"):
            base_spec(universal=[0, 99])

    def test_specific_feature_in_every_task_rejected(self):
        with pytest.raises(ValueError, match="appear in every task"):
            base_spec(task_specific=[[2, 4], [3, 4]])

    def test_single_task_may_have_specific_features(self):
        spec = base_spec(n_tasks=1, n_samples=50, task_specific=[[2]], output_sign=[1])
        assert spec.task_specific == [[2]]

    def test_planted_must_leave_nuisance_room(self):
        with pytest.raises(ValueError, match="room for nuisance"):
            base_spec(n_features=4)

    def test_sign_values(self):
        spec = base_spec(output_sign=[1, -1])
        assert spec.output_sign == [1, -1]
        with pytest.raises(ValueError, match="output_sign"):
            base_spec(output_sign=[1, 0])
        with pytest.raises(ValueError, match="output_sign"):
            base_spec(output_sign=[1])

    def test_noise_rho_nonlinearity(self):
        for sigma in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="noise_sigma"):
                base_spec(noise_sigma=sigma)
        with pytest.raises(ValueError, match="correlation_rho"):
            base_spec(correlation_rho=1.0)
        with pytest.raises(ValueError, match="nonlinearity"):
            base_spec(nonlinearity="cubic")

    def test_feature_names_are_zero_padded(self):
        assert base_spec().feature_names == [f"f{j:03d}" for j in range(8)]
        wide = base_spec(n_features=1200, universal=[0, 1])
        assert wide.feature_names[0] == "f0000"
        assert wide.feature_names[-1] == "f1199"


class TestGenerate:
    def test_shapes_names_and_truth(self):
        data, truth = generate(base_spec(n_samples=[30, 40]))
        assert data.task_names == ["task0", "task1"]
        assert [len(t.y) for t in data.tasks] == [30, 40]
        assert data.candidate_features == base_spec().feature_names
        assert truth == {
            "universal": ["f000", "f001"],
            "task_specific": {"task0": ["f002"], "task1": ["f003"]},
        }
        assert data.tasks[1].sample_ids[0] == "task1-000000"

    def test_bit_exact_determinism(self):
        a, _ = generate(base_spec())
        b, _ = generate(base_spec())
        for ta, tb in zip(a.tasks, b.tasks):
            np.testing.assert_array_equal(ta.X, tb.X)
            np.testing.assert_array_equal(ta.y, tb.y)
            assert ta.sample_ids == tb.sample_ids
        c, _ = generate(base_spec(seed=1))
        assert not np.array_equal(a.tasks[0].X, c.tasks[0].X)

    @pytest.mark.parametrize("kind", ["linear", "quadratic", "interaction"])
    def test_noiseless_targets_match_signal_definition(self, kind):
        spec = base_spec(noise_sigma=0.0, nonlinearity=kind, output_sign=[1, -1])
        data, _ = generate(spec)
        planted = ([0, 1], [[2], [3]])
        for t, task in enumerate(data.tasks):
            expected = reference_signal(task.X[:, planted[0]], kind) + reference_signal(
                task.X[:, planted[1][t]], kind
            )
            expected *= spec.output_sign[t]
            np.testing.assert_allclose(task.y, expected, rtol=1e-12, atol=1e-12)

    def test_sign_flip_negates_targets(self):
        pos, _ = generate(base_spec(noise_sigma=0.0, output_sign=[1, 1]))
        neg, _ = generate(base_spec(noise_sigma=0.0, output_sign=[-1, -1]))
        for tp, tn in zip(pos.tasks, neg.tasks):
            np.testing.assert_array_equal(tp.X, tn.X)
            np.testing.assert_allclose(tn.y, -tp.y, rtol=1e-15)

    def test_interaction_single_column_falls_back_to_identity(self):
        spec = base_spec(
            noise_sigma=0.0, nonlinearity="interaction", universal=[0], task_specific=[[], []]
        )
        data, _ = generate(spec)
        np.testing.assert_allclose(data.tasks[0].y, data.tasks[0].X[:, 0], rtol=1e-15)

    def test_planted_columns_suffice_noiselessly(self):
        spec = base_spec(noise_sigma=0.0)
        data, _ = generate(spec)
        for t, task in enumerate(data.tasks):
            cols = task.X[:, [0, 1, 2 + t]]
            design = [cols[:, a] * cols[:, b] for a in range(3) for b in range(a, 3)]
            beta, *_ = np.linalg.lstsq(np.column_stack(design), task.y, rcond=None)
            resid = task.y - np.column_stack(design) @ beta
            assert float(np.abs(resid).max()) < 1e-9

    def test_equicorrelated_nuisance(self):
        spec = base_spec(
            n_samples=4000, noise_sigma=0.0, correlation_rho=0.81, nonlinearity="linear"
        )
        data, _ = generate(spec)
        X = data.tasks[0].X
        # Nuisance pairs share a latent factor with loading sqrt(rho).
        nuis = X[:, [4, 5, 6, 7]]
        corr = np.corrcoef(nuis, rowvar=False)
        off = corr[np.triu_indices(4, k=1)]
        assert np.all(np.abs(off - 0.81) < 0.05)
        np.testing.assert_allclose(nuis.var(axis=0), 1.0, atol=0.1)
        # Planted columns stay independent of the nuisance block.
        cross = np.corrcoef(X[:, [0, 1, 2, 3]].T, nuis.T)[:4, 4:]
        assert np.all(np.abs(cross) < 0.06)


class TestWriteOutputs:
    def test_round_trip_through_manifest(self, tmp_path):
        spec = base_spec(n_samples=[12, 15])
        data, truth = generate(spec)
        paths = write_outputs(data, truth, str(tmp_path / "out"))
        loaded = load_manifest(paths["manifest"])
        assert loaded.candidate_features == data.candidate_features
        for orig, got in zip(data.tasks, loaded.tasks):
            assert got.name == orig.name
            assert got.sample_ids == orig.sample_ids
            np.testing.assert_array_equal(got.X, orig.X)  # repr round-trips floats
            np.testing.assert_array_equal(got.y, orig.y)
        doc = json.loads((tmp_path / "out" / "truth.json").read_text())
        assert doc == truth

    def test_manifest_paths_are_relative(self, tmp_path):
        data, truth = generate(base_spec())
        paths = write_outputs(data, truth, str(tmp_path / "deep"))
        manifest = json.loads((tmp_path / "deep" / "manifest.json").read_text())
        assert manifest["tasks"] == {"task0": "task0.csv", "task1": "task1.csv"}
