"""End-to-end checks of the command-line surface.

Each subcommand is driven through ``cli.main`` in process, the emitted
artifacts are validated against the shipped JSON schemas, and the exit-code
contract (0 ok, 2 usage, 3 data, 4 numerical) is pinned with concrete
failure cases.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bouts import boosting, cli, pathsweep
from bouts.boosting import BoutsModel
from bouts.data import Standardizer, load_manifest, load_task_csv, overlap_split
from bouts.errors import NumericalError
from bouts.multitask import MultitaskTree
from bouts.schemas import load_schema
from bouts.stability import selection_replicates as replicates

# A model.json (2 tasks, 3 rounds of each stage), the task CSVs it scores and
# the `bouts predict` output for each, written before single-task trees
# became T=1 multitask trees; it pins the on-disk format across that change.
DATA_DIR = os.path.join(os.path.dirname(__file__), "data")
# A synth set and the split.json that `bouts fit` writes for it, written
# before the artifact JSON encoders were merged into `data.write_json`.
PINNED_DIR = os.path.join(DATA_DIR, "synth_2x6x40")
PINNED_SYNTH_ARGS = (
    "--tasks", "2", "--features", "6", "--samples", "40",
    "--n-universal", "1", "--n-specific", "1", "--seed", "0",
)
# `bouts fit`'s model.json and selected_features.json for two runs on that set,
# written before the split search read one prepared node type.  "integer" fits
# a copy whose feature cells are rounded to integers (see `integer_copy`), so
# most boundaries are ties and the window-edge thresholds are reached.
PINNED_FIT_DIR = os.path.join(DATA_DIR, "fit_pinned")
PINNED_FIT_RUNS = {
    "planted": ("--rounds-universal", "10", "--rounds-task", "10", "--lambda", "0.1"),
    "integer": (
        "--rounds-universal", "20", "--rounds-task", "20",
        "--criterion", "variance", "--min-samples-leaf", "1",
    ),
}

# `bouts path`'s path.json and selected_lambda.json on that set, written before
# predictions were routed one boolean pass per node over feature-major columns.
PINNED_PATH_DIR = os.path.join(DATA_DIR, "path_pinned")
PINNED_PATH_ARGS = (
    "--grid-points", "3", "--rounds-universal", "3", "--rounds-task", "3", "--jobs", "1",
)


def run(*args: str) -> int:
    return cli.main(list(args))


def exit_code(*args: str) -> int:
    """``run``'s exit code, also when argparse rejects the arguments."""
    try:
        return run(*args)
    except SystemExit as e:
        return e.code


def read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def validate(path: str, schema_name: str) -> dict:
    obj = read_json(path)
    jsonschema.validate(instance=obj, schema=load_schema(schema_name))
    return obj


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


SYNTH_ARGS = (
    "--tasks", "2",
    "--features", "8",
    "--samples", "60",
    "--n-universal", "2",
    "--n-specific", "1",
    "--noise", "0.1",
    "--seed", "0",
)
FIT_ARGS = (
    "--rounds-universal", "15",
    "--rounds-task", "15",
    "--lambda", "1.0",
    "--seed", "0",
)


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory) -> str:
    out = str(tmp_path_factory.mktemp("synth"))
    assert run("synth", "--out", out, *SYNTH_ARGS) == cli.EXIT_OK
    return out


@pytest.fixture(scope="module")
def fit_dir(synth_dir, tmp_path_factory) -> str:
    out = str(tmp_path_factory.mktemp("fit"))
    code = run(
        "fit", "--manifest", os.path.join(synth_dir, "manifest.json"),
        "--out", out, *FIT_ARGS,
    )
    assert code == cli.EXIT_OK
    return out


def integer_copy(src: str, dst: str) -> str:
    """Copy the manifest set in ``src`` to ``dst`` with every feature cell rounded
    to an integer; returns the copy's manifest path."""
    os.makedirs(dst)
    manifest = os.path.join(src, "manifest.json")
    shutil.copy(manifest, dst)
    for name in read_json(manifest)["tasks"].values():
        with open(os.path.join(src, name), newline="") as fh:
            header, *rows = csv.reader(fh)
        rows = [[row[0], *(str(round(float(x))) for x in row[1:-1]), row[-1]] for row in rows]
        with open(os.path.join(dst, name), "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows([header, *rows])
    return os.path.join(dst, "manifest.json")


def test_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = "import sys, bouts, bouts.cli; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "False"


class TestSynthCommand:
    def test_writes_csvs_manifest_and_truth(self, synth_dir):
        for name in ("task0.csv", "task1.csv", "manifest.json", "truth.json"):
            assert os.path.exists(os.path.join(synth_dir, name))
        manifest = validate(os.path.join(synth_dir, "manifest.json"), "manifest")
        assert set(manifest["tasks"]) == {"task0", "task1"}
        truth = validate(os.path.join(synth_dir, "truth.json"), "truth")
        assert truth["universal"] == ["f000", "f001"]
        assert truth["task_specific"] == {"task0": ["f002"], "task1": ["f003"]}

    def test_rerun_is_byte_identical(self, synth_dir, tmp_path):
        again = str(tmp_path / "again")
        assert run("synth", "--out", again, *SYNTH_ARGS) == cli.EXIT_OK
        for name in ("task0.csv", "task1.csv", "manifest.json", "truth.json"):
            assert read_bytes(os.path.join(again, name)) == read_bytes(
                os.path.join(synth_dir, name)
            ), name

    def test_explicit_index_and_sign_flags(self, tmp_path):
        out = str(tmp_path / "explicit")
        code = run(
            "synth", "--out", out,
            "--tasks", "2", "--features", "6", "--samples", "30",
            "--universal", "0,2", "--specific", "3;4", "--signs", "1,-1",
            "--seed", "3",
        )
        assert code == cli.EXIT_OK
        truth = read_json(os.path.join(out, "truth.json"))
        assert truth["universal"] == ["f000", "f002"]
        assert truth["task_specific"] == {"task0": ["f003"], "task1": ["f004"]}


class TestFitCommand:
    def test_writes_schema_valid_artifacts(self, fit_dir):
        bundle = validate(os.path.join(fit_dir, "model.json"), "model")
        assert set(bundle["standardizers"]) == {"task0", "task1"}
        selected = validate(
            os.path.join(fit_dir, "selected_features.json"), "selected_features"
        )
        assert set(selected["task_specific"]) == {"task0", "task1"}
        validate(os.path.join(fit_dir, "importances.json"), "importances")
        split = validate(os.path.join(fit_dir, "split.json"), "split")
        assert split["seed"] == 0

    def test_recovers_planted_features(self, fit_dir):
        selected = read_json(os.path.join(fit_dir, "selected_features.json"))
        assert "f000" in selected["universal"]
        assert "f001" in selected["universal"]

    def test_metrics_csv_shape(self, fit_dir):
        with open(os.path.join(fit_dir, "metrics.csv")) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["task", "n_test", "nae_median", "nae_q25", "nae_q75"]
        assert [row[0] for row in rows[1:]] == ["task0", "task1"]
        for row in rows[1:]:
            assert int(row[1]) > 0
            assert math.isfinite(float(row[2]))

    def test_rerun_is_byte_identical(self, synth_dir, fit_dir, tmp_path):
        again = str(tmp_path / "again")
        code = run(
            "fit", "--manifest", os.path.join(synth_dir, "manifest.json"),
            "--out", again, *FIT_ARGS,
        )
        assert code == cli.EXIT_OK
        names = (
            "model.json", "selected_features.json", "importances.json",
            "split.json", "metrics.csv",
        )
        for name in names:
            assert read_bytes(os.path.join(again, name)) == read_bytes(
                os.path.join(fit_dir, name)
            ), name

    def test_synth_and_fit_reproduce_pinned_files(self, tmp_path):
        data, out = str(tmp_path / "data"), str(tmp_path / "fit")
        assert run("synth", "--out", data, *PINNED_SYNTH_ARGS) == cli.EXIT_OK
        code = run(
            "fit", "--manifest", os.path.join(data, "manifest.json"), "--out", out,
            "--rounds-universal", "2", "--rounds-task", "2",
        )
        assert code == cli.EXIT_OK
        written = {name: os.path.join(data, name) for name in os.listdir(data)}
        written["split.json"] = os.path.join(out, "split.json")
        assert sorted(written) == sorted(os.listdir(PINNED_DIR))
        for name, path in written.items():
            assert read_bytes(path) == read_bytes(os.path.join(PINNED_DIR, name)), name

    @pytest.mark.parametrize("run_name", sorted(PINNED_FIT_RUNS))
    def test_fit_reproduces_pinned_artifacts(self, run_name, tmp_path):
        manifest = os.path.join(PINNED_DIR, "manifest.json")
        if run_name == "integer":
            manifest = integer_copy(PINNED_DIR, str(tmp_path / "integer"))
        out = str(tmp_path / "fit")
        code = run("fit", "--manifest", manifest, "--out", out, *PINNED_FIT_RUNS[run_name])
        assert code == cli.EXIT_OK
        for name in ("model.json", "selected_features.json"):
            want = os.path.join(PINNED_FIT_DIR, run_name, name)
            assert read_bytes(os.path.join(out, name)) == read_bytes(want), name

    def test_path_reproduces_pinned_artifacts(self, tmp_path):
        out = str(tmp_path / "path")
        manifest = os.path.join(PINNED_DIR, "manifest.json")
        assert run("path", "--manifest", manifest, "--out", out, *PINNED_PATH_ARGS) == cli.EXIT_OK
        for name in ("path.json", "selected_lambda.json"):
            want = os.path.join(PINNED_PATH_DIR, name)
            assert read_bytes(os.path.join(out, name)) == read_bytes(want), name

    def test_zero_universal_rounds_selects_no_universal(self, synth_dir, tmp_path):
        out = str(tmp_path / "nouniv")
        code = run(
            "fit", "--manifest", os.path.join(synth_dir, "manifest.json"),
            "--out", out,
            "--rounds-universal", "0", "--rounds-task", "10",
            "--lambda", "1.0", "--seed", "0",
        )
        assert code == cli.EXIT_OK
        selected = read_json(os.path.join(out, "selected_features.json"))
        assert selected["universal"] == []
        assert any(selected["task_specific"].values())

    def test_config_file_merges_under_flags(self, synth_dir, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps({"rounds_universal": 0, "rounds_task": 5, "lam": 1.0})
        )
        out = str(tmp_path / "cfgfit")
        code = run(
            "fit", "--manifest", os.path.join(synth_dir, "manifest.json"),
            "--out", out, "--config", str(cfg_path), "--rounds-task", "6",
        )
        assert code == cli.EXIT_OK
        config = read_json(os.path.join(out, "model.json"))["model"]["config"]
        assert config["rounds_universal"] == 0
        # Explicit flag wins over the config file.
        assert config["rounds_task"] == 6
        assert config["lambda_u"] == 1.0

    def test_config_penalties_win_over_shared_lambda(self, synth_dir, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"lambda_u": 2, "lambda_task": [0.5, 0.25]}))
        out = str(tmp_path / "penalties")
        code = run(
            "fit", "--manifest", os.path.join(synth_dir, "manifest.json"), "--out", out,
            "--config", str(cfg_path), "--lambda", "1.0",
            "--rounds-universal", "1", "--rounds-task", "1",
        )
        assert code == cli.EXIT_OK
        config = read_json(os.path.join(out, "model.json"))["model"]["config"]
        assert config["lambda_u"] == 2.0
        assert config["lambda_task"] == [0.5, 0.25]


class TestPredictCommand:
    def test_matches_library_predictions(self, synth_dir, fit_dir, tmp_path):
        pred_path = str(tmp_path / "pred.csv")
        code = run(
            "predict", "--model", os.path.join(fit_dir, "model.json"),
            "--data", os.path.join(synth_dir, "task0.csv"),
            "--task", "task0", "--out", pred_path,
        )
        assert code == cli.EXIT_OK

        with open(pred_path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["sample_id", "y_true", "y_pred"]

        bundle = read_json(os.path.join(fit_dir, "model.json"))
        model = BoutsModel.from_dict(bundle["model"])
        st = Standardizer.from_dict(bundle["standardizers"]["task0"])
        task = load_task_csv(os.path.join(synth_dir, "task0.csv"), "task0")
        cols = [task.feature_names.index(f) for f in model.feature_names]
        expected = st.inverse_y(model.predict(0, st.transform_X(task.X[:, cols])))

        assert [row[0] for row in rows[1:]] == task.sample_ids
        got = np.array([float(row[2]) for row in rows[1:]])
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-9)
        y_true = np.array([float(row[1]) for row in rows[1:]])
        np.testing.assert_array_equal(y_true, task.y)

    def test_task_flag_required_for_multitask_model(
        self, synth_dir, fit_dir, tmp_path, capsys
    ):
        code = run(
            "predict", "--model", os.path.join(fit_dir, "model.json"),
            "--data", os.path.join(synth_dir, "task0.csv"),
            "--out", str(tmp_path / "pred.csv"),
        )
        assert code == cli.EXIT_DATA
        assert "--task required" in capsys.readouterr().err

    def test_unknown_task_exits_data(self, synth_dir, fit_dir, tmp_path, capsys):
        code = run(
            "predict", "--model", os.path.join(fit_dir, "model.json"),
            "--data", os.path.join(synth_dir, "task0.csv"),
            "--task", "nope", "--out", str(tmp_path / "pred.csv"),
        )
        assert code == cli.EXIT_DATA
        assert "unknown task" in capsys.readouterr().err

    def test_missing_feature_column_exits_data(
        self, synth_dir, fit_dir, tmp_path, capsys
    ):
        with open(os.path.join(synth_dir, "task0.csv")) as fh:
            rows = list(csv.reader(fh))
        drop = rows[0].index("f002")
        trimmed = tmp_path / "trimmed.csv"
        with open(trimmed, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            for row in rows:
                writer.writerow(row[:drop] + row[drop + 1:])
        code = run(
            "predict", "--model", os.path.join(fit_dir, "model.json"),
            "--data", str(trimmed),
            "--task", "task0", "--out", str(tmp_path / "pred.csv"),
        )
        assert code == cli.EXIT_DATA
        assert f"{trimmed}: lacks feature column 'f002'" in capsys.readouterr().err

    def _predict_with_cell(self, fit_dir, synth_dir, tmp_path, used: bool, text: str = ""):
        """Set row 5's cell in a feature task 0's trees do (or do not) split on to ``text``."""
        model = BoutsModel.from_dict(read_json(os.path.join(fit_dir, "model.json"))["model"])
        uses = model.universal_feature_indices | model.task_feature_indices(0)
        column = next(f for j, f in enumerate(model.feature_names) if (j in uses) == used)
        with open(os.path.join(synth_dir, "task0.csv")) as fh:
            rows = list(csv.reader(fh))
        rows[5][rows[0].index(column)] = text
        data = tmp_path / "edited.csv"
        with open(data, "w", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        code = run(
            "predict", "--model", os.path.join(fit_dir, "model.json"), "--data", str(data),
            "--task", "task0", "--out", str(tmp_path / "pred.csv"),
        )
        return code, data, rows[5][0], column

    def _clean_prediction(self, fit_dir, synth_dir, tmp_path) -> bytes:
        full = str(tmp_path / "full.csv")
        code = run(
            "predict", "--model", os.path.join(fit_dir, "model.json"),
            "--data", os.path.join(synth_dir, "task0.csv"), "--task", "task0", "--out", full,
        )
        assert code == cli.EXIT_OK
        return read_bytes(full)

    def test_missing_cell_in_used_feature_exits_data(
        self, synth_dir, fit_dir, tmp_path, capsys
    ):
        code, data, sid, column = self._predict_with_cell(
            fit_dir, synth_dir, tmp_path, used=True
        )
        err = capsys.readouterr().err
        assert code == cli.EXIT_DATA
        assert f"{data}: sample {sid!r}, column {column!r}: missing value" in err

    def test_missing_cell_in_unused_feature_still_predicts(self, synth_dir, fit_dir, tmp_path):
        code, _, _, _ = self._predict_with_cell(fit_dir, synth_dir, tmp_path, used=False)
        assert code == cli.EXIT_OK
        clean = self._clean_prediction(fit_dir, synth_dir, tmp_path)
        assert read_bytes(str(tmp_path / "pred.csv")) == clean

    @pytest.mark.parametrize("text", ["abc", "inf", "-Infinity", "1_0"])
    def test_bad_cell_in_unused_feature_is_not_parsed(self, text, synth_dir, fit_dir, tmp_path):
        code, _, _, _ = self._predict_with_cell(fit_dir, synth_dir, tmp_path, False, text)
        assert code == cli.EXIT_OK
        clean = self._clean_prediction(fit_dir, synth_dir, tmp_path)
        assert read_bytes(str(tmp_path / "pred.csv")) == clean

    @pytest.mark.parametrize("text", ["abc", "inf"])
    def test_bad_cell_in_used_feature_exits_data(self, text, synth_dir, fit_dir, tmp_path, capsys):
        code, data, _, column = self._predict_with_cell(fit_dir, synth_dir, tmp_path, True, text)
        err = capsys.readouterr().err
        assert code == cli.EXIT_DATA
        if text == "inf":
            assert f"error: {data}: row 6, column {column!r}: infinite value\n" == err
        else:
            number = int(column[1:]) + 2  # synth's feature j is f{j:03d}, after the id
            assert f"error: {data}: row 6, column {number}: cannot parse 'abc' as a number\n" == err


def _cyclic_root(model: dict) -> None:
    root = model["universal_trees"][0]["nodes"][0]
    assert "feature" in root
    root["left"] = root["right"] = 0


def _first_internal(trees: list) -> dict:
    return next(n for tree in trees for n in tree["nodes"] if "feature" in n)


def _set_first(values: list, value) -> None:
    values[0] = value


# Each case damages a valid bundle in one way that must not reach routing.
MANGLED_MODELS = {
    "not_json": lambda bundle: "{this is not json",
    "missing_config": lambda bundle: bundle["model"].pop("config"),
    "feature_out_of_range": lambda bundle: _first_internal(
        bundle["model"]["universal_trees"]
    ).update(feature=len(bundle["model"]["feature_names"])),
    "task_tree_feature_out_of_range": lambda bundle: _first_internal(
        bundle["model"]["task_trees"][0]
    ).update(feature=99),
    "cyclic_root": lambda bundle: _cyclic_root(bundle["model"]),
    "child_past_end": lambda bundle: _first_internal(
        bundle["model"]["universal_trees"]
    ).update(right=10_000),
    "thresholds_length": lambda bundle: _first_internal(
        bundle["model"]["universal_trees"]
    ).update(thresholds=[0.0]),
    "values_length": lambda bundle: bundle["model"]["universal_trees"][0]["nodes"][-1].update(
        values=[0.0, 0.0, 0.0]
    ),
    "f0_length": lambda bundle: bundle["model"]["f0"].pop(),
    "tree_not_object": lambda bundle: bundle["model"]["task_trees"][1].append([]),
    "missing_standardizer": lambda bundle: bundle["standardizers"].pop("task0"),
    # The last node of a tree is always a leaf.
    "leaf_value_nan": lambda bundle: _set_first(
        bundle["model"]["universal_trees"][0]["nodes"][-1]["values"], math.nan
    ),
    "task_tree_threshold_inf": lambda bundle: _first_internal(
        bundle["model"]["task_trees"][0]
    ).update(threshold=math.inf),
    "f0_inf": lambda bundle: _set_first(bundle["model"]["f0"], math.inf),
    "standardizer_y_mean_nan": lambda bundle: bundle["standardizers"]["task0"].update(
        y_mean=math.nan
    ),
    "standardizer_x_std_zero": lambda bundle: bundle["standardizers"]["task1"].update(
        x_std=[0.0] * len(bundle["standardizers"]["task1"]["x_std"])
    ),
}


class TestModelFile:
    def test_legacy_fixture_predicts_and_reserializes_identically(self, tmp_path):
        model_path = os.path.join(DATA_DIR, "model.json")
        for task in ("task0", "task1"):
            out = str(tmp_path / f"{task}.csv")
            code = run(
                "predict", "--model", model_path,
                "--data", os.path.join(DATA_DIR, f"{task}.csv"),
                "--task", task, "--out", out,
            )
            assert code == cli.EXIT_OK
            assert read_bytes(out) == read_bytes(os.path.join(DATA_DIR, f"predict_{task}.csv"))
        bundle = read_json(model_path)
        bundle["model"] = BoutsModel.from_dict(bundle["model"]).to_dict()
        again = json.dumps(bundle, indent=2, sort_keys=True) + "\n"
        assert again.encode() == read_bytes(model_path)

    @staticmethod
    def predict_without_routing(model_path, synth_dir, tmp_path, monkeypatch) -> int:
        """``bouts predict`` with ``MultitaskTree.route``, the only router, disabled."""

        def no_routing(*args, **kwargs):
            raise AssertionError("a malformed model reached prediction")

        monkeypatch.setattr(MultitaskTree, "route", no_routing)
        return run(
            "predict", "--model", str(model_path),
            "--data", os.path.join(synth_dir, "task0.csv"),
            "--task", "task0", "--out", str(tmp_path / "pred.csv"),
        )

    def test_an_intact_model_reaches_the_disabled_router(
        self, synth_dir, fit_dir, tmp_path, monkeypatch
    ):
        # The guard below is live: a model that passes every check is routed.
        model_path = os.path.join(fit_dir, "model.json")
        with pytest.raises(AssertionError, match="reached prediction"):
            self.predict_without_routing(model_path, synth_dir, tmp_path, monkeypatch)

    @pytest.mark.parametrize("case", sorted(MANGLED_MODELS))
    def test_mangled_model_exits_data(
        self, case, synth_dir, fit_dir, tmp_path, capsys, monkeypatch
    ):
        bundle = read_json(os.path.join(fit_dir, "model.json"))
        replaced = MANGLED_MODELS[case](bundle)
        bad = tmp_path / "model.json"
        bad.write_text(replaced if isinstance(replaced, str) else json.dumps(bundle))
        code = self.predict_without_routing(bad, synth_dir, tmp_path, monkeypatch)
        err = capsys.readouterr().err
        assert code == cli.EXIT_DATA
        assert str(bad) in err
        assert "Traceback" not in err

    def test_non_finite_standardizer_number_names_its_task(
        self, synth_dir, fit_dir, tmp_path, capsys
    ):
        bundle = read_json(os.path.join(fit_dir, "model.json"))
        bundle["standardizers"]["task0"]["x_mean"][2] = 10**400
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(bundle))
        code = run(
            "predict", "--model", str(bad), "--data", os.path.join(synth_dir, "task0.csv"),
            "--task", "task0", "--out", str(tmp_path / "pred.csv"),
        )
        err = capsys.readouterr().err
        assert code == cli.EXIT_DATA
        assert (f"{bad}: invalid model file: standardizer of task 'task0': "
                "x_mean holds a non-finite number") in err
        assert not (tmp_path / "pred.csv").exists()

    @pytest.mark.parametrize(
        "defect,problem",
        [("missing x_std", "missing key 'x_std'"), ("a list", "list indices must be integers")],
    )
    def test_malformed_standardizer_names_its_task(
        self, defect, problem, synth_dir, fit_dir, tmp_path, capsys
    ):
        bundle = read_json(os.path.join(fit_dir, "model.json"))
        if defect == "a list":
            bundle["standardizers"]["task1"] = []
        else:
            del bundle["standardizers"]["task1"]["x_std"]
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(bundle))
        code = run(
            "predict", "--model", str(bad), "--data", os.path.join(synth_dir, "task1.csv"),
            "--task", "task1", "--out", str(tmp_path / "pred.csv"),
        )
        err = capsys.readouterr().err
        assert code == cli.EXIT_DATA
        assert f"{bad}: invalid model file: standardizer of task 'task1': {problem}" in err
        assert not (tmp_path / "pred.csv").exists()

    def test_boolean_task_count_of_a_one_task_model_exits_data(self, tmp_path, capsys):
        # True == 1, so only a type check tells this from the one task it covers.
        data, out = str(tmp_path / "data"), str(tmp_path / "fit")
        synth = (
            "--tasks", "1", "--features", "4", "--samples", "40",
            "--n-universal", "1", "--n-specific", "1", "--seed", "0",
        )
        assert run("synth", "--out", data, *synth) == cli.EXIT_OK
        manifest = os.path.join(data, "manifest.json")
        code = run("fit", "--manifest", manifest, "--out", out, *FIT_ARGS)
        assert code == cli.EXIT_OK
        bundle = read_json(os.path.join(out, "model.json"))
        assert bundle["model"]["universal_trees"]
        for tree in bundle["model"]["universal_trees"]:
            assert tree["n_tasks"] == 1
            tree["n_tasks"] = True
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps(bundle))
        code = run(
            "predict", "--model", str(bad), "--data", os.path.join(data, "task0.csv"),
            "--task", "task0", "--out", str(tmp_path / "pred.csv"),
        )
        err = capsys.readouterr().err
        assert code == cli.EXIT_DATA
        assert str(bad) in err
        assert "Traceback" not in err


class TestPathCommand:
    def test_writes_schema_valid_artifacts(self, synth_dir, tmp_path, monkeypatch):
        monkeypatch.setattr(pathsweep, "DOWNSTREAM_ROUNDS", (10, 30))
        out = str(tmp_path / "path")
        code = run(
            "path", "--manifest", os.path.join(synth_dir, "manifest.json"),
            "--out", out,
            "--grid-points", "2",
            "--rounds-universal", "10", "--rounds-task", "10", "--seed", "0",
        )
        assert code == cli.EXIT_OK

        path = validate(os.path.join(out, "path.json"), "path")
        assert path["task_names"] == ["task0", "task1"]
        lams = [point["lambda"] for point in path["points"]]
        assert lams == [pytest.approx(math.exp(-4)), pytest.approx(math.exp(4))]

        chosen = validate(os.path.join(out, "selected_lambda.json"), "selected_lambda")
        assert 0 <= chosen["index"] < len(lams)
        assert chosen["lambda"] == pytest.approx(lams[chosen["index"]])

        with open(os.path.join(out, "path.csv")) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "lambda", "task", "n_universal", "n_task_specific",
            "ev_train", "median_nae_test",
        ]
        # One row per (grid point, task).
        assert len(rows) == 1 + 2 * 2

        with open(os.path.join(out, "features_by_lambda.csv")) as fh:
            feature_rows = list(csv.reader(fh))
        assert feature_rows[0] == ["lambda", "feature", "role"]
        roles = {row[2] for row in feature_rows[1:]}
        assert roles <= {"universal", "task0", "task1"}
        # At e^-4 nearly everything clears the penalty; at e^4 nothing does.
        assert len(feature_rows) > 1

    def test_jobs_do_not_change_the_artifacts(self, synth_dir, tmp_path, monkeypatch):
        monkeypatch.setattr(pathsweep, "DOWNSTREAM_ROUNDS", (10, 30))
        args = (
            "--manifest", os.path.join(synth_dir, "manifest.json"), "--grid-points", "3",
            "--rounds-universal", "5", "--rounds-task", "5", "--seed", "0",
        )
        outs = {jobs: str(tmp_path / f"jobs{jobs}") for jobs in ("1", "2")}
        for jobs, out in outs.items():
            assert run("path", *args, "--out", out, "--jobs", jobs) == cli.EXIT_OK
        points = read_json(os.path.join(outs["1"], "path.json"))["points"]
        # The points select different sets, so a reordering would show too.
        assert len({json.dumps([p["universal"], p["task_specific"]]) for p in points}) == 3
        names = ("path.json", "path.csv", "selected_lambda.json", "features_by_lambda.csv")
        assert sorted(os.listdir(outs["1"])) == sorted(names)
        for name in names:
            assert read_bytes(os.path.join(outs["1"], name)) == read_bytes(
                os.path.join(outs["2"], name)
            ), name


class TestStabilityCommand:
    def test_writes_schema_valid_report_and_matrices(self, synth_dir, tmp_path):
        out = str(tmp_path / "stab")
        code = run(
            "stability", "--manifest", os.path.join(synth_dir, "manifest.json"),
            "--out", out,
            "--replicates", "5",
            "--rounds-universal", "5", "--rounds-task", "5",
            "--lambda", "1.0", "--seed", "0",
        )
        assert code == cli.EXIT_OK

        report = validate(os.path.join(out, "stability_report.json"), "stability_report")
        assert report["replicates"] == 5
        assert report["variant"] == "normalized"
        assert set(report["tasks"]) == {"task0", "task1"}
        assert set(report["comparisons"]) == {"task0", "task1"}

        for name in ("Z_universal.csv", "Z_task0.csv", "Z_task1.csv"):
            with open(os.path.join(out, name)) as fh:
                rows = list(csv.reader(fh))
            assert len(rows) == 1 + 5, name
            assert rows[0][0] == "f000"
            body = {cell for row in rows[1:] for cell in row}
            assert body <= {"0", "1"}, name

    def test_variant_flag_is_recorded(self, synth_dir, tmp_path):
        out = str(tmp_path / "stabpf")
        code = run(
            "stability", "--manifest", os.path.join(synth_dir, "manifest.json"),
            "--out", out,
            "--replicates", "3",
            "--rounds-universal", "3", "--rounds-task", "3",
            "--lambda", "1.0", "--seed", "1",
            "--stability-variant", "paper_formula",
        )
        assert code == cli.EXIT_OK
        report = read_json(os.path.join(out, "stability_report.json"))
        assert report["variant"] == "paper_formula"
        assert report["universal"]["variant"] == "paper_formula"


class TestNamesThatNeedQuoting:
    """Task and feature names holding a comma, a quote or a line break survive every CSV."""

    TASKS = ("sol,aq", "plain")
    FEATURES = ("x,1", 'say "hi"', "line\nbreak", "x4", "x5", "x6", "x7")

    def test_every_csv_reads_back_at_the_header_width(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pathsweep, "DOWNSTREAM_ROUNDS", (5, 10))
        rng = np.random.default_rng(31)
        manifest = {"tasks": {}}
        for t, name in enumerate(self.TASKS):
            X = rng.normal(size=(60, len(self.FEATURES)))
            y = X[:, 0] + X[:, 1] ** 2 - X[:, 2] + X[:, 3 + t] + 0.5 * rng.normal(size=60)
            with open(tmp_path / f"task{t}.csv", "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(["id", *self.FEATURES, "target"])
                writer.writerows([f"s{i}", *x, v] for i, (x, v) in enumerate(zip(X.tolist(), y)))
            manifest["tasks"][name] = f"task{t}.csv"
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        common = ("--manifest", str(tmp_path / "manifest.json"),
                  "--rounds-universal", "5", "--rounds-task", "5")
        out = tmp_path / "out"
        assert run("fit", *common, "--out", str(out / "fit"), "--lambda", "0.01") == cli.EXIT_OK
        assert run("path", *common, "--out", str(out / "path"), "--grid-points", "2") == cli.EXIT_OK
        code = run("stability", *common, "--out", str(out / "stab"), "--replicates", "2",
                   "--lambda", "0.5")
        assert code == cli.EXIT_OK
        code = run("predict", "--model", str(out / "fit" / "model.json"), "--task", "sol,aq",
                   "--data", str(tmp_path / "task0.csv"), "--out", str(out / "pred.csv"))
        assert code == cli.EXIT_OK

        def rows_of(path) -> list[list[str]]:
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            assert all(len(row) == len(rows[0]) for row in rows), path
            return rows[1:]

        assert {row[0] for row in rows_of(out / "fit" / "metrics.csv")} == set(self.TASKS)
        assert {row[1] for row in rows_of(out / "path" / "path.csv")} == set(self.TASKS)
        by_lambda = rows_of(out / "path" / "features_by_lambda.csv")
        assert {row[1] for row in by_lambda} >= set(self.FEATURES[:3])
        assert {row[1] for row in by_lambda} <= set(self.FEATURES)
        assert {row[2] for row in by_lambda} <= {"universal", *self.TASKS}
        for name in ("universal", *self.TASKS):
            with open(out / "stab" / f"Z_{name}.csv", newline="") as fh:
                assert next(csv.reader(fh)) == sorted(self.FEATURES)
            assert len(rows_of(out / "stab" / f"Z_{name}.csv")) == 2
        assert len(rows_of(out / "pred.csv")) == 60


class TestExitCodes:
    def test_missing_manifest_exits_data(self, tmp_path, capsys):
        code = run(
            "fit", "--manifest", str(tmp_path / "absent.json"),
            "--out", str(tmp_path / "out"),
        )
        assert code == cli.EXIT_DATA
        assert capsys.readouterr().err.startswith("error:")

    def test_invalid_config_json_exits_data(self, synth_dir, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = run(
            "fit", "--manifest", os.path.join(synth_dir, "manifest.json"),
            "--out", str(tmp_path / "out"), "--config", str(bad),
        )
        assert code == cli.EXIT_DATA
        assert "cannot read config file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content",
        [b"[" * 100_000, b"{not json", b'{"tasks": "\xff"}'],
        ids=["deeply nested", "not JSON", "not UTF-8"],
    )
    @pytest.mark.parametrize(
        "command,flag",
        [("predict", "--model"), ("fit", "--manifest"), ("fit", "--config"),
         ("stability", "--manifest")],
    )
    def test_unreadable_json_exits_data_naming_the_file(
        self, synth_dir, tmp_path, capsys, command, flag, content
    ):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        args = {
            "--manifest": os.path.join(synth_dir, "manifest.json"),
            "--out": str(tmp_path / "out"),
        }
        if command == "predict":
            args = {"--data": os.path.join(synth_dir, "task0.csv"), "--out": str(tmp_path / "p.csv")}
        args[flag] = str(bad)
        code = run(command, *(word for pair in args.items() for word in pair))
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read") and str(bad) in err, err

    def test_bad_learning_rate_exits_usage(self, synth_dir, tmp_path, capsys):
        code = run(
            "fit", "--manifest", os.path.join(synth_dir, "manifest.json"),
            "--out", str(tmp_path / "out"), "--learning-rate", "2.0",
        )
        assert code == cli.EXIT_USAGE
        assert "learning_rate" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,flag,value",
        [
            ("fit", "--jobs", "2"),
            ("fit", "--grid-points", "3"),
            ("fit", "--grid-base", "2"),
            ("fit", "--stability-variant", "normalized"),
            ("fit", "--replicates", "3"),
            ("path", "--stability-variant", "normalized"),
            ("path", "--replicates", "3"),
            ("path", "--lambda", "5"),
            ("stability", "--grid-points", "3"),
            ("stability", "--grid-base", "2"),
        ],
    )
    def test_flag_the_command_does_not_read_exits_usage(
        self, command, flag, value, synth_dir, tmp_path, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            run(
                command, "--manifest", os.path.join(synth_dir, "manifest.json"),
                "--out", str(tmp_path / "out"), flag, value,
            )
        assert exc.value.code == cli.EXIT_USAGE
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,config,key",
        [
            ("fit", {"max_dept": 9}, "max_dept"),
            ("stability", {"ratios": [0.7, 0.2, 0.1]}, "ratios"),
            ("fit", {"seed": None}, "seed"),
            ("fit", {"ratios": 5}, "ratios"),
            ("path", {"ratios": [0.7, "0.2", 0.1]}, "ratios"),
            ("fit", {"lambda_task": "abc"}, "lambda_task"),
            ("fit", {"lambda_task": [1.0, True]}, "lambda_task"),
            ("fit", {"max_depth": 2.7}, "max_depth"),
            ("fit", {"max_depth": True}, "max_depth"),
            ("fit", {"learning_rate": False}, "learning_rate"),
            ("path", {"grid_base": "ten"}, "grid_base"),
            ("stability", {"stability_variant": "other"}, "stability_variant"),
            ("path", {"drop": 1.5}, "drop"),
            ("path", {"drop": 0}, "drop"),
            ("stability", {"alpha": 2}, "alpha"),
            ("path", {"lambda_u": 1.0}, "lambda_u"),
            ("fit", {"ratios": [0.5, 0.5]}, "ratios"),
            ("path", {"ratios": [0.9, 0.2, -0.1]}, "ratios"),
            ("fit", {"ratios": [0.7, 0.2, 0.2]}, "ratios"),
            ("fit", {"seed": -1}, "seed"),
            ("path", {"seed": -1}, "seed"),
            ("stability", {"seed": -1}, "seed"),
        ],
    )
    def test_bad_config_key_or_type_exits_usage(
        self, command, config, key, synth_dir, tmp_path, capsys, monkeypatch
    ):
        def no_fit(*args, **kwargs):
            raise AssertionError("a bad config file reached fitting")

        monkeypatch.setattr(cli, "load_manifest", no_fit)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        code = run(
            command, "--manifest", os.path.join(synth_dir, "manifest.json"),
            "--out", str(tmp_path / "out"), "--config", str(cfg_path),
        )
        err = capsys.readouterr().err
        assert code == cli.EXIT_USAGE
        assert str(cfg_path) in err and repr(key) in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["fit", "path", "stability"])
    def test_negative_seed_flag_exits_usage_before_loading(
        self, command, synth_dir, tmp_path, capsys, monkeypatch
    ):
        def no_load(*args, **kwargs):
            raise AssertionError("a negative seed reached the data")

        monkeypatch.setattr(cli, "load_manifest", no_load)
        code = exit_code(
            command, "--manifest", os.path.join(synth_dir, "manifest.json"),
            "--out", str(tmp_path / "out"), "--seed", "-1",
        )
        err = capsys.readouterr().err
        assert code == cli.EXIT_USAGE
        assert "argument --seed: must be an integer >= 0, got '-1'" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["path", "stability"])
    @pytest.mark.parametrize("given", ["flag 0", "flag -3", "config 0", "config -1", "config 1.5"])
    def test_jobs_below_one_exits_usage_before_loading(
        self, command, given, synth_dir, tmp_path, capsys, monkeypatch
    ):
        def no_load(*args, **kwargs):
            raise AssertionError("a bad --jobs reached the data")

        monkeypatch.setattr(cli, "load_manifest", no_load)
        way, value = given.split()
        if way == "flag":
            extra = ("--jobs", value)
        else:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps({"jobs": float(value) if "." in value else int(value)}))
            extra = ("--config", str(cfg_path))
        argv = (
            command, "--manifest", os.path.join(synth_dir, "manifest.json"),
            "--out", str(tmp_path / "out"), *extra,
        )
        try:
            code = run(*argv)
        except SystemExit as e:  # argparse rejects a bad flag value
            code = e.code
        err = capsys.readouterr().err
        assert code == cli.EXIT_USAGE
        assert "jobs" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "given, named",
        [
            (("--replicates", "1"), "argument --replicates: must be an integer >= 2, got '1'"),
            (("--replicates", "0"), "argument --replicates: must be an integer >= 2, got '0'"),
            (("--rounds-task", "0"), "--rounds-task ('rounds_task') >= 1, got 0"),
            (("--rounds-universal", "0"), "--rounds-universal ('rounds_universal') >= 1, got 0"),
            ({"replicates": 1}, "'replicates' must be an integer >= 2"),
            ({"rounds_task": 0}, "--rounds-task ('rounds_task') >= 1, got 0"),
            ({"rounds_universal": 0, "rounds_task": 3}, "--rounds-universal ('rounds_universal')"),
        ],
    )
    def test_stability_budgets_exit_usage_before_loading(
        self, given, named, synth_dir, tmp_path, capsys, monkeypatch
    ):
        def no_load(*args, **kwargs):
            raise AssertionError("a bad stability budget reached the data")

        monkeypatch.setattr(cli, "load_manifest", no_load)
        if isinstance(given, dict):
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps(given))
            given = ("--config", str(cfg_path))
        code = exit_code(
            "stability", "--manifest", os.path.join(synth_dir, "manifest.json"),
            "--out", str(tmp_path / "out"), *given,
        )
        err = capsys.readouterr().err
        assert code == cli.EXIT_USAGE
        assert named in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["--lambda", "--min-gain"])
    def test_nan_penalty_or_gain_floor_exits_usage(self, flag, synth_dir, tmp_path, capsys):
        code = run(
            "fit", "--manifest", os.path.join(synth_dir, "manifest.json"),
            "--out", str(tmp_path / "out"), flag, "nan",
        )
        assert code == cli.EXIT_USAGE
        assert "must be >= 0, got nan" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")  # the overflowing grid must not warn either
    @pytest.mark.parametrize("base", ["inf", "nan", "1e300"])
    def test_bad_grid_base_exits_usage_before_loading(
        self, base, synth_dir, tmp_path, capsys, monkeypatch
    ):
        def no_fit(*args, **kwargs):
            raise AssertionError("a bad penalty grid reached fitting")

        monkeypatch.setattr(cli, "load_manifest", no_fit)
        code = run(
            "path", "--manifest", os.path.join(synth_dir, "manifest.json"),
            "--out", str(tmp_path / "out"), "--grid-base", base,
        )
        err = capsys.readouterr().err
        assert code == cli.EXIT_USAGE
        assert "base" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "manifest",
        [[{"tasks": {"a": "a.csv"}}], {"tasks": {"a": 5}}, {"tasks": {"a": "a\x00.csv"}}],
        ids=["json_list", "non_string_csv_path", "nul_in_csv_path"],
    )
    def test_malformed_manifest_exits_data(self, manifest, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        code = run("fit", "--manifest", str(path), "--out", str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == cli.EXIT_DATA
        assert str(path) in err and "Traceback" not in err

    @pytest.mark.parametrize("noise", ["nan", "inf", "-1"])
    def test_bad_synth_noise_exits_data_writing_nothing(self, noise, tmp_path, capsys):
        out = tmp_path / "out"
        code = exit_code("synth", "--out", str(out), "--noise", noise)
        err = capsys.readouterr().err
        assert code == cli.EXIT_USAGE
        assert "argument --noise: must be a finite number >= 0" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, named",
        [
            (("--n-universal", "-1"), "argument --n-universal: must be an integer >= 0"),
            (("--n-specific", "-1"), "argument --n-specific: must be an integer >= 0"),
            (("--tasks", "0"), "argument --tasks: must be an integer >= 1"),
            (("--features", "x"), "argument --features: must be an integer >= 1"),
            (("--rho", "1"), "argument --rho: must be a number in [0, 1)"),
            (("--signs", "1,0"), "argument --signs: must be a comma list of 1 and -1"),
            (("--samples", "10,0"), "argument --samples: must be a comma list of integers >= 1"),
            (("--universal", "0,x"), "argument --universal: must be a comma list of integers"),
            (("--nonlinearity", "cubic"), "argument --nonlinearity: invalid choice"),
            (("--signs", "1,1", "--tasks", "1"), "--signs has 2 entries for --tasks 1"),
            (("--samples", "10,20"), "--samples has 2 entries for --tasks 3"),
            (("--specific", "3;4"), "--specific has 2 entries for --tasks 3"),
            (("--universal", "0", "--specific", "0;1;2"), "specific features [0] overlap"),
            (("--specific", "5;5;5"), "features [5] appear in every task's specific set"),
            (("--seed", "-1"), "argument --seed: must be an integer >= 0"),
        ],
    )
    def test_bad_synth_flags_exit_usage_naming_the_flag(self, flags, named, tmp_path, capsys):
        out = tmp_path / "out"
        code = exit_code("synth", "--out", str(out), *flags)
        err = capsys.readouterr().err
        assert code == cli.EXIT_USAGE
        assert named in err and "Traceback" not in err, err
        assert not out.exists()

    def test_synth_takes_no_manifest_or_config(self, tmp_path, capsys):
        for flag in ("--manifest", "--config"):
            code = exit_code("synth", "--out", str(tmp_path / "out"), flag, "x.json")
            assert code == cli.EXIT_USAGE
            assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("given", ["flag 100000000", "flag 1001", "config 100000000"])
    def test_grid_above_the_ceiling_exits_usage_before_it_is_built(
        self, given, synth_dir, tmp_path, capsys, monkeypatch
    ):
        def no_work(*args, **kwargs):
            raise AssertionError("a grid above the ceiling was built or reached the data")

        monkeypatch.setattr(cli, "load_manifest", no_work)
        monkeypatch.setattr(pathsweep.np, "linspace", no_work)
        way, value = given.split()
        if way == "flag":
            extra = ("--grid-points", value)
        else:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps({"grid_points": int(value)}))
            extra = ("--config", str(cfg_path))
        code = run(
            "path", "--manifest", os.path.join(synth_dir, "manifest.json"),
            "--out", str(tmp_path / "out"), *extra,
        )
        err = capsys.readouterr().err
        assert code == cli.EXIT_USAGE
        assert f"n_points must be in [2, {pathsweep.MAX_GRID_POINTS}], got {value}" in err
        assert "Traceback" not in err and not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flags, named",
        [
            (("--tasks", "1", "--features", "4"), ("[4]", "--n-universal 3", "--n-specific 2")),
            (("--tasks", "1", "--features", "5"), ("nuisance", "--n-universal 3", "--n-specific 2")),
            (("--features", "6", "--universal", "0,6", "--specific", "1;2;-1"),
             ("[-1, 6]", "--universal", "--specific")),
        ],
        ids=["planted counts", "no nuisance feature", "planted lists"],
    )
    def test_planted_features_that_do_not_fit_exit_usage(self, flags, named, tmp_path, capsys):
        out = tmp_path / "out"
        code = run("synth", "--out", str(out), *flags)
        err = capsys.readouterr().err
        assert code == cli.EXIT_USAGE
        assert all(text in err for text in ("--features", *named)) and "Traceback" not in err
        assert not out.exists()

    def test_huge_planted_count_exits_usage_at_once(self, tmp_path, capsys):
        out = tmp_path / "out"
        start = time.perf_counter()
        code = run("synth", "--out", str(out), "--n-universal", "1000000", "--features", "50")
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == cli.EXIT_USAGE and elapsed < 0.5, elapsed
        assert len(err) < 500 and "--n-universal 1000000" in err and "--features 50" in err, err
        assert "[50, 51, 52, 53, 54, ...]" in err and not out.exists()

    @pytest.mark.parametrize("command", ["fit", "stability"])
    def test_short_task_penalty_list_exits_usage_before_any_tree(
        self, command, synth_dir, tmp_path, capsys, monkeypatch
    ):
        def no_tree(*args, **kwargs):
            raise AssertionError("a tree grew before lambda_task was checked")

        monkeypatch.setattr(boosting, "grow_multitask_tree", no_tree)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"lambda_task": [0.5]}))
        jobs = ("--jobs", "1") if command == "stability" else ()
        code = run(
            command, "--manifest", os.path.join(synth_dir, "manifest.json"),
            "--out", str(tmp_path / "out"), "--config", str(cfg_path), *jobs,
        )
        err = capsys.readouterr().err
        assert code == cli.EXIT_USAGE
        assert "lambda_task has 1 entries for 2 tasks" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_unknown_subcommand_exits_usage(self):
        with pytest.raises(SystemExit) as exc:
            run("frobnicate", "--out", "x")
        assert exc.value.code == cli.EXIT_USAGE

    def _fit_one_csv(self, tmp_path, header, rows) -> int:
        data = tmp_path / "one.csv"
        with open(data, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"tasks": {"one": "one.csv"}}))
        return run("fit", "--manifest", str(manifest), "--out", str(tmp_path / "out"))

    def test_duplicate_feature_header_exits_data(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        header = ["id"] + [f"x{j}" for j in range(10)] + ["x3", "target"]
        rows = [[f"s{i}"] + [repr(float(v)) for v in rng.random(12)] for i in range(20)]
        code = self._fit_one_csv(tmp_path, header, rows)
        err = capsys.readouterr().err
        assert code == cli.EXIT_DATA
        assert "one.csv" in err and "duplicate feature column 'x3'" in err

    def test_infinite_cell_exits_data(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        rows = [[f"s{i}"] + [repr(float(v)) for v in rng.random(3)] for i in range(20)]
        rows[6][2] = "inf"
        code = self._fit_one_csv(tmp_path, ["id", "x0", "x1", "target"], rows)
        err = capsys.readouterr().err
        assert code == cli.EXIT_DATA
        assert "one.csv: row 8, column 'x1': infinite value" in err

    @pytest.mark.parametrize("case", ["fit_csv", "predict_csv", "manifest", "config"])
    def test_non_utf8_file_exits_data(self, case, synth_dir, fit_dir, tmp_path, capsys):
        data = str(tmp_path / "data")
        shutil.copytree(synth_dir, data)
        manifest = os.path.join(data, "manifest.json")
        bad = {"manifest": manifest, "config": str(tmp_path / "cfg.json")}.get(
            case, os.path.join(data, "task0.csv")
        )
        if case == "config":
            with open(bad, "w") as fh:
                fh.write('{"seed": 1}')
        text = read_bytes(bad)
        with open(bad, "wb") as fh:  # near the end, past the first decoded chunk of a CSV
            fh.write(text[:-5] + b"\xff" + text[-5:])
        if case == "predict_csv":
            code = run(
                "predict", "--model", os.path.join(fit_dir, "model.json"), "--data", bad,
                "--task", "task0", "--out", str(tmp_path / "pred.csv"),
            )
        else:
            config = ["--config", bad] if case == "config" else []
            code = run("fit", "--manifest", manifest, "--out", str(tmp_path / "out"), *config)
        err = capsys.readouterr().err
        assert code == cli.EXIT_DATA
        assert bad in err and "utf-8" in err.lower() and "Traceback" not in err

    def test_duplicate_sample_id_exits_data(self, tmp_path, capsys):
        rows = [[f"s{i}", str(i % 7), str(i)] for i in range(20)]
        rows[2][0] = "s1"
        code = self._fit_one_csv(tmp_path, ["id", "x0", "target"], rows)
        err = capsys.readouterr().err
        assert code == cli.EXIT_DATA
        assert "one.csv: row 4: duplicate sample id 's1' (row 3)" in err

    def test_no_shared_feature_names_the_manifest(self, tmp_path, capsys):
        for name, feature in (("a", "x0"), ("b", "x1")):
            rows = [[f"s{i}", str(i % 7), str(i)] for i in range(20)]
            (tmp_path / f"{name}.csv").write_text(
                "\n".join(",".join(row) for row in [["id", feature, "target"], *rows]) + "\n"
            )
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"tasks": {"a": "a.csv", "b": "b.csv"}}))
        code = run("fit", "--manifest", str(manifest), "--out", str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == cli.EXIT_DATA
        assert f"{manifest}: no feature is shared by every task" in err

    def test_overflowing_column_exits_numerical(self, tmp_path, capsys):
        rows = [[f"s{i}", "1e308" if i % 2 else "-1e308", str(i % 7), str(i)] for i in range(20)]
        code = self._fit_one_csv(tmp_path, ["id", "x0", "x1", "target"], rows)
        err = capsys.readouterr().err
        assert code == cli.EXIT_NUMERICAL
        assert "feature 'x0' is too large to standardize" in err and "Traceback" not in err

    def test_unparsable_csv_exits_data(self, tmp_path, capsys):
        # A cell longer than the csv module's field limit.
        code = self._fit_one_csv(tmp_path, ["id", "x0", "target"], [["s0", "1" * 200_000, "0"]])
        err = capsys.readouterr().err
        assert code == cli.EXIT_DATA
        assert "one.csv: line 2: field larger than field limit" in err

    def test_constant_target_exits_numerical(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        data = tmp_path / "flat.csv"
        with open(data, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "x0", "x1", "target"])
            for i in range(20):
                writer.writerow(
                    [f"s{i}", repr(rng.random()), repr(rng.random()), "3.14"]
                )
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"tasks": {"flat": "flat.csv"}}))
        code = run(
            "fit", "--manifest", str(manifest), "--out", str(tmp_path / "out"),
        )
        assert code == cli.EXIT_NUMERICAL
        assert "constant on train" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failing_path_point_names_the_manifest_and_penalty(
        self, jobs, synth_dir, tmp_path, capsys, monkeypatch
    ):
        def fail(*args, **kwargs):
            raise NumericalError("explained variance is undefined for a constant target")

        monkeypatch.setattr(pathsweep, "downstream_scores", fail)
        manifest = os.path.join(synth_dir, "manifest.json")
        code = run(
            "path", "--manifest", manifest, "--out", str(tmp_path / "out"),
            "--grid-points", "2", "--rounds-universal", "2", "--rounds-task", "2",
            "--jobs", jobs,
        )
        err = capsys.readouterr().err
        assert code == cli.EXIT_NUMERICAL
        assert err.startswith(f"error: {manifest}: penalty {pathsweep.log_grid(2)[0]}: explained")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failing_stability_replicate_is_named(self, jobs, tmp_path, capsys):
        # x0 is 1 in one row only: a replicate whose training partition
        # leaves that row out finds x0 constant, and the study stops.
        rng = np.random.default_rng(0)
        with open(tmp_path / "a.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["id", "x0", "x1", "target"])
            for i in range(10):
                writer.writerow([f"s{i}", int(i == 0), repr(rng.random()), repr(rng.random())])
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"tasks": {"a": "a.csv"}}))
        code = run(
            "stability", "--manifest", str(manifest), "--out", str(tmp_path / "out"),
            "--replicates", "6", "--seed", "5", "--jobs", jobs,
        )
        err = capsys.readouterr().err
        assert code == cli.EXIT_NUMERICAL
        m, seed = map(int, re.search(r"replicate (\d+) \(split seed (\d+)\)", err).groups())
        assert err.startswith(f"error: {manifest}: replicate {m} ")
        assert "task 'a': feature 'x0' is constant on train" in err
        assert (m, seed) == (4, 9)  # seeds 5..8 keep that row in train
        # That replicate's split does leave the one nonzero x0 row out of train.
        train = overlap_split(load_manifest(str(manifest)).tasks, seed=seed).train[0]
        assert 0 not in train


# ---------------------------------------------------------------------------
# Mangled input: whatever one edit does to a valid data set, `bouts fit`
# ends with a documented exit code and, when it fails, names a file.

TINY_SYNTH_ARGS = (
    "--tasks", "2", "--features", "4", "--samples", "30",
    "--n-universal", "1", "--n-specific", "1", "--seed", "0",
)
TASK_FILES = ("task0.csv", "task1.csv")
CELL_TEXT = st.one_of(
    st.sampled_from(["", "inf", "nan", "1e400", "\x00", "1e308", "-1e308"]),
    st.text(max_size=8),
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=8),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3)
    ),
    max_leaves=8,
)
CSV_PATHS = st.sampled_from([*TASK_FILES, "", "/", "a\x00.csv"]) | JSON_VALUES
MANIFESTS = JSON_VALUES | st.fixed_dictionaries(
    {"tasks": st.dictionaries(st.text(max_size=8), CSV_PATHS, max_size=3)}
)


@functools.cache
def tiny_files() -> dict[str, bytes]:
    with tempfile.TemporaryDirectory() as out:
        assert run("synth", "--out", out, *TINY_SYNTH_ARGS) == cli.EXIT_OK
        return {name: read_bytes(os.path.join(out, name)) for name in os.listdir(out)}


def _mangle(files: dict[str, bytes], draw) -> None:
    """Apply one drawn edit to ``files`` in place."""
    kind = draw(st.sampled_from(["cell", "short_row", "duplicate_header", "bytes", "manifest"]))
    if kind == "manifest":
        files["manifest.json"] = json.dumps(draw(MANIFESTS)).encode()
        return
    if kind == "bytes":
        name = draw(st.sampled_from([*TASK_FILES, "manifest.json"]))
        at = draw(st.integers(0, len(files[name])))
        drawn = draw(st.binary(max_size=32))
        files[name] = draw(st.sampled_from([drawn, files[name][:at] + drawn + files[name][at:]]))
        return
    name = draw(st.sampled_from(TASK_FILES))
    lines = files[name].decode().split("\n")  # the last element is the "" after the final newline
    r = 0 if kind == "duplicate_header" else draw(st.integers(0, len(lines) - 2))
    cells = lines[r].split(",")
    if kind == "cell":  # drawn text, or a copy of another cell (say, another row's id)
        other = st.sampled_from([c for line in lines for c in line.split(",")])
        cells[draw(st.integers(0, len(cells) - 1))] = draw(CELL_TEXT | other)
    elif kind == "short_row":
        del cells[draw(st.integers(1, len(cells) - 1)):]
    else:
        i, j = draw(st.lists(st.integers(0, len(cells) - 1), min_size=2, max_size=2, unique=True))
        cells[j] = cells[i]
    lines[r] = ",".join(cells)
    files[name] = "\n".join(lines).encode()


def _named_paths(manifest: bytes) -> list[str]:
    """Absolute CSV paths a (possibly mangled) manifest names."""
    try:
        entries = json.loads(manifest)["tasks"]
        return [p for p in entries.values() if isinstance(p, str) and os.path.isabs(p)]
    except (AttributeError, KeyError, TypeError, ValueError):  # not a manifest at all
        return []


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_mangled_input_exits_with_a_documented_code(data):
    files = dict(tiny_files())
    _mangle(files, data.draw)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        data_dir = os.path.join(tmp, "data")
        os.makedirs(data_dir)
        for name, content in files.items():
            with open(os.path.join(data_dir, name), "wb") as fh:
                fh.write(content)
        with contextlib.redirect_stderr(err):
            code = run(
                "fit", "--manifest", os.path.join(data_dir, "manifest.json"),
                "--out", os.path.join(tmp, "out"), "--rounds-universal", "1", "--rounds-task", "1",
            )
        if code == cli.EXIT_OK:  # what fit writes, predict must accept
            cli._load_model(os.path.join(tmp, "out", "model.json"))
    message = err.getvalue()
    assert code in (cli.EXIT_OK, cli.EXIT_DATA, cli.EXIT_NUMERICAL), message
    if code != cli.EXIT_OK:
        assert message.startswith("error:"), message
        named = [data_dir, *_named_paths(files["manifest.json"])]
        assert any(p in message or repr(p) in message for p in named), message


# ---------------------------------------------------------------------------
# Task names: a name becomes part of `bouts stability`'s Z_<task>.csv, so a
# name that cannot be one file name, or that names Z_universal.csv, is
# rejected before any fit.

TASK_NAMES = st.one_of(
    st.sampled_from(["universal", "", ".", "..", "a/b", "/", "x\x00y", "sol,aq", "é" * 125]),
    st.sampled_from(["a" * 249, "a" * 250, "\ud800", "Universal", "line\nbreak"]),
    st.text(max_size=12),
)


@given(names=st.lists(TASK_NAMES, min_size=1, max_size=2, unique=True))
@settings(max_examples=150, deadline=None)
def test_task_names_write_their_matrices_or_exit_data_before_fitting(names):
    files = tiny_files()
    fits = []
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        for name in TASK_FILES:
            with open(os.path.join(tmp, name), "wb") as fh:
                fh.write(files[name])
        manifest = os.path.join(tmp, "manifest.json")
        with open(manifest, "w") as fh:
            json.dump({"tasks": dict(zip(names, TASK_FILES))}, fh)
        mp.setattr(cli, "selection_replicates", lambda *a, **k: fits.append(1) or replicates(*a, **k))
        out = os.path.join(tmp, "out")
        with contextlib.redirect_stderr(err):
            code = run(
                "stability", "--manifest", manifest, "--out", out, "--jobs", "1",
                "--replicates", "2", "--rounds-universal", "3", "--rounds-task", "3",
            )
        message = err.getvalue()
        if code == cli.EXIT_DATA:
            assert not fits and not os.path.exists(out)
            assert message.startswith(f"error: {manifest}: task name "), message
            assert any(repr(name) in message for name in names), message
            return
        assert code == cli.EXIT_OK, message
        report = read_json(os.path.join(out, "stability_report.json"))
        expected = {"stability_report.json", "Z_universal.csv", *(f"Z_{n}.csv" for n in names)}
        assert set(os.listdir(out)) == expected
        for name, entry in [("universal", report["universal"]), *report["tasks"].items()]:
            with open(os.path.join(out, f"Z_{name}.csv"), newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            assert len(rows) == report["replicates"] == 2
            counts = [sum(map(int, row)) for row in rows]
            assert entry["mean_features_selected"] == sum(counts) / len(counts)


# ---------------------------------------------------------------------------
# Mangled model bundles: whatever one edit does to a saved model, `bouts
# predict` ends with exit 0 or 3 and, when it fails, names the file; a bundle
# it accepts is one the shipped schema accepts.

PER_TASK_KEYS = {"values", "thresholds", "gains", "penalized_gains", "f0", "task_trees"}
BUNDLE_VALUES = JSON_VALUES | st.integers(-3, 12) | st.sampled_from([10**400, -(10**400)])


def _locations(obj, path=()):
    """The path of every value inside a JSON document (the root excluded)."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _locations(value, path + (key,))


def _edit_bundle(bundle: dict, draw) -> None:
    """Apply one drawn edit to ``bundle`` in place."""
    where = list(_locations(bundle))
    kind = draw(st.sampled_from(["delete", "replace", "repoint", "cut", "duplicate"]))
    if kind == "duplicate":  # one name takes another's place
        names = bundle["model"][draw(st.sampled_from(["feature_names", "task_names"]))]
        i, j = draw(st.permutations(range(len(names))))[:2]
        names[j] = names[i]
        return
    if kind == "delete":
        where = [p for p in where if isinstance(p[-1], str)]
    elif kind == "repoint":
        where = [p for p in where if p[-1] in ("left", "right")]
    elif kind == "cut":
        where = [p for p in where if p[-1] in PER_TASK_KEYS]
    path = draw(st.sampled_from(where))
    parent = functools.reduce(lambda obj, key: obj[key], path[:-1], bundle)
    if kind == "delete":
        del parent[path[-1]]
    elif kind == "replace":
        parent[path[-1]] = draw(BUNDLE_VALUES)
    elif kind == "repoint":
        parent[path[-1]] = draw(st.integers(-1, 12))
    else:
        value = parent[path[-1]]
        parent[path[-1]] = value[: draw(st.integers(0, max(0, len(value) - 1)))]


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_mangled_model_bundle_exits_with_a_documented_code(data):
    bundle = read_json(os.path.join(DATA_DIR, "model.json"))
    _edit_bundle(bundle, data.draw)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        model = os.path.join(tmp, "model.json")
        with open(model, "w") as fh:
            json.dump(bundle, fh)
        with contextlib.redirect_stderr(err):
            code = run(
                "predict", "--model", model, "--data", os.path.join(DATA_DIR, "task0.csv"),
                "--task", "task0", "--out", os.path.join(tmp, "pred.csv"),
            )
    message = err.getvalue()
    assert code in (cli.EXIT_OK, cli.EXIT_DATA), message
    if code == cli.EXIT_OK:
        jsonschema.validate(instance=bundle, schema=load_schema("model"))
    else:
        assert message.startswith("error:") and model in message, message


# ---------------------------------------------------------------------------
# Hostile option values: whatever a run's flags and --config keys hold, it ends
# with exit 0, 2, 3 or 4, prints no traceback, and writes nothing when it fails.
# Huge values go only to options that are cheap or refused before any work; the
# options that size the work (rounds, replicates, tasks, features, samples) get
# small or invalid values, and --jobs is at most 2.

INVALID_TEXT = ["0", "-1", "nan", "inf", "-inf", "x", "", "1.5", "1,2", "1e400"]
HUGE_TEXT = ["1e300", str(2**63), str(10**30)]


def flag_text(*typical: str, huge: bool = False):
    """Half the draws come from ``typical``, the rest from the invalid (and the huge) texts."""
    return st.sampled_from(typical) | st.sampled_from([*INVALID_TEXT, *(HUGE_TEXT if huge else ())])


FLAG_TEXT = {
    "--seed": flag_text("0", "7", huge=True),
    "--rounds-universal": flag_text("1", "2"),
    "--rounds-task": flag_text("1", "2"),
    "--learning-rate": flag_text("0.1", "1", huge=True),
    "--max-depth": flag_text("1", "3", huge=True),
    "--min-samples-leaf": flag_text("1", "5", huge=True),
    "--min-gain": flag_text("1e-7", "1", huge=True),
    "--criterion": flag_text("friedman", "variance"),
    "--lambda": flag_text("0.5", "5", huge=True),
    "--grid-points": flag_text("2", "3", "1001", "100000000", huge=True),
    "--grid-base": flag_text("e", "2", "10", "1", "1e300", huge=True),
    "--jobs": flag_text("1", "2"),
    "--replicates": flag_text("2", "3"),
    "--stability-variant": flag_text("normalized", "paper_formula"),
    "--tasks": flag_text("1", "2", "3"),
    "--features": flag_text("4", "6", "8"),
    "--samples": flag_text("10", "40", "10,20", "10,20,30"),
    "--n-universal": flag_text("0", "1", "2"),
    "--n-specific": flag_text("0", "1", "2"),
    "--universal": flag_text("0", "0,1", "5", "0,9"),
    "--specific": flag_text("1;2", "1;2;3", "1;1", ";", "2;-1"),
    "--signs": flag_text("1,-1", "-1", "1,1,1"),
    "--noise": flag_text("0", "0.5", huge=True),
    "--rho": flag_text("0.5", "0.99", "1"),
    "--nonlinearity": flag_text("linear", "quadratic", "interaction"),
}
HOSTILE_JSON = [0, -1, math.nan, math.inf, -math.inf, True, None, "x", 1.5, [], [0.5], {"a": 1}]
CONFIG_JSON = {
    "seed": [7, 10**30, 1e308],
    "ratios": [[0.7, 0.2, 0.1], [0.5, 0.25, 0.25], [1, 0, 0], [0.7, 0.3], [math.nan, 0.5, 0.5]],
    "rounds_universal": [1, 2],
    "rounds_task": [1, 2],
    "learning_rate": [0.1, 1e308],
    "max_depth": [1, 10**30],
    "min_samples_leaf": [1, 10**30],
    "min_gain": [1e-7, 1e308],
    "criterion": ["friedman", "variance"],
    "lam": [0.5, 1e308],
    "lambda_u": [0.5, 1e308],
    "lambda_task": [0.5, [0.5, 1.0], [0.5, -1.0], [0.5, 1.0, 2.0]],
    "grid_points": [2, 3, 1001, 10**8, 10**30],
    "grid_base": ["e", 2, 1e300, "ten"],
    "drop": [0.1, 0.9],
    "jobs": [1, 2],
    "replicates": [2, 3],
    "stability_variant": ["normalized", "paper_formula"],
    "alpha": [0.05, 0.5],
    "max_dept": [3],  # no command takes this key
}
# The budgets every --config starts from; drawn keys and flags override them.
SMALL_BUDGETS = {
    "rounds_universal": 1, "rounds_task": 1, "grid_points": 2, "replicates": 2, "jobs": 1,
}


def command_options(command: str) -> tuple:
    """The ``Option`` table ``command`` is registered with."""
    argv = [command, "--out", "o", *(("--manifest", "m") if command != "synth" else ())]
    return cli.build_parser().parse_args(argv).options


@pytest.fixture(scope="module")
def hostile_inputs(tmp_path_factory) -> str:
    """The pinned 2x6x40 synth set and a 1+1-round model fitted on it."""
    inputs = str(tmp_path_factory.mktemp("hostile"))
    shutil.copytree(PINNED_DIR, inputs, dirs_exist_ok=True)
    code = run("fit", "--manifest", os.path.join(inputs, "manifest.json"), "--out", inputs,
               "--rounds-universal", "1", "--rounds-task", "1")
    assert code == cli.EXIT_OK
    return inputs


def _hostile_argv(command: str, inputs: str, tmp: str, draw) -> list[str]:
    if command == "predict":  # its flags name files, so wrong files are its hostile values
        files = st.sampled_from(["model.json", "manifest.json", "task0.csv", "task1.csv", "absent"])
        model = draw(st.just("model.json") | files)
        data = draw(st.sampled_from(["task0.csv", "task1.csv"]) | files)
        task = draw(st.lists(st.sampled_from(["task0", "task1", "x", ""]), max_size=1))
        return [
            "predict", "--out", os.path.join(tmp, "out"), "--model", os.path.join(inputs, model),
            "--data", os.path.join(inputs, data), *(("--task", *task) if task else ()),
        ]
    options = command_options(command)
    argv = [command, "--out", os.path.join(tmp, "out")]
    if command != "synth":
        keys = {opt.key for opt in options} | {"max_dept"}
        config = {k: v for k, v in SMALL_BUDGETS.items() if k in keys}
        for key in draw(st.lists(st.sampled_from(sorted(keys)), max_size=3, unique=True)):
            config[key] = draw(st.sampled_from(CONFIG_JSON[key]) | st.sampled_from(HOSTILE_JSON))
        with open(os.path.join(tmp, "config.json"), "w") as fh:
            json.dump(config, fh)
        argv += ["--manifest", os.path.join(inputs, "manifest.json"),
                 "--config", os.path.join(tmp, "config.json")]
    flags = [opt.flag for opt in options if opt.flag]
    for flag in draw(st.lists(st.sampled_from(flags), max_size=4, unique=True)):
        argv += [flag, draw(FLAG_TEXT[flag])]
    return argv


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_hostile_option_values_exit_with_a_documented_code(data, hostile_inputs):
    command = data.draw(st.sampled_from(["fit", "path", "stability", "synth", "predict"]))
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(pathsweep, "DOWNSTREAM_ROUNDS", (1, 2))
        argv = _hostile_argv(command, hostile_inputs, tmp, data.draw)
        with contextlib.redirect_stderr(err):
            code = exit_code(*argv)
        wrote = os.path.exists(os.path.join(tmp, "out"))
    message = err.getvalue()
    assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_DATA, cli.EXIT_NUMERICAL), (argv, message)
    assert "Traceback" not in message, (argv, message)
    assert wrote == (code == cli.EXIT_OK), (argv, code, message)
