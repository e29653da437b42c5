"""End-to-end checks of the command-line surface.

Each subcommand is driven through ``cli.main`` in process, the emitted
artifacts are validated against the shipped JSON schemas, and the exit-code
contract (0 ok, 2 usage, 3 data, 4 numerical) is pinned with concrete
failure cases.
"""

from __future__ import annotations

import csv
import json
import math
import os
import subprocess
import sys

import jsonschema
import numpy as np
import pytest

from bouts import cli, pathsweep
from bouts.boosting import BoutsModel
from bouts.data import Standardizer, load_task_csv
from bouts.multitask import MultitaskTree
from bouts.schemas import load_schema

# A model.json (2 tasks, 3 rounds of each stage), the task CSVs it scores and
# the `bouts predict` output for each, written before single-task trees
# became T=1 multitask trees; it pins the on-disk format across that change.
DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def run(*args: str) -> int:
    return cli.main(list(args))


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
        assert "lacks feature column 'f002'" in capsys.readouterr().err


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

    @pytest.mark.parametrize("case", sorted(MANGLED_MODELS))
    def test_mangled_model_exits_data(
        self, case, synth_dir, fit_dir, tmp_path, capsys, monkeypatch
    ):
        bundle = read_json(os.path.join(fit_dir, "model.json"))
        replaced = MANGLED_MODELS[case](bundle)
        bad = tmp_path / "model.json"
        bad.write_text(replaced if isinstance(replaced, str) else json.dumps(bundle))

        def no_routing(*args, **kwargs):
            raise AssertionError("a malformed model reached prediction")

        monkeypatch.setattr(MultitaskTree, "predict", no_routing)
        code = run(
            "predict", "--model", str(bad),
            "--data", os.path.join(synth_dir, "task0.csv"),
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
            ("path", "--jobs", "2"),
            ("path", "--stability-variant", "normalized"),
            ("path", "--replicates", "3"),
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
        [[{"tasks": {"a": "a.csv"}}], {"tasks": {"a": 5}}],
        ids=["json_list", "non_string_csv_path"],
    )
    def test_malformed_manifest_exits_data(self, manifest, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest))
        code = run("fit", "--manifest", str(path), "--out", str(tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == cli.EXIT_DATA
        assert str(path) in err and "Traceback" not in err

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
