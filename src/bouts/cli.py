"""Command-line surface: fit, path, stability, synth, predict.

All subcommands share a JSON config file (``--config``) whose keys mirror
the flag names; explicit flags win.  Exit codes: 0 success, 2 usage error,
3 data error, 4 numerical error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from typing import Optional, Sequence

import numpy as np

from . import boosting, pathsweep, synth as synth_mod
from .boosting import BoostConfig, BoutsModel, fit
# The package root re-exports a function named ``stability``, which shadows
# the submodule attribute, so pull the needed names straight from the module.
from .stability import (
    NORMALIZED,
    VARIANTS,
    cohens_d,
    make_report,
    selection_replicates,
    ztest,
)
from .data import (
    load_manifest,
    load_task_csv,
    overlap_split,
    split_to_json,
    standardize_dataset,
    Standardizer,
    RATIOS,
)
from .errors import BoutsError, DataError, NumericalError
from .trees import CRITERIA, FRIEDMAN, TreeParams

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True))
        fh.write("\n")


def _write_text(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _merge_config(args: argparse.Namespace, keys: Sequence[str]) -> dict:
    """Config-file values overridden by explicit flags (flags parsed as None
    when absent)."""
    cfg: dict = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise DataError(f"cannot read config file {args.config}: {e}") from None
        if not isinstance(cfg, dict):
            raise DataError(f"config file {args.config} must hold a JSON object")
    merged = dict(cfg)
    for key in keys:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


BOOST_KEYS = (
    "rounds_universal",
    "rounds_task",
    "learning_rate",
    "lam",
    "lambda_u",
    "lambda_task",
    "max_depth",
    "min_samples_leaf",
    "min_gain",
    "criterion",
)
COMMON_KEYS = BOOST_KEYS + (
    "seed",
    "jobs",
    "ratios",
    "grid_points",
    "grid_base",
    "stability_variant",
    "replicates",
    "alpha",
)


def _boost_config(cfg: dict) -> BoostConfig:
    tree = TreeParams(
        max_depth=int(cfg.get("max_depth", 3)),
        min_samples_leaf=int(cfg.get("min_samples_leaf", 5)),
        min_gain=float(cfg.get("min_gain", 1e-7)),
        criterion=str(cfg.get("criterion", FRIEDMAN)),
    )
    shared = cfg.get("lam", 0.0)
    return BoostConfig(
        rounds_universal=int(cfg.get("rounds_universal", 100)),
        rounds_task=int(cfg.get("rounds_task", 100)),
        learning_rate=float(cfg.get("learning_rate", 0.1)),
        lambda_u=float(cfg.get("lambda_u", shared)),
        lambda_task=cfg.get("lambda_task", float(shared)),
        tree=tree,
    )


def _load_standardized(manifest: str, cfg: dict):
    dataset = load_manifest(manifest)
    ratios = tuple(cfg.get("ratios", RATIOS))
    split = overlap_split(dataset.tasks, ratios=ratios, seed=int(cfg.get("seed", 0)))
    standardized, standardizers = standardize_dataset(dataset, split)
    return dataset, standardized, standardizers, split


def _model_bundle(model: BoutsModel, standardizers: list[Standardizer]) -> dict:
    return {
        "model": model.to_dict(),
        "standardizers": {
            name: st.to_dict() for name, st in zip(model.task_names, standardizers)
        },
    }


def cmd_fit(args: argparse.Namespace) -> int:
    cfg = _merge_config(args, COMMON_KEYS)
    config = _boost_config(cfg)
    dataset, standardized, standardizers, split = _load_standardized(args.manifest, cfg)
    model = fit(standardized, split, config)
    os.makedirs(args.out, exist_ok=True)

    _write_json(os.path.join(args.out, "model.json"), _model_bundle(model, standardizers))
    selected = {
        "universal": boosting.universal_features(model),
        "task_specific": {
            name: boosting.task_specific_features(model, t)
            for t, name in enumerate(model.task_names)
        },
    }
    _write_json(os.path.join(args.out, "selected_features.json"), selected)
    importances = {
        name: boosting.feature_importances(model, t)
        for t, name in enumerate(model.task_names)
    }
    _write_json(os.path.join(args.out, "importances.json"), importances)
    _write_text(os.path.join(args.out, "split.json"), split_to_json(split, dataset.tasks) + "\n")

    rows = []
    for t, task in enumerate(standardized.tasks):
        test = split.test[t]
        nae = pathsweep.normalized_absolute_error(
            task.y[test], model.predict(t, task.X[test])
        )
        q25, med, q75 = (
            (float(np.percentile(nae, q)) for q in (25, 50, 75)) if len(nae) else ("", "", "")
        )
        rows.append([task.name, len(test), med, q25, q75])
    buf = ["task,n_test,nae_median,nae_q25,nae_q75"]
    for row in rows:
        buf.append(",".join(str(v) for v in row))
    _write_text(os.path.join(args.out, "metrics.csv"), "\n".join(buf) + "\n")
    return EXIT_OK


def cmd_path(args: argparse.Namespace) -> int:
    cfg = _merge_config(args, COMMON_KEYS)
    config = _boost_config(cfg)
    _, standardized, _, split = _load_standardized(args.manifest, cfg)
    base = cfg.get("grid_base", "e")
    base_value = math.e if base in ("e", None) else float(base)
    grid = pathsweep.log_grid(int(cfg.get("grid_points", 20)), base=base_value)
    path = pathsweep.sweep(standardized, split, config, grid)
    chosen = pathsweep.select_penalty(path, drop=float(cfg.get("drop", 0.10)))
    os.makedirs(args.out, exist_ok=True)
    _write_text(os.path.join(args.out, "path.csv"), path.to_csv())
    _write_json(os.path.join(args.out, "path.json"), path.to_dict())
    _write_json(
        os.path.join(args.out, "selected_lambda.json"),
        {"index": chosen.index, "lambda": chosen.lam, "warning": chosen.warning},
    )
    lines = ["lambda,feature,role"]
    for point in path.points:
        for name in point.universal:
            lines.append(f"{point.lam!r},{name},universal")
        for t, task_name in enumerate(path.task_names):
            for name in point.task_specific[t]:
                lines.append(f"{point.lam!r},{name},{task_name}")
    _write_text(os.path.join(args.out, "features_by_lambda.csv"), "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_stability(args: argparse.Namespace) -> int:
    cfg = _merge_config(args, COMMON_KEYS)
    config = _boost_config(cfg)
    dataset = load_manifest(args.manifest)
    variant = cfg.get("stability_variant", NORMALIZED)
    if variant not in VARIANTS:
        raise DataError(f"stability_variant must be one of {VARIANTS}")
    alpha = float(cfg.get("alpha", 0.05))
    Z_u, Z_tasks = selection_replicates(
        dataset,
        config,
        replicates=int(cfg.get("replicates", 100)),
        seed=int(cfg.get("seed", 0)),
        jobs=int(cfg.get("jobs", 1)),
    )
    report = {
        "variant": variant,
        "alpha": alpha,
        "replicates": Z_u.n_replicates,
        "universal": make_report(Z_u, alpha, variant).to_dict(),
        "tasks": {},
        "comparisons": {},
    }
    for name, Z_t in zip(dataset.task_names, Z_tasks):
        report["tasks"][name] = make_report(Z_t, alpha, variant).to_dict()
        t_stat, p = ztest(Z_u, Z_t, variant)
        report["comparisons"][name] = {
            "t": t_stat,
            "p": p,
            "cohens_d": cohens_d(Z_u, Z_t, variant),
        }
    os.makedirs(args.out, exist_ok=True)
    _write_json(os.path.join(args.out, "stability_report.json"), _finite_or_str(report))
    _write_text(os.path.join(args.out, "Z_universal.csv"), Z_u.to_csv())
    for name, Z_t in zip(dataset.task_names, Z_tasks):
        _write_text(os.path.join(args.out, f"Z_{name}.csv"), Z_t.to_csv())
    return EXIT_OK


def _finite_or_str(obj):
    """JSON has no Infinity; the +/-inf ztest sentinel serializes as text."""
    if isinstance(obj, dict):
        return {k: _finite_or_str(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_finite_or_str(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return "inf" if obj > 0 else "-inf"
    return obj


def _parse_int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v.strip() != ""]


def cmd_synth(args: argparse.Namespace) -> int:
    tasks = args.tasks
    if args.universal is not None:
        universal = _parse_int_list(args.universal)
    else:
        universal = list(range(args.n_universal))
    if args.specific is not None:
        task_specific = [_parse_int_list(part) for part in args.specific.split(";")]
    else:
        base = len(universal)
        task_specific = [
            list(range(base + t * args.n_specific, base + (t + 1) * args.n_specific))
            for t in range(tasks)
        ]
    signs = _parse_int_list(args.signs) if args.signs else None
    samples: Sequence[int] | int = (
        _parse_int_list(args.samples) if "," in args.samples else int(args.samples)
    )
    spec = synth_mod.SynthSpec(
        n_tasks=tasks,
        n_features=args.features,
        n_samples=samples,
        universal=universal,
        task_specific=task_specific,
        noise_sigma=args.noise,
        nonlinearity=args.nonlinearity,
        correlation_rho=args.rho,
        output_sign=signs,
        seed=args.seed if args.seed is not None else 0,
    )
    dataset, truth = synth_mod.generate(spec)
    synth_mod.write_outputs(dataset, truth, args.out)
    return EXIT_OK


def _load_model(path: str) -> tuple[BoutsModel, list[Standardizer]]:
    """Decode a model.json bundle: the model and one standardizer per task.

    Any defect in the file is a data error that names it.
    """
    try:
        with open(path) as fh:
            bundle = json.load(fh)
        model = BoutsModel.from_dict(bundle["model"])
        standardizers = [
            Standardizer.from_dict(bundle["standardizers"][name]) for name in model.task_names
        ]
        d = len(model.feature_names)
        for name, st in zip(model.task_names, standardizers):
            if st.x_mean.shape != (d,) or st.x_std.shape != (d,):
                raise DataError(f"standardizer of task {name!r} does not have {d} features")
    except (AttributeError, DataError, KeyError, TypeError, ValueError) as e:
        problem = f"missing key {e}" if isinstance(e, KeyError) else e
        raise DataError(f"{path}: invalid model file: {problem}") from None
    return model, standardizers


def cmd_predict(args: argparse.Namespace) -> int:
    model, standardizers = _load_model(args.model)
    if args.task is not None:
        task_name = args.task
    elif len(model.task_names) == 1:
        task_name = model.task_names[0]
    else:
        raise DataError(f"--task required; model covers {model.task_names}")
    if task_name not in model.task_names:
        raise DataError(f"unknown task {task_name!r}; model covers {model.task_names}")
    t = model.task_names.index(task_name)
    standardizer = standardizers[t]

    task = load_task_csv(args.data, task_name)
    pos = {f: i for i, f in enumerate(task.feature_names)}
    missing = [f for f in model.feature_names if f not in pos]
    if missing:
        raise DataError(f"input file lacks feature column {missing[0]!r}")
    X = task.X[:, [pos[f] for f in model.feature_names]]
    y_pred_std = model.predict(t, standardizer.transform_X(X))
    y_pred = standardizer.inverse_y(y_pred_std)

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["sample_id", "y_true", "y_pred"])
        for sid, yt, yp in zip(task.sample_ids, task.y, y_pred):
            writer.writerow([sid, repr(float(yt)), repr(float(yp))])
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser, manifest: bool = True) -> None:
    if manifest:
        parser.add_argument("--manifest", required=True, help="JSON manifest of task CSVs")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--config", help="JSON config file; flags override its keys")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--learning-rate", dest="learning_rate", type=float, default=None)
    parser.add_argument("--rounds-universal", dest="rounds_universal", type=int, default=None)
    parser.add_argument("--rounds-task", dest="rounds_task", type=int, default=None)
    parser.add_argument(
        "--lambda", dest="lam", type=float, default=None, help="shared feature penalty"
    )
    parser.add_argument("--grid-points", dest="grid_points", type=int, default=None)
    parser.add_argument("--grid-base", dest="grid_base", default=None)
    parser.add_argument("--max-depth", dest="max_depth", type=int, default=None)
    parser.add_argument(
        "--min-samples-leaf", dest="min_samples_leaf", type=int, default=None
    )
    parser.add_argument("--min-gain", dest="min_gain", type=float, default=None)
    parser.add_argument("--criterion", choices=CRITERIA, default=None)
    parser.add_argument(
        "--stability-variant",
        dest="stability_variant",
        choices=VARIANTS,
        default=None,
    )
    parser.add_argument("--replicates", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bouts",
        description="Two-stage boosted universal and task-specific feature selection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit the selector and write reports")
    _add_common(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_path = sub.add_parser("path", help="sweep the penalty grid")
    _add_common(p_path)
    p_path.set_defaults(func=cmd_path)

    p_stab = sub.add_parser("stability", help="replicate-split stability study")
    _add_common(p_stab)
    p_stab.set_defaults(func=cmd_stability)

    p_synth = sub.add_parser("synth", help="generate planted-truth data")
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--tasks", type=int, default=3)
    p_synth.add_argument("--features", type=int, default=50)
    p_synth.add_argument("--samples", default="500", help="count, or comma list per task")
    p_synth.add_argument("--n-universal", dest="n_universal", type=int, default=3)
    p_synth.add_argument("--n-specific", dest="n_specific", type=int, default=2)
    p_synth.add_argument("--universal", help="explicit comma-separated indices")
    p_synth.add_argument("--specific", help="explicit indices, ';' between tasks")
    p_synth.add_argument("--signs", help="comma-separated +1/-1 per task")
    p_synth.add_argument("--noise", type=float, default=0.1)
    p_synth.add_argument("--rho", type=float, default=0.0)
    p_synth.add_argument(
        "--nonlinearity", choices=synth_mod.NONLINEARITIES, default=synth_mod.QUADRATIC
    )
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.set_defaults(func=cmd_synth)

    p_pred = sub.add_parser("predict", help="predict a task CSV with a saved model")
    p_pred.add_argument("--model", required=True, help="model.json from fit")
    p_pred.add_argument("--data", required=True, help="task CSV to score")
    p_pred.add_argument("--task", help="task name (required for multitask models)")
    p_pred.add_argument("--out", required=True, help="output predictions CSV")
    p_pred.set_defaults(func=cmd_predict)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DataError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, BoutsError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
