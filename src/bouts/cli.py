"""Command-line surface: fit, path, stability, synth, predict.

``fit``, ``path`` and ``stability`` take only the options they read, as flags or as
keys of a ``--config`` JSON file (flags win); an unknown key or a wrongly typed value
is a usage error.  Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical error.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import json
import math
import os
import sys
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import boosting, pathsweep, synth as synth_mod
from .boosting import BoostConfig, BoutsModel, fit
# The package root re-exports a function named ``stability``, which shadows
# the submodule attribute, so pull the needed names straight from the module.
from .stability import (
    ALPHA,
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
)
from .errors import BoutsError, DataError, NumericalError
from .trees import CRITERIA, TreeParams

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


INTEGER, NUMBER, STRING, BASE = "an integer", "a number", "a string", 'a number or "e"'
FRACTION = "a number in (0, 1)"
NUMBERS, PENALTIES = "a list of numbers", "a number or a list of numbers"


class Option(NamedTuple):
    """One setting: its config key, its type, its flag (None when config-only)."""

    key: str
    kind: str  # the option's type, named as in error messages
    flag: Optional[str] = None
    choices: Optional[Sequence[str]] = None


def _grid_base(text: str) -> float:
    return math.e if text == "e" else float(text)


FLAG_TYPES = {INTEGER: int, NUMBER: float, STRING: str, BASE: _grid_base}


def _from_json(value, opt: Option):
    """A config value as ``opt`` takes it; raises TypeError or ValueError if it is not one."""
    number = {int, float}  # exact JSON types: a bool is not a number
    if opt.kind == INTEGER and type(value) in number and value == int(value):
        return int(value)
    if opt.kind in (NUMBER, PENALTIES, BASE) and type(value) in number:
        return float(value)
    if opt.kind == FRACTION and type(value) in number and 0 < value < 1:
        return float(value)
    if opt.kind in (NUMBERS, PENALTIES) and type(value) is list and {*map(type, value)} <= number:
        return [float(v) for v in value]
    if opt.kind == BASE and isinstance(value, str) or opt.kind == STRING and value in opt.choices:
        return FLAG_TYPES[opt.kind](value)
    raise TypeError(opt.kind)


# Each option is declared once; a subcommand registers the groups it reads.
SEED = Option("seed", INTEGER, "--seed")
SPLIT = (SEED, Option("ratios", NUMBERS))
BOOST = (
    Option("rounds_universal", INTEGER, "--rounds-universal"),
    Option("rounds_task", INTEGER, "--rounds-task"),
    Option("learning_rate", NUMBER, "--learning-rate"),
    Option("lam", NUMBER, "--lambda"),
    Option("lambda_u", NUMBER),
    Option("lambda_task", PENALTIES),
    Option("max_depth", INTEGER, "--max-depth"),
    Option("min_samples_leaf", INTEGER, "--min-samples-leaf"),
    Option("min_gain", NUMBER, "--min-gain"),
    Option("criterion", STRING, "--criterion", CRITERIA),
)
PATH = (
    Option("grid_points", INTEGER, "--grid-points"),
    Option("grid_base", BASE, "--grid-base"),
    Option("drop", FRACTION),
)
STABILITY = (
    SEED,
    Option("jobs", INTEGER, "--jobs"),
    Option("replicates", INTEGER, "--replicates"),
    Option("stability_variant", STRING, "--stability-variant", VARIANTS),
    Option("alpha", FRACTION),
)


def _settings(args: argparse.Namespace) -> dict:
    """The options given: the config file's keys, overridden by the flags given."""
    table = {opt.key: opt for opt in args.options}
    settings: dict = {}
    if "config" in args:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise DataError(f"cannot read config file {args.config}: {e}") from None
        if not isinstance(cfg, dict):
            raise DataError(f"config file {args.config} must hold a JSON object")
        for key, value in cfg.items():
            if key not in table:
                raise ValueError(f"config file {args.config}: {args.command} takes no key {key!r}")
            opt = table[key]
            try:
                settings[key] = _from_json(value, opt)
            except (TypeError, ValueError, OverflowError):
                want = f"one of {opt.choices}" if opt.choices else opt.kind
                raise ValueError(f"config file {args.config}: {key!r} must be {want}") from None
    settings.update((key, value) for key, value in vars(args).items() if key in table)
    return settings


def _pick(settings: dict, *keys: str, **renamed: str) -> dict:
    """Keyword arguments for the settings given; ``renamed`` maps argument to key."""
    names = [*zip(keys, keys), *renamed.items()]
    return {arg: settings[key] for arg, key in names if key in settings}


def _boost_config(cfg: dict) -> BoostConfig:
    # lambda_u and lambda_task fall back to the shared --lambda penalty.
    shared = _pick(cfg, lambda_u="lam", lambda_task="lam")
    own = _pick(cfg, "rounds_universal", "rounds_task", "learning_rate", "lambda_u", "lambda_task")
    tree = TreeParams(**_pick(cfg, "max_depth", "min_samples_leaf", "min_gain", "criterion"))
    return BoostConfig(tree=tree, **(shared | own))


def _load_standardized(manifest: str, cfg: dict):
    dataset = load_manifest(manifest)
    split = overlap_split(dataset.tasks, **_pick(cfg, "ratios", "seed"))
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
    cfg = _settings(args)
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
    cfg = _settings(args)
    config = _boost_config(cfg)
    grid = pathsweep.log_grid(**_pick(cfg, n_points="grid_points", base="grid_base"))
    _, standardized, _, split = _load_standardized(args.manifest, cfg)
    path = pathsweep.sweep(standardized, split, config, grid)
    chosen = pathsweep.select_penalty(path, **_pick(cfg, "drop"))
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
    cfg = _settings(args)
    config = _boost_config(cfg)
    dataset = load_manifest(args.manifest)
    variant = cfg.get("stability_variant", NORMALIZED)
    alpha = cfg.get("alpha", ALPHA)
    Z_u, Z_tasks = selection_replicates(dataset, config, **_pick(cfg, "replicates", "seed", "jobs"))
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
        seed=args.seed,
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
            means, scales = np.append(st.x_mean, st.y_mean), np.append(st.x_std, st.y_std)
            if not (np.isfinite(means).all() and np.isfinite(scales).all() and (scales > 0).all()):
                raise DataError(
                    f"standardizer of task {name!r} needs finite means and finite scales > 0"
                )
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bouts",
        description="Two-stage boosted universal and task-specific feature selection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, options, help_text in (
        ("fit", cmd_fit, SPLIT + BOOST, "fit the selector and write reports"),
        ("path", cmd_path, SPLIT + BOOST + PATH, "sweep the penalty grid"),
        ("stability", cmd_stability, BOOST + STABILITY, "replicate-split stability study"),
    ):
        # A flag not given sets no attribute: the config file or the library decides.
        cmd = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        cmd.add_argument("--manifest", required=True, help="JSON manifest of task CSVs")
        cmd.add_argument("--out", required=True, help="output directory")
        cmd.add_argument("--config", help="JSON config file; flags override its keys")
        for opt in (opt for opt in options if opt.flag):
            cmd.add_argument(opt.flag, dest=opt.key, type=FLAG_TYPES[opt.kind], choices=opt.choices)
        cmd.set_defaults(func=func, options=options)

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


def _keep_freed_heap() -> None:
    """Let glibc keep up to 64 MB of freed heap instead of returning it to the OS.

    Every node's split scan allocates and frees a few hundred KB of temporaries.
    With glibc's default trim threshold the freed top of the heap is returned
    after each scan and the next scan faults it in again: about a million page
    faults, a quarter of the run time, in a 2-point ``path`` on the planted
    3x50x500 set.  Where the C library has no ``mallopt`` this does nothing.
    """
    M_TRIM_THRESHOLD = -1
    try:
        ctypes.CDLL(None).mallopt(M_TRIM_THRESHOLD, 64 << 20)
    except (AttributeError, OSError, TypeError):
        pass


def main(argv: Optional[Sequence[str]] = None) -> int:
    _keep_freed_heap()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DataError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, BoutsError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
