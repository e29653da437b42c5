"""Command-line surface: fit, path, stability, synth, predict.

``fit``, ``path``, ``stability`` and ``synth`` take only the options they read, each
declared once in an ``Option`` table whose kind gives its type and range.  The first
three also take them as keys of a ``--config`` JSON file (flags win); ``synth`` takes
no ``--config``.  An unknown key, or a value of the wrong type or out of range, is a
usage error.  Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Any, Callable, NamedTuple, Optional, Sequence

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
    read_json,
    standardize_dataset,
    Standardizer,
    valid_ratios,
    write_csv,
    write_json,
)
from .errors import BoutsError, DataError, NumericalError
from .trees import CRITERIA, TreeParams

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


class Kind(NamedTuple):
    """A type of option value: its name in messages, how a flag's text reads, its range."""

    name: str
    read: Optional[Callable[[str], Any]]  # None: no flag and no single JSON number gives it
    holds: Callable[[Any], bool] = lambda value: True


def _ints(text: str) -> list[int]:
    """A comma list of integers; empty items are skipped, so "" is the empty list."""
    return [int(v) for v in text.split(",") if v.strip()]


INTEGER, NUMBER, STRING = Kind("an integer", int), Kind("a number", float), Kind("a string", str)
COUNT = Kind("an integer >= 1", int, lambda v: v >= 1)
SIZE = Kind("an integer >= 0", int, lambda v: v >= 0)
REPLICATES = Kind("an integer >= 2", int, lambda v: v >= 2)
FRACTION = Kind("a number in (0, 1)", float, lambda v: 0 < v < 1)
BASE = Kind('a number or "e"', lambda text: math.e if text == "e" else float(text))
RATIOS = Kind("three positive numbers summing to 1", None, valid_ratios)
PENALTIES = Kind("a number or a list of numbers", float)
# synth's kinds: synth takes no --config, so only flags give them.
SCALE = Kind("a finite number >= 0", float, lambda v: 0 <= v < math.inf)  # NaN fails too
RHO = Kind("a number in [0, 1)", float, lambda v: 0 <= v < 1)
INTEGERS = Kind("a comma list of integers", _ints)
COUNTS = Kind("a comma list of integers >= 1", _ints, lambda v: len(v) > 0 and min(v) >= 1)
SIGNS = Kind("a comma list of 1 and -1", _ints, lambda v: {*v} <= {1, -1})
INDEX_SETS = Kind(
    "comma lists of integers, ';' between tasks", lambda text: [*map(_ints, text.split(";"))]
)


class Option(NamedTuple):
    """One setting: its config key, its kind, its flag (None when config-only)."""

    key: str
    kind: Kind
    flag: Optional[str] = None
    choices: Optional[Sequence[str]] = None


def _flag_type(kind: Kind) -> Callable[[str], Any]:
    """The argparse type of a flag of ``kind``: a value out of its range is a usage error."""

    def read(text: str):
        try:
            value = kind.read(text)
            if kind.holds(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {kind.name}, got {text!r}")

    return read


def _from_json(value, opt: Option, where: str):
    """A config value as ``opt`` takes it; a ValueError naming ``where`` if it is not one."""
    number, kind = {int, float}, opt.kind  # exact JSON types: a bool is not a number
    try:
        if type(value) in number and kind.read is int and value == int(value):
            value = int(value)
        elif type(value) in number and kind.read in (float, BASE.read):
            value = float(value)
        elif type(value) is list and kind in (RATIOS, PENALTIES) and {*map(type, value)} <= number:
            value = [float(v) for v in value]
        elif type(value) is str and kind in (BASE, STRING):
            value = kind.read(value)
        else:
            value = None  # no value of this JSON type is one of this kind
        if value is not None and kind.holds(value) and (not opt.choices or value in opt.choices):
            return value
    except (ValueError, OverflowError):
        pass
    want = f"one of {opt.choices}" if opt.choices else kind.name
    raise ValueError(f"{where}: {opt.key!r} must be {want}")


# Each option is declared once; a subcommand registers the groups it reads.
SEED = Option("seed", SIZE, "--seed")
JOBS = Option("jobs", COUNT, "--jobs")
SPLIT = (SEED, Option("ratios", RATIOS))
BOOST = (
    Option("rounds_universal", INTEGER, "--rounds-universal"),
    Option("rounds_task", INTEGER, "--rounds-task"),
    Option("learning_rate", NUMBER, "--learning-rate"),
    Option("max_depth", INTEGER, "--max-depth"),
    Option("min_samples_leaf", INTEGER, "--min-samples-leaf"),
    Option("min_gain", NUMBER, "--min-gain"),
    Option("criterion", STRING, "--criterion", CRITERIA),
)
# ``path`` sets both penalties from its grid, so only fit and stability read these.
PENALTY = (
    Option("lam", NUMBER, "--lambda"),
    Option("lambda_u", NUMBER),
    Option("lambda_task", PENALTIES),
)
PATH = (
    Option("grid_points", INTEGER, "--grid-points"),
    Option("grid_base", BASE, "--grid-base"),
    Option("drop", FRACTION),
    JOBS,
)
STABILITY = (
    SEED,
    JOBS,
    Option("replicates", REPLICATES, "--replicates"),
    Option("stability_variant", STRING, "--stability-variant", VARIANTS),
    Option("alpha", FRACTION),
)
SYNTH = (
    Option("tasks", COUNT, "--tasks"),
    Option("features", COUNT, "--features"),
    Option("samples", COUNTS, "--samples"),
    Option("n_universal", SIZE, "--n-universal"),
    Option("n_specific", SIZE, "--n-specific"),
    Option("universal", INTEGERS, "--universal"),
    Option("specific", INDEX_SETS, "--specific"),
    Option("signs", SIGNS, "--signs"),
    Option("noise", SCALE, "--noise"),
    Option("rho", RHO, "--rho"),
    Option("nonlinearity", STRING, "--nonlinearity", synth_mod.NONLINEARITIES),
    SEED,
)
# synth's defaults where SynthSpec has none: 3 tasks of 500 rows and 50 features,
# 3 of them universal and 2 more specific to each task.
SYNTH_DEFAULTS = {"tasks": 3, "features": 50, "samples": [500], "n_universal": 3, "n_specific": 2}


def _settings(args: argparse.Namespace) -> dict:
    """The options given: the config file's keys, overridden by the flags given."""
    table = {opt.key: opt for opt in args.options}
    settings: dict = {}
    if "config" in args:
        cfg = read_json(args.config, "config file")
        if not isinstance(cfg, dict):
            raise DataError(f"config file {args.config} must hold a JSON object")
        for key, value in cfg.items():
            if key not in table:
                raise ValueError(f"config file {args.config}: {args.command} takes no key {key!r}")
            settings[key] = _from_json(value, table[key], f"config file {args.config}")
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


def _jobs(cfg: dict) -> int:
    """Worker processes: ``jobs`` if given, else the CPUs this process may run on."""
    if "jobs" in cfg:
        return cfg["jobs"]
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _naming(manifest: str, run, *args, **kwargs):
    """``run(*args, **kwargs)``; a data or numerical error it raises names ``manifest``."""
    try:
        return run(*args, **kwargs)
    except BoutsError as e:
        raise type(e)(f"{manifest}: {e}") from None


def _load_standardized(manifest: str, cfg: dict):
    dataset = load_manifest(manifest)
    split = overlap_split(dataset.tasks, **_pick(cfg, "ratios", "seed"))
    standardized, standardizers = _naming(manifest, standardize_dataset, dataset, split)
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

    write_json(os.path.join(args.out, "model.json"), _model_bundle(model, standardizers))
    selected = {
        "universal": boosting.universal_features(model),
        "task_specific": {
            name: boosting.task_specific_features(model, t)
            for t, name in enumerate(model.task_names)
        },
    }
    write_json(os.path.join(args.out, "selected_features.json"), selected)
    importances = {
        name: boosting.feature_importances(model, t)
        for t, name in enumerate(model.task_names)
    }
    write_json(os.path.join(args.out, "importances.json"), importances)
    write_json(os.path.join(args.out, "split.json"), split.to_dict(dataset.tasks))

    rows = []
    for t, task in enumerate(standardized.tasks):
        test = split.test[t]
        nae = np.abs(task.y[test] - model.predict(t, task.X[test]))
        q25, med, q75 = np.percentile(nae, (25, 50, 75)).tolist() if len(nae) else (None,) * 3
        rows.append((task.name, len(test), med, q25, q75))
    header = ("task", "n_test", "nae_median", "nae_q25", "nae_q75")
    write_csv(os.path.join(args.out, "metrics.csv"), header, rows)
    return EXIT_OK


def cmd_path(args: argparse.Namespace) -> int:
    cfg = _settings(args)
    config = _boost_config(cfg)
    grid = pathsweep.log_grid(**_pick(cfg, n_points="grid_points", base="grid_base"))
    _, standardized, _, split = _load_standardized(args.manifest, cfg)
    path = _naming(args.manifest, pathsweep.sweep, standardized, split, config, grid, _jobs(cfg))
    chosen = pathsweep.select_penalty(path, **_pick(cfg, "drop"))
    os.makedirs(args.out, exist_ok=True)
    write_csv(os.path.join(args.out, "path.csv"), *path.csv_rows())
    write_json(os.path.join(args.out, "path.json"), path.to_dict())
    write_json(os.path.join(args.out, "selected_lambda.json"), chosen)
    rows = []
    for point in path.points:
        rows += [(point.lam, name, "universal") for name in point.universal]
        for task_name, names in zip(path.task_names, point.task_specific):
            rows += [(point.lam, name, task_name) for name in names]
    write_csv(os.path.join(args.out, "features_by_lambda.csv"), ("lambda", "feature", "role"), rows)
    return EXIT_OK


def cmd_stability(args: argparse.Namespace) -> int:
    cfg = _settings(args)
    config = _boost_config(cfg)
    for opt in BOOST[:2]:  # the stage budgets: a replicate compares the two stages
        if (rounds := getattr(config, opt.key)) < 1:
            raise ValueError(f"stability needs {opt.flag} ({opt.key!r}) >= 1, got {rounds}")
    dataset = load_manifest(args.manifest)
    variant = cfg.get("stability_variant", NORMALIZED)
    alpha = cfg.get("alpha", ALPHA)
    Z_u, Z_tasks = _naming(
        args.manifest, selection_replicates, dataset, config, jobs=_jobs(cfg),
        **_pick(cfg, "replicates", "seed"),
    )
    report = {
        "variant": variant,
        "alpha": alpha,
        "replicates": Z_u.n_replicates,
        "universal": make_report(Z_u, alpha, variant),
        "tasks": {},
        "comparisons": {},
    }
    for name, Z_t in zip(dataset.task_names, Z_tasks):
        report["tasks"][name] = make_report(Z_t, alpha, variant)
        t_stat, p = ztest(Z_u, Z_t, variant)
        report["comparisons"][name] = {
            "t": t_stat,
            "p": p,
            "cohens_d": cohens_d(Z_u, Z_t, variant),
        }
    os.makedirs(args.out, exist_ok=True)
    write_json(os.path.join(args.out, "stability_report.json"), _finite_or_str(report))
    write_csv(os.path.join(args.out, "Z_universal.csv"), *Z_u.csv_rows())
    for name, Z_t in zip(dataset.task_names, Z_tasks):
        write_csv(os.path.join(args.out, f"Z_{name}.csv"), *Z_t.csv_rows())
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


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = SYNTH_DEFAULTS | _settings(args)
    tasks, d = cfg["tasks"], cfg["features"]
    samples = cfg["samples"] * tasks if len(cfg["samples"]) == 1 else cfg["samples"]
    per_task = {"--samples": samples, "--specific": cfg.get("specific"), "--signs": cfg.get("signs")}
    for flag, values in per_task.items():
        if values is not None and len(values) != tasks:
            raise ValueError(f"{flag} has {len(values)} entries for --tasks {tasks}")
    # A count lists no index past the first 6 at or above d: any such index is refused.
    universal = cfg["universal"] if "universal" in cfg else list(range(d + 6)[: cfg["n_universal"]])
    if "specific" in cfg:
        task_specific = cfg["specific"]
    else:
        base, k = len(universal), cfg["n_specific"]
        span = range(base, max(base, d) + 6)
        task_specific = [list(span[t * k : (t + 1) * k]) for t in range(tasks)]
    planted = {*universal, *(f for part in task_specific for f in part)}
    outside = sorted(f for f in planted if not 0 <= f < d)
    n_planted = len(set(universal)) + sum(map(len, task_specific))  # as SynthSpec counts them
    if outside or n_planted >= d:  # the flags' fault, so a usage error
        flags = " and ".join((
            "--universal" if "universal" in cfg else f"--n-universal {cfg['n_universal']}",
            "--specific" if "specific" in cfg else f"--n-specific {cfg['n_specific']}",
        ))
        if outside:
            shown = ", ".join(map(str, outside[:5])) + (", ..." if len(outside) > 5 else "")
            what = f"planted feature indices [{shown}] of {flags} outside [0, {d})"
        else:
            what = f"no nuisance feature beside the {n_planted} planted ones of {flags}"
        raise ValueError(f"--features {d} leaves {what}")
    spec = synth_mod.SynthSpec(
        n_samples=samples,
        universal=universal,
        task_specific=task_specific,
        **_pick(cfg, "nonlinearity", "seed", n_tasks="tasks", n_features="features",
                noise_sigma="noise", correlation_rho="rho", output_sign="signs"),
    )
    dataset, truth = synth_mod.generate(spec)
    synth_mod.write_outputs(dataset, truth, args.out)
    return EXIT_OK


def _load_model(path: str) -> tuple[BoutsModel, list[Standardizer]]:
    """Decode a model.json bundle: the model and one standardizer per task.

    Any defect in the file is a data error that names it.
    """
    bundle = read_json(path, "model file")
    try:
        saved = {**bundle["model"]["config"], **bundle["model"]["config"]["tree"]}
        for opt in (opt for opt in BOOST + PENALTY if opt.key != "lam"):
            _from_json(saved[opt.key], opt, "config")  # as a --config file must give it
        model = BoutsModel.from_dict(bundle["model"])
        d = len(model.feature_names)
        standardizers = []
        for name in model.task_names:
            entry = bundle["standardizers"][name]
            try:
                st = Standardizer.from_dict(entry)
            except (DataError, KeyError, TypeError) as e:
                problem = f"missing key {e}" if isinstance(e, KeyError) else e
                raise DataError(f"standardizer of task {name!r}: {problem}") from None
            if st.x_mean.shape != (d,) or st.x_std.shape != (d,):
                raise DataError(f"standardizer of task {name!r} does not have {d} features")
            if not (np.append(st.x_std, st.y_std) > 0).all():
                raise DataError(f"standardizer of task {name!r} needs scales > 0")
            standardizers.append(st)
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
        raise DataError(f"--task required; {args.model} covers {model.task_names}")
    if task_name not in model.task_names:
        raise DataError(f"unknown task {task_name!r}; {args.model} covers {model.task_names}")
    t = model.task_names.index(task_name)
    standardizer = standardizers[t]

    # Only the columns task t's trees split on are parsed, standardized and routed on.
    used = sorted(model.universal_feature_indices | model.task_feature_indices(t))
    task = load_task_csv(args.data, task_name, {model.feature_names[j] for j in used})
    pos = {f: i for i, f in enumerate(task.feature_names)}
    missing = [f for f in model.feature_names if f not in pos]
    if missing:
        raise DataError(f"{args.data}: lacks feature column {missing[0]!r} of {args.model}")
    X = task.X.T[[pos[model.feature_names[j]] for j in used]].T
    # A column the model never splits on may hold missing cells; the others may not.
    rows, cols = np.nonzero(np.isnan(X))
    if len(rows):
        sid, column = task.sample_ids[rows[0]], model.feature_names[used[cols[0]]]
        raise DataError(f"{args.data}: sample {sid!r}, column {column!r}: missing value")
    XT = standardizer.transform_X(X, used).T
    y_pred_std = model.predict_columns(t, dict(zip(used, XT)), len(X))
    y_pred = standardizer.inverse_y(y_pred_std)

    rows = zip(task.sample_ids, task.y.tolist(), y_pred.tolist())
    write_csv(args.out, ("sample_id", "y_true", "y_pred"), rows)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bouts",
        description="Two-stage boosted universal and task-specific feature selection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, options, help_text in (
        ("fit", cmd_fit, SPLIT + BOOST + PENALTY, "fit the selector and write reports"),
        ("path", cmd_path, SPLIT + BOOST + PATH, "sweep the penalty grid"),
        ("stability", cmd_stability, BOOST + PENALTY + STABILITY, "replicate-split stability study"),
        ("synth", cmd_synth, SYNTH, "generate planted-truth data"),
    ):
        # A flag not given sets no attribute: the config file, the command or the library decides.
        cmd = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        if func is not cmd_synth:  # synth reads no data and no config file
            cmd.add_argument("--manifest", required=True, help="JSON manifest of task CSVs")
            cmd.add_argument("--config", help="JSON config file; flags override its keys")
        cmd.add_argument("--out", required=True, help="output directory")
        for opt in (opt for opt in options if opt.flag):
            cmd.add_argument(
                opt.flag, dest=opt.key, type=_flag_type(opt.kind), choices=opt.choices,
                help=None if opt.choices else opt.kind.name,
            )
        cmd.set_defaults(func=func, options=options)

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
