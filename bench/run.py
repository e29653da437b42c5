#!/usr/bin/env python3
"""End-to-end benchmark of the ``bouts`` command line.

Run from the repository root:

    python3 bench/run.py --workload fit --seed 0 --seconds 25 --trace 0

Workloads (see bench/README.md for why each exists and what it stresses):

    fit        bouts fit on the planted set (3 tasks x 50 features x 500)
    path       bouts path --grid-points 5 on the same planted set
    stability  bouts stability --replicates 4 --jobs 2 on the A5 set
    predict    bouts predict of a 20 000-row CSV with a model fitted in set-up

Every op calls ``bouts.cli.main`` in this process and checks its outputs.
The data comes from ``bouts synth`` with ``--seed``.  With ``--trace 0`` the
end-to-end metrics are reported, with timings scaled to the reference
host's nominal speed by a fixed kernel sampled throughout the run; with
``--trace 1`` the per-layer metrics of a traced run, plus the tracing
overhead.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is a JSON report with the
provenance, output digests and per-op samples.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy is imported: load comes only from this
# process and the stability workload's two pool workers.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import functools
import glob
import hashlib
import json
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

# Set-up runs 3 to 9 times, as many as fit in SETUP_SHARE of the run, spread
# over the run, and its median is reported, so a slow first set-up (cold file
# cache, lazy imports) or one burst of host load does not decide ``setup_s``.
SETUP_SHARE = 0.15
PLANTED = ["--tasks", "3", "--features", "50", "--samples", "500",
           "--n-universal", "3", "--n-specific", "2"]
A5 = ["--tasks", "3", "--features", "30", "--samples", "100,1000,1000",
      "--specific", "3;4;5", "--noise", "0.5", "--signs", "1,-1,1"]
PREDICT_ROWS = 20000
PATH_POINTS = 5
REPLICATES = 4
JOBS = 2

# The host-speed reference kernel (see ``reference`` and ``HostSpeed``): its
# fixed inputs, its length, a round figure near its median seconds on the
# reference host (bench/README.md), which defines the nominal speed that
# timings are scaled to, and how often it is sampled.
_REF_RNG = np.random.default_rng(12345)
REF_X = _REF_RNG.standard_normal((500, 50))
REF_Y = _REF_RNG.standard_normal(500)
REF_ROUNDS = 8
REF_NOMINAL_S = 0.012
REF_PERIOD_S = 0.25

PER_LAYER = (
    "trees.scan_columns.self_s", "trees.scan_columns.calls", "trees.scan_columns.cells",
    "trees.best_on_feature.calls",
    "trees.best_split_single.self_s", "trees.best_split_single.leaf_share",
    "trees.grow_tree.s", "trees.grow_tree.calls",
    "trees.Tree.predict.s", "trees.Tree.predict.rows",
    "multitask.maximin_split.self_s", "multitask.maximin_split.calls",
    "multitask.maximin_split.leaf_share",
    "multitask.grow_multitask_tree.s", "multitask.grow_multitask_tree.calls",
    "multitask.MultitaskTree.predict.s", "multitask.MultitaskTree.predict.rows",
    "boosting.fit.s", "boosting.fit.calls",
    "boosting.fit_single_task.s", "boosting.fit_single_task.calls",
    "boosting.rounds_accepted",
    "boosting.BoutsModel.predict.s", "boosting.BoutsModel.from_dict.s",
    "pathsweep.downstream_scores.s", "pathsweep.downstream_scores.calls",
    "pathsweep.sweep.self_s",
    "stability.selection_replicates.s", "stability.replicate_s", "stability.pool_efficiency",
    "data.load_task_csv.s", "data.load_task_csv.cells",
    "data.overlap_split.s", "data.standardize_dataset.s", "data.standardize_dataset.calls",
    "cli.main.self_s",
    "synth.generate.s", "synth.write_outputs.s",
    "trace.spans", "trace.overhead_s", "trace.overhead_share",
)
UNITS = {"s": "s", "self_s": "s", "calls": "count", "cells": "count", "rows": "count",
         "rounds_accepted": "count", "spans": "count", "leaf_share": "share",
         "replicate_s": "s", "pool_efficiency": "share", "overhead_s": "s",
         "overhead_share": "share"}


class CheckFailed(Exception):
    """An op ran but its output is wrong."""


def cli(argv: list[str]) -> None:
    from bouts.cli import main

    code = main(argv)
    if code != 0:
        raise CheckFailed(f"bouts {argv[0]} exited {code}")


def sha256_files(paths: list[str]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


class Workload:
    """One op type: set-up, the op itself, and its output check.

    ``headline`` names the workload's own figure in the report line:
    ``op_s``, or, when ``items`` is set, ``items`` per ``op_s``.  ``workers``
    counts the pool processes an op starts.
    """

    headline = ""
    items = 0
    workers = 0
    synth_args = PLANTED

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self, d: str) -> None:
        self.data = os.path.join(d, "data")
        cli(["synth", "--out", self.data, *self.synth_args, "--seed", str(self.seed)])

    def op(self, out: str) -> None:
        raise NotImplementedError

    def check(self, out: str) -> str:
        """Raise CheckFailed on a wrong output; return the output digest.

        Every op of a run must give the same digest.
        """
        raise NotImplementedError


class Fit(Workload):
    headline = "fit_s"

    def op(self, out):
        cli(["fit", "--manifest", f"{self.data}/manifest.json", "--out", out,
             "--lambda", "5", "--seed", str(self.seed)])

    def check(self, out):
        # Planted-recovery rule of acceptance test A3.
        truth = set(read_json(f"{self.data}/truth.json")["universal"])
        got = set(read_json(f"{out}/selected_features.json")["universal"])
        if not truth <= got or len(got - truth) > 2:
            raise CheckFailed(f"universal {sorted(got)} vs planted {sorted(truth)}")
        return sha256_files([f"{out}/model.json", f"{out}/selected_features.json"])


class Path(Workload):
    headline = "path_s"

    def op(self, out):
        cli(["path", "--manifest", f"{self.data}/manifest.json", "--out", out,
             "--grid-points", str(PATH_POINTS), "--seed", str(self.seed)])

    def check(self, out):
        # The digest covers the chosen index and every point's feature sets,
        # so ops that repeat it repeat those.
        points = read_json(f"{out}/path.json")["points"]
        index = read_json(f"{out}/selected_lambda.json")["index"]
        if len(points) != PATH_POINTS or not 0 <= index < PATH_POINTS:
            raise CheckFailed(f"{len(points)} path points, chosen index {index}")
        return sha256_files([f"{out}/path.json", f"{out}/selected_lambda.json"])


class Stability(Workload):
    headline = "replicates_per_s"
    items = REPLICATES
    workers = JOBS
    synth_args = A5

    def op(self, out, jobs=JOBS):
        cli(["stability", "--manifest", f"{self.data}/manifest.json", "--out", out,
             "--replicates", str(REPLICATES), "--jobs", str(jobs), "--lambda", "2",
             "--seed", str(self.seed)])

    def check(self, out):
        paths = sorted(glob.glob(f"{out}/Z_*.csv"))
        if len(paths) != 4:
            raise CheckFailed(f"expected 4 Z matrices, found {paths}")
        return sha256_files(paths)


class Predict(Workload):
    headline = "predict_rows_per_s"
    items = PREDICT_ROWS

    def setup(self, d):
        super().setup(d)
        self.model = os.path.join(d, "model")
        cli(["fit", "--manifest", f"{self.data}/manifest.json", "--out", self.model,
             "--lambda", "5", "--seed", str(self.seed)])
        rows = os.path.join(d, "rows")
        cli(["synth", "--out", rows, "--tasks", "1", "--features", "50",
             "--samples", str(PREDICT_ROWS), "--seed", str(self.seed + 1)])
        self.rows = os.path.join(rows, "task0.csv")
        self.reference = None  # BoutsModel.predict on the rows, made once

    def op(self, out):
        cli(["predict", "--model", f"{self.model}/model.json", "--data", self.rows,
             "--task", "task0", "--out", f"{out}/pred.csv"])

    def check(self, out):
        if self.reference is None:
            self.reference = self._library_predictions()
        with open(f"{out}/pred.csv", newline="") as fh:
            got = [float(row["y_pred"]) for row in csv.DictReader(fh)]
        if got != self.reference:
            raise CheckFailed("predictions differ from BoutsModel.predict")
        return sha256_files([f"{out}/pred.csv"])

    def _library_predictions(self) -> list[float]:
        from bouts.boosting import BoutsModel
        from bouts.data import Standardizer, load_task_csv

        bundle = read_json(f"{self.model}/model.json")
        model = BoutsModel.from_dict(bundle["model"])
        scaler = Standardizer.from_dict(bundle["standardizers"]["task0"])
        task = load_task_csv(self.rows, "task0")
        cols = [task.feature_names.index(f) for f in model.feature_names]
        pred = model.predict(0, scaler.transform_X(task.X[:, cols]))
        return [float(v) for v in scaler.inverse_y(pred)]


WORKLOADS = {"fit": Fit, "path": Path, "stability": Stability, "predict": Predict}


class Run:
    """Ops of one workload, their timings, and the failure count."""

    def __init__(self, workload: Workload, work: str) -> None:
        self.w = workload
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.digest = None

    def _out(self) -> str:
        out = os.path.join(self.work, "out")
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        return out

    def _record(self, out: str) -> None:
        digest = self.w.check(out)
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            raise CheckFailed("outputs differ from the run's first op")

    def one_op(self, op=None, timer=None) -> float:
        """Run and check one op (the workload's own unless ``op`` is given).

        Returns the op's seconds, without the check: ``timer(run_op)`` when
        a timer is given, else wall seconds.
        """
        out = self._out()
        self.attempted += 1
        errors: list[str] = []

        def run_op() -> None:
            try:
                (op or self.w.op)(out)
            except Exception:  # a failed op is counted, not fatal
                errors.append(traceback.format_exc())

        elapsed = (timer or wall_seconds)(run_op)
        if not errors:
            try:
                self._record(out)
            except Exception:
                errors.append(traceback.format_exc())
        if errors:
            self.failed += 1
            print(errors[0], file=sys.stderr)
        return elapsed

    def repeat(self, seconds: float, step) -> None:
        """Call ``step`` until the next call would likely end past ``seconds``.

        ``step`` returns the seconds it took.  It runs at least once,
        however long it takes.
        """
        times: list[float] = []
        start = time.perf_counter()
        while True:
            times.append(step())
            if time.perf_counter() - start + statistics.median(times) > seconds:
                return

    def check_jobs(self) -> None:
        """On ``stability``, one op at ``--jobs 1`` must repeat the run's digest.

        Results must not depend on ``--jobs``.  The op is not timed.
        """
        if isinstance(self.w, Stability):
            self.one_op(functools.partial(self.w.op, jobs=1))


def peak_rss_mb(workers: int) -> float:
    """Peak resident memory of this process plus ``workers`` pool workers.

    The kernel reports only the largest finished child's peak, so each
    worker is counted at that peak.  A forked worker's peak includes the
    pages it shares copy-on-write with this process, so shared pages are
    counted once per process: the figure is an upper bound of the memory
    the program needs, and a change in this process's own footprint shows
    in it up to ``1 + workers`` times.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * child) / 1024.0


def provenance() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_lines = 0
    for path in glob.glob(os.path.join(SRC, "bouts", "*.py")):
        with open(path, "rb") as fh:
            src_lines += fh.read().count(b"\n")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "src_lines": src_lines,
    }


def git_sha() -> str:
    """HEAD of the checkout; "unknown" outside a git repository.

    git looks no higher than the checkout and reads no user or system config.
    """
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT),
           "GIT_CONFIG_NOSYSTEM": "1", "GIT_CONFIG_GLOBAL": os.devnull}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip()


def reference() -> float:
    """Seconds one pass of a fixed kernel takes on this host right now.

    The kernel is independent of ``bouts``: sorts, cumulative sums and a
    dict-building loop, the same mix of small numpy calls and interpreter
    work as the split search.  It only measures how fast the host runs.
    """
    start = time.perf_counter()
    for _ in range(REF_ROUNDS):
        order = np.argsort(REF_X, axis=0)
        best = 0.0
        for j in range(REF_X.shape[1]):
            left = np.cumsum(REF_Y[order[:, j]])
            best = max(best, float(np.max(left[1:-1] ** 2)))
        counts: dict[int, float] = {}
        for i in range(3000):
            counts[i % 101] = counts.get(i % 101, 0.0) + i * 0.5
    return time.perf_counter() - start


class HostSpeed:
    """Scales wall seconds to the reference host's nominal speed.

    The host's speed drifts by up to 2x, switching within seconds and
    wandering over minutes, and CPU time drifts with wall time, so neither
    is steady from run to run.  While the block of ``sampling()`` runs, a
    timer interrupts this process every ``REF_PERIOD_S`` seconds to time
    one ``reference`` pass, also in the middle of an op.  ``timed`` runs a
    step, subtracts the passes inside it from its wall seconds, and scales
    the rest by ``REF_NOMINAL_S`` over the mean pass inside it and the
    passes just before and after it.
    """

    def __init__(self) -> None:
        reference()  # warm-up: first calls pay for lazy numpy set-up
        self.passes: list[tuple[float, float]] = []  # (start, end) of each pass
        self._busy = False
        self.walls: dict[str, list[float]] = defaultdict(list)
        self.adjusted: dict[str, list[float]] = defaultdict(list)

    def _sample(self, signum, frame) -> None:
        if self._busy:  # the timer fired during a pass
            return
        self._busy = True
        start = time.perf_counter()
        reference()
        self.passes.append((start, time.perf_counter()))
        self._busy = False

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def timed(self, name: str, step) -> float:
        """Run ``step()``, record its timings under ``name``, return its wall seconds."""
        first = len(self.passes)
        start = time.perf_counter()
        step()
        end = time.perf_counter()
        self._sample(None, None)  # the pass just after the step
        inside = [e - s for s, e in self.passes[first:-1] if s >= start and e <= end]
        around = [self.passes[first - 1][1] - self.passes[first - 1][0], *inside,
                  self.passes[-1][1] - self.passes[-1][0]]
        wall = end - start - sum(inside)
        self.walls[name].append(wall)
        self.adjusted[name].append(wall * REF_NOMINAL_S / statistics.mean(around))
        return wall


def wall_seconds(step) -> float:
    start = time.perf_counter()
    step()
    return time.perf_counter() - start


def spare_setup(workload: Workload, work: str) -> None:
    """Set up a fresh copy of ``workload``, then delete its files."""
    d = os.path.join(work, "spare")
    try:
        type(workload)(workload.seed).setup(d)
    finally:
        shutil.rmtree(d, ignore_errors=True)


def measure(workload: Workload, run: Run, seconds: float) -> tuple[dict, dict]:
    clock = HostSpeed()
    time_op = functools.partial(clock.timed, "op_s")

    def setup_again() -> None:
        clock.timed("setup_s", lambda: spare_setup(workload, run.work))

    with clock.sampling():
        first = clock.timed("setup_s", lambda: workload.setup(os.path.join(run.work, "setup")))
        repeats = min(max(round(SETUP_SHARE * seconds / first), 3), 9)
        spacing = 0  # ops between two set-ups, so set-ups spread over the run

        def step() -> float:
            nonlocal spacing
            start = time.perf_counter()
            run.one_op(timer=time_op)
            if not spacing:
                spacing = max(1, int(seconds / (time.perf_counter() - start)) // repeats)
            if len(clock.walls["setup_s"]) < repeats and run.attempted % spacing == 0:
                setup_again()
            return time.perf_counter() - start

        run.repeat(seconds, step)
        while len(clock.walls["setup_s"]) < repeats:
            setup_again()
    run.check_jobs()
    metrics = {
        "op_s": (statistics.median(clock.adjusted["op_s"]), "s"),
        "setup_s": (statistics.median(clock.adjusted["setup_s"]), "s"),
        "peak_rss_mb": (peak_rss_mb(workload.workers), "MB"),
    }
    op_s = metrics["op_s"][0]
    headline = workload.items / op_s if workload.items else op_s
    return metrics, {
        workload.headline: headline,
        "wall_medians": {name: statistics.median(v) for name, v in clock.walls.items()},
        "samples": {"wall": clock.walls, "adjusted": clock.adjusted,
                    "reference_s": [e - s for s, e in clock.passes]},
    }


def measure_traced(workload: Workload, run: Run, seconds: float) -> tuple[dict, dict]:
    from tracer import Tracer

    tracer = Tracer()
    with tracer.installed():
        workload.setup(os.path.join(run.work, "setup"))
        setup_layers = tracer.summary()
    # Untraced and traced ops alternate, so a change in the host's speed
    # during the run falls on both sides of the overhead.
    untraced: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []

    def pair() -> float:
        untraced.append(run.one_op())
        with tracer.installed():
            traced.append(run.one_op())
            layers.append(tracer.summary())
        return untraced[-1] + traced[-1]

    run.repeat(seconds, pair)
    if workload.workers:
        # Spans in pool workers are lost, so the layers come from the
        # once-per-run ``--jobs 1`` op, which runs in this process.
        with tracer.installed():
            run.check_jobs()
            layers = [tracer.summary()]
    base = statistics.median(untraced)
    metrics = {}
    for name in PER_LAYER:
        values = [layer.get(name, 0.0) for layer in layers]
        metrics[name] = statistics.median(values)
    # The cli layer's own time: argument parsing and artifact writing.
    metrics["cli.main.self_s"] = statistics.median(
        layer.get("cli.main.layer_self_s", 0.0) for layer in layers
    )
    for name in ("synth.generate.s", "synth.write_outputs.s"):
        metrics[name] = setup_layers.get(name, 0.0)
    for fn, key in (("trees.best_split_single", "trees.best_split_single.leaf_share"),
                    ("multitask.maximin_split", "multitask.maximin_split.leaf_share")):
        shares = [layer.get(f"{fn}.leaves", 0.0) / layer[f"{fn}.calls"]
                  for layer in layers if layer.get(f"{fn}.calls")]
        metrics[key] = statistics.median(shares) if shares else 0.0
    if workload.workers:
        sel = metrics["stability.selection_replicates.s"]
        metrics["stability.replicate_s"] = sel / REPLICATES
        metrics["stability.pool_efficiency"] = sel / (workload.workers * base)
    # Each traced op is compared with the untraced op just before it.
    metrics["trace.overhead_s"] = statistics.median(t - u for u, t in zip(untraced, traced))
    metrics["trace.overhead_share"] = statistics.median(t / u for u, t in zip(untraced, traced)) - 1.0
    out = {name: (value, UNITS[name.rsplit(".", 1)[1]]) for name, value in metrics.items()}
    return out, {"samples": {"untraced_op_s": untraced, "traced_op_s": traced}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(SRC, "bouts")):
        print(f"error: no bouts sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import bouts

    if os.path.dirname(os.path.abspath(bouts.__file__)) != os.path.join(SRC, "bouts"):
        print(f"error: imported bouts from {bouts.__file__}, not {SRC}", file=sys.stderr)
        return 2

    load_before = os.getloadavg()
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        workload = WORKLOADS[args.workload](args.seed)
        run = Run(workload, work)
        if args.trace:
            metrics, extra = measure_traced(workload, run, args.seconds)
        else:
            metrics, extra = measure(workload, run, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:  # another run still uses it
            pass

    correct = run.failed == 0
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "failed_op_share": run.failed / run.attempted,
        "digest": run.digest,
        **extra,
        "load_before": load_before,
        "load_after": os.getloadavg(),
        **provenance(),
    }
    print(json.dumps(report))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
