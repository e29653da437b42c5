"""In-memory spans and counts around the public functions of ``bouts``.

``Tracer.installed()`` replaces every public function and method of the
traced modules with a wrapper that records a span (name, start, end,
parent) and, for a few functions, a count taken from the arguments or the
result.  A function is replaced in every ``bouts`` namespace that holds it
(``scan_columns`` is also imported into ``bouts.multitask``, ``fit`` into
``bouts.cli``), and methods are replaced on their class, so no call
bypasses the span.  Leaving the block restores the originals.

Spans recorded in forked pool workers stay in those workers and are lost.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from typing import Callable

import numpy as np

MODULES = ("trees", "multitask", "boosting", "data", "pathsweep", "stability", "synth", "cli")


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


# Counts recorded beside a function's spans: name -> (count key, amount of
# one call as a function of (args, kwargs, result)).
COUNTERS: dict[str, tuple[str, Callable]] = {
    "trees.scan_columns": ("trees.scan_columns.cells", lambda a, k, r: _arg(a, k, 0, "X").size),
    "trees.best_split_single": ("trees.best_split_single.leaves", lambda a, k, r: r is None),
    "multitask.maximin_split": ("multitask.maximin_split.leaves", lambda a, k, r: r is None),
    "trees.Tree.predict": ("trees.Tree.predict.rows", lambda a, k, r: len(r)),
    "multitask.MultitaskTree.predict": ("multitask.MultitaskTree.predict.rows", lambda a, k, r: len(r)),
    # Stage-2 rounds of ``fit`` are counted by its inner fit_single_task.
    "boosting.fit": ("boosting.rounds_accepted", lambda a, k, r: len(r.universal_trees)),
    "boosting.fit_single_task": ("boosting.rounds_accepted", lambda a, k, r: len(r[0])),
    "data.load_task_csv": ("data.load_task_csv.cells", lambda a, k, r: r.X.size),
}


class Tracer:
    """Spans and counts of one measured region; ``reset`` starts a new one."""

    def __init__(self) -> None:
        # One row per span: [name, start, end, parent index or -1, nested].
        # ``nested`` marks a span inside another span of the same name, which
        # inclusive time must not count twice.
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)

    def reset(self) -> None:
        """Forget recorded spans and counts; the wrappers keep recording."""
        self.spans.clear()
        self.counts.clear()

    def wrap(self, name: str, fn: Callable) -> Callable:
        key, amount = COUNTERS.get(name, (None, None))
        spans, stack, active, counts = self.spans, self._stack, self._active, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, active[name] > 0]
            stack.append(len(spans))
            spans.append(span)
            active[name] += 1
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                active[name] -= 1
                stack.pop()
            if key is not None:
                counts[key] += amount(args, kwargs, result)
            return result

        return traced

    def _targets(self):
        """(owner, attribute, traced name, original) for every public callable."""
        for short in MODULES:
            module = importlib.import_module(f"bouts.{short}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    yield module, attr, f"{short}.{attr}", obj
                elif inspect.isclass(obj):
                    for meth, raw in vars(obj).items():
                        if meth.startswith("_"):
                            continue
                        if inspect.isfunction(raw) or isinstance(raw, classmethod):
                            yield obj, meth, f"{short}.{attr}.{meth}", raw

    @contextlib.contextmanager
    def installed(self):
        """Trace every public ``bouts`` function while the block runs."""
        self.reset()
        saved: list[tuple[object, str, object]] = []
        namespaces = [m for n, m in sys.modules.items() if n == "bouts" or n.startswith("bouts.")]
        try:
            for owner, attr, name, orig in list(self._targets()):
                if inspect.isclass(owner):
                    saved.append((owner, attr, orig))
                    if isinstance(orig, classmethod):
                        setattr(owner, attr, classmethod(self.wrap(name, orig.__func__)))
                    else:
                        setattr(owner, attr, self.wrap(name, orig))
                    continue
                wrapped = self.wrap(name, orig)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is orig:
                            saved.append((ns, key, orig))
                            setattr(ns, key, wrapped)
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def summary(self) -> dict[str, float]:
        """Per-name ``.s``, ``.self_s`` and ``.calls``, the counts, and
        ``cli.main.layer_self_s``.

        ``.s`` is inclusive time.  Self time is a span's duration minus the
        durations of its direct children; the traced code runs on one
        thread, so children never overlap.  ``cli.main.layer_self_s``
        subtracts only the time spent in other modules, so it keeps the
        ``cli.cmd_*`` functions ``main`` dispatches to.
        """
        out: dict[str, float] = defaultdict(float)
        n = len(self.spans)
        if n:
            start = np.array([s[1] for s in self.spans])
            dur = np.array([s[2] for s in self.spans]) - start
            child = np.zeros(n)
            for i, span in enumerate(self.spans):
                if span[3] >= 0:
                    child[span[3]] += dur[i]
            for (name, _, _, _, nested), d, c in zip(self.spans, dur, child):
                out[f"{name}.calls"] += 1
                out[f"{name}.self_s"] += d - c
                if not nested:
                    out[f"{name}.s"] += d
            out["cli.main.layer_self_s"] = self._cli_layer_self_s(dur)
        out.update(self.counts)
        out["trace.spans"] = float(len(self.spans))
        return dict(out)

    def _cli_layer_self_s(self, dur: np.ndarray) -> float:
        """Time in ``cli.main`` spans minus their outermost non-cli descendants."""
        outside = 0.0
        in_cli: list[bool] = []  # per span: is it, or is its parent chain, all cli?
        for i, (name, _, _, parent, _) in enumerate(self.spans):
            cli = name.startswith("cli.")
            parent_cli = parent >= 0 and in_cli[parent]
            in_cli.append(cli and (parent < 0 or parent_cli))
            if not cli and parent_cli:
                outside += dur[i]
        main = sum(d for (name, *_), d in zip(self.spans, dur) if name == "cli.main")
        return float(main - outside)
