"""Datasets, CSV ingestion, pruning, standardization, and leakage-free splits.

CSV convention: header row, first column is the sample id, last column the
target, everything between is a feature.  A cell is read by Python's
``float()`` rules: surrounding whitespace, ``_`` digit separators and
non-ASCII decimal digits are accepted.  Empty cells and "NaN" are missing
(NaN).  Rows are read in file order, so the first cell that is not a number
is the one reported.  ``inf``/``infinity`` parse, and are then rejected as
infinite once the whole file is read.  NaN targets and duplicate feature
headers are rejected too.

Two readers give the same names, ids and array bytes.  A plain file (a
regular file with no quote, NUL or bare CR, no blank cell, ``_`` separator
or non-ASCII digit in a parsed column, and nothing to reject) is parsed in
one C pass by ``np.loadtxt``, which converts a cell with the same C
function as ``float()``.  Every other file is read row by row by the csv module, and
that reader writes every error message.

A read may name the feature columns to parse; ``bouts predict`` names the
ones its trees split on for the task.  It still checks the header, each
row's cell count and the ids, and rejects NaN targets and infinities in the
columns it parses.  Every other feature column is never converted and reads
as NaN, so a cell there that is not a number stops nothing.  The one-pass
parse takes such a read only when the file holds as many commas as its rows
would at the header's width: numpy rejects a short row, but not a long one
when it converts only some columns.

The train/validation/test split stratifies by membership signature: sample
ids are grouped by the exact subset of tasks containing them, each group is
shuffled and allocated to the three partitions by largest-remainder rounding,
and an id shared across tasks lands in the same partition everywhere.

``write_csv`` and ``write_json`` are the only encoders of written artifacts, and
``read_json`` the only JSON decoder.
"""

from __future__ import annotations

import csv
import json
import math
import os
import stat
import warnings
from dataclasses import dataclass, replace
from typing import Collection, Iterable, Optional, Sequence

import numpy as np

from .errors import DataError, NumericalError

RATIOS = (0.7, 0.2, 0.1)


@dataclass
class TaskDataset:
    """One task's samples: feature matrix, targets, and sample identities."""

    name: str
    feature_names: list[str]
    X: np.ndarray  # (n, d), may contain NaN before pruning
    y: np.ndarray  # (n,)
    sample_ids: list[str]

    def __post_init__(self) -> None:
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        if self.X.ndim != 2:
            raise DataError(f"task {self.name!r}: X must be 2-dimensional")
        n, d = self.X.shape
        if len(self.y) != n or len(self.sample_ids) != n:
            raise DataError(f"task {self.name!r}: X, y, and sample_ids lengths disagree")
        if len(self.feature_names) != d:
            raise DataError(f"task {self.name!r}: {d} columns but {len(self.feature_names)} names")
        if len(set(self.sample_ids)) != n:
            dup = _first_duplicate(self.sample_ids)
            raise DataError(f"task {self.name!r}: duplicate sample id {dup!r}")


@dataclass
class MultitaskDataset:
    """A category: several tasks restricted to a shared candidate feature set."""

    tasks: list[TaskDataset]
    candidate_features: list[str]

    def __post_init__(self) -> None:
        if not self.tasks:
            raise DataError("a category needs at least one task")
        for task in self.tasks:
            if task.feature_names != self.candidate_features:
                raise DataError(
                    f"task {task.name!r} columns do not match the candidate feature order"
                )

    @property
    def n_tasks(self) -> int:
        return len(self.tasks)

    @property
    def task_names(self) -> list[str]:
        return [t.name for t in self.tasks]


def _first_duplicate(ids: Sequence[str]) -> str:
    seen: set[str] = set()
    for s in ids:
        if s in seen:
            return s
        seen.add(s)
    raise ValueError("no duplicate present")


def _parse_cell(raw: str, path: str, row: int, col: int) -> float:
    text = raw.strip()
    if text == "" or text.lower() == "nan":
        return math.nan
    try:
        return float(text)
    except ValueError:
        raise DataError(
            f"{path}: row {row}, column {col}: cannot parse {raw!r} as a number"
        ) from None


def load_task_csv(
    path: str, name: Optional[str] = None, features: Optional[Collection[str]] = None
) -> TaskDataset:
    """Read one UTF-8 task CSV (id, features..., target) without any pruning.

    ``features``, if given, names the feature columns to parse.  Every other
    feature column is still counted in each row but never converted, and
    reads as NaN.
    """
    feature_names, ids, X, y = _read_plain(path, features) or _read_rows(path, features)
    name = str(path) if name is None else name
    return TaskDataset(name=name, feature_names=feature_names, X=X, y=y, sample_ids=ids)


def _selected(
    feature_names: list[str], features: Optional[Collection[str]]
) -> Optional[list[int]]:
    """The positions of ``features`` among ``feature_names``; None when every feature is read."""
    if features is None:
        return None
    return [j for j, f in enumerate(feature_names) if f in features]


def _spread(values: np.ndarray, keep: Optional[list[int]], d: int) -> np.ndarray:
    """The (n, d) feature matrix whose columns ``keep`` are ``values`` and the rest NaN."""
    if keep is None:
        return values.copy()
    X = np.full((len(values), d), np.nan)
    X[:, keep] = values
    return X


def _read_plain(
    path: str, features: Optional[Collection[str]] = None
) -> Optional[tuple[list[str], list[str], np.ndarray, np.ndarray]]:
    """``_read_rows(path, features)`` for a plain file, parsed in one C pass; None for any other.

    A plain file is a regular file that ``_plain_commas`` passes, with a valid
    header and at least one data row, whose every parsed cell numpy's parser
    reads (the ``float()`` of each cell, less blank cells, ``_`` separators and
    non-ASCII digits), with no NaN target, infinite parsed value or repeated
    id.  A selected read also needs every row to be as wide as the header:
    numpy reports a short row, but not a long one.
    """
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            return None  # a pipe is read once, by the row reader
        commas = _plain_commas(path)
        if commas is None:
            return None
        with open(path, newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh), [])
    except (OSError, UnicodeDecodeError):
        return None
    feature_names = [h.strip() for h in header[1:-1]]
    if len(header) < 3 or len(set(feature_names)) != len(feature_names):
        return None
    keep = _selected(feature_names, features)
    usecols = None if keep is None else [0, *(j + 1 for j in keep), len(header) - 1]
    ids: list[str] = []

    def take_id(cell: str) -> float:
        ids.append(cell.strip())
        return 0.0

    try:
        with warnings.catch_warnings():  # a file without data rows is declined below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            table = np.loadtxt(
                path, delimiter=",", skiprows=1, comments=None, converters={0: take_id},
                encoding="utf-8", ndmin=2, usecols=usecols,
            )
    except ValueError:  # a cell numpy does not read, a ragged row, or bad UTF-8
        return None
    if table.shape != (len(ids), len(usecols or header)) or not ids or len(set(ids)) != len(ids):
        return None
    if commas != (len(header) - 1) * (1 + len(ids)):
        return None  # a row with more cells than the header, which usecols lets through
    X, y = _spread(table[:, 1:-1], keep, len(feature_names)), table[:, -1].copy()
    if np.isinf(X).any() or not np.isfinite(y).all():
        return None
    return feature_names, ids, X, y


def _plain_commas(path: str) -> Optional[int]:
    """The file's comma count, or None if a line holds a quote, a NUL or a bare CR, or is
    longer than a csv field may be.

    The csv module of Python 3.10 rejects a NUL; numpy's parser reads it.
    """
    limit = csv.field_size_limit()
    commas = 0
    with open(path, "rb") as fh:
        start = 0  # where the current line begins, relative to the chunk
        while chunk := fh.read(1 << 20):
            if chunk.endswith(b"\r"):  # keep a CRLF in one chunk
                chunk += fh.read(1)
            if b'"' in chunk or b"\0" in chunk:
                return None
            if b"\r" in chunk and chunk.count(b"\r") != chunk.count(b"\r\n"):
                return None
            while (end := chunk.rfind(b"\n", max(start, 0), start + limit + 1)) >= 0:
                start = end + 1  # the line ending at `end` is at most `limit` bytes
            if start + limit < len(chunk):
                return None
            start -= len(chunk)
            commas += int(np.count_nonzero(np.frombuffer(chunk, np.uint8) == ord(",")))
    return commas


def _read_rows(
    path: str, features: Optional[Collection[str]] = None
) -> tuple[list[str], list[str], np.ndarray, np.ndarray]:
    """Read a task CSV record by record; every error message of the loader comes from here."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:  # the file is decoded and parsed lazily, row by row
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: file is empty")
            if len(header) < 3:
                raise DataError(f"{path}: need at least id, one feature, and target columns")
            feature_names = [h.strip() for h in header[1:-1]]
            if len(set(feature_names)) != len(feature_names):
                dup = _first_duplicate(feature_names)
                raise DataError(f"{path}: duplicate feature column {dup!r}")
            ids: list[str] = []
            line_numbers: list[int] = []
            rows: list[np.ndarray] = []  # each row's parsed features, then its target
            width = len(header)
            keep = _selected(feature_names, features)
            # The record positions parsed: the features read, then the target.
            columns = range(1, width) if keep is None else [*(j + 1 for j in keep), width - 1]
            for r, record in enumerate(reader, start=2):
                if not record:
                    continue
                if len(record) != width:
                    raise DataError(f"{path}: row {r}: expected {width} cells, found {len(record)}")
                cells = record[1:] if keep is None else [record[c] for c in columns]
                if "" in cells:  # missing: "nan" reads as the NaN _parse_cell gives
                    cells = ["nan" if c == "" else c for c in cells]
                try:  # float() on every cell, in C
                    values = np.array(cells, dtype=np.float64)
                except ValueError:
                    try:  # a whitespace-only cell is missing too
                        values = np.array(
                            ["nan" if not c.strip() else c for c in cells], dtype=np.float64
                        )
                    except ValueError:  # a bad cell to name
                        values = np.array(
                            [_parse_cell(record[c], path, r, c + 1) for c in columns]
                        )
                if math.isnan(values[-1]):
                    raise DataError(f"{path}: row {r}: target value is NaN")
                ids.append(record[0].strip())
                line_numbers.append(r)
                rows.append(values)
        except UnicodeDecodeError as e:
            raise DataError(f"{path}: not UTF-8 text ({e.reason})") from None
        except csv.Error as e:
            raise DataError(f"{path}: line {reader.line_num}: {e}") from None
    if not rows:
        raise DataError(f"{path}: no data rows")
    if len(set(ids)) != len(ids):
        dup = _first_duplicate(ids)
        first, again = [line_numbers[i] for i, sid in enumerate(ids) if sid == dup][:2]
        raise DataError(f"{path}: row {again}: duplicate sample id {dup!r} (row {first})")
    table = np.array(rows)
    del rows  # the row arrays go before the copies below are made
    X, y = _spread(table[:, :-1], keep, len(feature_names)), table[:, -1].copy()
    inf_rows = np.flatnonzero(np.isinf(X).any(axis=1) | np.isinf(y))
    if len(inf_rows):
        i = int(inf_rows[0])
        j = int(np.flatnonzero(np.isinf(np.append(X[i], y[i])))[0])
        column = (feature_names + [header[-1].strip()])[j]
        raise DataError(f"{path}: row {line_numbers[i]}, column {column!r}: infinite value")
    return feature_names, ids, X, y


def prune_features(task: TaskDataset) -> TaskDataset:
    """Drop every column with any NaN and every constant column."""
    has_nan = np.isnan(task.X).any(axis=0)
    constant = np.all(task.X == task.X[0:1, :], axis=0)
    keep = ~(has_nan | constant)
    if not keep.any():
        raise DataError(f"task {task.name!r}: no usable features after pruning")
    names = [f for f, k in zip(task.feature_names, keep) if k]
    return replace(task, feature_names=names, X=task.X[:, keep])


def build_category(tasks: Sequence[TaskDataset]) -> MultitaskDataset:
    """Intersect pruned feature sets and align every task to one column order."""
    if not tasks:
        raise DataError("a category needs at least one task")
    common = set(tasks[0].feature_names)
    for task in tasks[1:]:
        common &= set(task.feature_names)
    if not common:
        raise DataError("no feature is shared by every task")
    candidate = sorted(common)
    aligned = []
    for task in tasks:
        pos = {f: i for i, f in enumerate(task.feature_names)}
        cols = [pos[f] for f in candidate]
        aligned.append(replace(task, feature_names=list(candidate), X=task.X[:, cols]))
    return MultitaskDataset(tasks=aligned, candidate_features=candidate)


@dataclass
class SplitAssignment:
    """Per-task train/val/test index arrays plus the seed that produced them."""

    seed: int
    train: list[np.ndarray]
    val: list[np.ndarray]
    test: list[np.ndarray]

    def to_dict(self, tasks: Sequence[TaskDataset]) -> dict:
        parts = {"train": self.train, "val": self.val, "test": self.test}
        by_task = {
            task.name: {key: [task.sample_ids[i] for i in part[t]] for key, part in parts.items()}
            for t, task in enumerate(tasks)
        }
        return {"seed": self.seed, "tasks": by_task}


def _largest_remainder(n: int, ratios: Sequence[float]) -> list[int]:
    """Integer allocation of n items to len(ratios) bins, totals preserved."""
    exact = [n * r for r in ratios]
    base = [int(math.floor(e)) for e in exact]
    short = n - sum(base)
    remainders = sorted(range(len(ratios)), key=lambda i: (-(exact[i] - base[i]), i))
    for i in remainders[:short]:
        base[i] += 1
    return base


def valid_ratios(ratios: Sequence[float]) -> bool:
    """Whether ``ratios`` are three positive numbers summing to 1, as split fractions must be."""
    return len(ratios) == 3 and all(r > 0 for r in ratios) and abs(sum(ratios) - 1.0) <= 1e-9


def overlap_split(
    tasks: Sequence[TaskDataset],
    ratios: Sequence[float] = RATIOS,
    seed: int = 0,
) -> SplitAssignment:
    """Leakage-free stratified split over possibly overlapping tasks."""
    if not valid_ratios(ratios):
        raise DataError("ratios must be three positive numbers summing to 1")
    membership: dict[str, list[int]] = {}
    for t, task in enumerate(tasks):
        for sid in task.sample_ids:
            membership.setdefault(sid, []).append(t)
    cells: dict[tuple[int, ...], list[str]] = {}
    for sid, tasks_of in membership.items():
        cells.setdefault(tuple(tasks_of), []).append(sid)
    rng = np.random.default_rng(seed)
    label: dict[str, int] = {}
    for signature in sorted(cells):
        ids = sorted(cells[signature])
        perm = rng.permutation(len(ids))
        shuffled = [ids[i] for i in perm]
        counts = _largest_remainder(len(ids), ratios)
        start = 0
        for part, count in enumerate(counts):
            for sid in shuffled[start : start + count]:
                label[sid] = part
            start += count
    labels = [np.array([label[sid] for sid in task.sample_ids], dtype=np.intp) for task in tasks]
    train, val, test = ([np.flatnonzero(lab == part) for lab in labels] for part in range(3))
    return SplitAssignment(seed=seed, train=train, val=val, test=test)


@dataclass
class Standardizer:
    """Column means/stds of one task's training partition, plus the target's."""

    x_mean: np.ndarray
    x_std: np.ndarray
    y_mean: float
    y_std: float

    def transform_X(self, X: np.ndarray, cols=slice(None)) -> np.ndarray:
        return (X - self.x_mean[cols]) / self.x_std[cols]

    def transform_y(self, y: np.ndarray) -> np.ndarray:
        return (y - self.y_mean) / self.y_std

    def inverse_y(self, y_std: np.ndarray) -> np.ndarray:
        return y_std * self.y_std + self.y_mean

    def to_dict(self) -> dict:
        return {
            "x_mean": self.x_mean.tolist(),
            "x_std": self.x_std.tolist(),
            "y_mean": self.y_mean,
            "y_std": self.y_std,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Standardizer":
        x_mean, x_std = json_numbers(d["x_mean"], "x_mean"), json_numbers(d["x_std"], "x_std")
        y_mean, y_std = json_numbers([d["y_mean"], d["y_std"]], "[y_mean, y_std]")
        return cls(x_mean=np.array(x_mean), x_std=np.array(x_std), y_mean=y_mean, y_std=y_std)


def json_numbers(value, what: str) -> list[float]:
    """A decoded JSON list of numbers as finite floats; DataError for anything else."""
    if type(value) is not list or not {*map(type, value)} <= {int, float}:
        raise DataError(f"{what} must be a list of numbers")
    try:
        numbers = [*map(float, value)]
        if all(map(math.isfinite, numbers)):
            return numbers
    except OverflowError:  # an int past the float range
        pass
    raise DataError(f"{what} holds a non-finite number")


def fit_standardizer(task: TaskDataset, train_idx: np.ndarray) -> Standardizer:
    """Population (divide by n) statistics of the training rows."""
    if len(train_idx) == 0:
        raise DataError(f"task {task.name!r}: empty training partition")
    Xtr = task.X[train_idx]
    ytr = task.y[train_idx]
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is reported below
        x_mean, x_std = Xtr.mean(axis=0), Xtr.std(axis=0)
        y_mean, y_std = float(ytr.mean()), float(ytr.std())
    for column, std in zip([*task.feature_names, None], [*x_std, y_std]):
        what = "target" if column is None else f"feature {column!r}"
        if std == 0.0:
            raise NumericalError(f"task {task.name!r}: {what} is constant on train")
        if not math.isfinite(std):
            raise NumericalError(f"task {task.name!r}: {what} is too large to standardize")
    return Standardizer(x_mean=x_mean, x_std=x_std, y_mean=y_mean, y_std=y_std)


def standardize_dataset(
    data: MultitaskDataset, split: SplitAssignment
) -> tuple[MultitaskDataset, list[Standardizer]]:
    """Rescale every task with its own training statistics."""
    standardizers = [fit_standardizer(t, split.train[i]) for i, t in enumerate(data.tasks)]
    tasks = [
        replace(task, X=st.transform_X(task.X), y=st.transform_y(task.y))
        for task, st in zip(data.tasks, standardizers)
    ]
    return replace(data, tasks=tasks), standardizers


# A task name becomes part of a file name (``stability`` writes Z_<task>.csv
# next to Z_universal.csv), so it must be one file-name component that
# names no other artifact.  255 bytes is the usual file-name limit.
RESERVED_TASK_NAMES = ("", ".", "..", "universal")
MAX_TASK_NAME_BYTES = 255 - len("Z_.csv")


def _task_name_problem(name: str) -> Optional[str]:
    """Why ``name`` cannot name a task, or None if it can."""
    if name in RESERVED_TASK_NAMES:
        return "is reserved"
    if "/" in name or "\0" in name:
        return "holds '/' or NUL"
    try:
        size = len(os.fsencode(name))
    except UnicodeEncodeError:
        return "cannot be encoded as a file name"
    if size > MAX_TASK_NAME_BYTES:
        return f"is {size} bytes long, over {MAX_TASK_NAME_BYTES}"
    return None


def load_manifest(path: str) -> MultitaskDataset:
    """Build a category from a JSON manifest: {"tasks": {name: csv_path}}.

    Relative CSV paths resolve against the manifest's directory.  A task
    name must be usable in a file name and not be one of
    ``RESERVED_TASK_NAMES``.
    """
    manifest = read_json(path, "manifest")
    entries = manifest.get("tasks") if isinstance(manifest, dict) else None
    if not isinstance(entries, dict) or not entries:
        raise DataError(f"{path}: manifest must map task names to CSV paths under 'tasks'")
    for name in sorted(entries):
        problem = _task_name_problem(name)
        if problem:
            raise DataError(f"{path}: task name {name!r} {problem}")
    base = os.path.dirname(os.path.abspath(path))
    tasks = []
    for name in sorted(entries):
        csv_path = entries[name]
        if not isinstance(csv_path, str) or "\0" in csv_path:
            raise DataError(f"{path}: the CSV path of task {name!r} must be a string without NUL")
        if not os.path.isabs(csv_path):
            csv_path = os.path.join(base, csv_path)
        tasks.append(load_task_csv(csv_path, name))
    try:
        return build_category([prune_features(task) for task in tasks])
    except DataError as e:
        raise DataError(f"{path}: {e}") from None


def write_csv(path: str, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Write an artifact as CSV: the header row, then ``rows``, each ending in "\\n".

    The csv module writes a float as its ``repr``, None as an empty cell, and
    quotes a cell holding a comma, a quote or a line break.  Pass Python
    floats: the ``repr`` of a numpy float names its type.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def read_json(path: str, what: str):
    """Decode the UTF-8 JSON file ``path``; a DataError naming it, as ``what``, if it is not one."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as e:
        raise DataError(f"cannot read {what} {path}: invalid JSON: {e}") from None


def write_json(path: str, obj) -> None:
    """Write an artifact as JSON: 2-space indent, sorted keys, final newline."""
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, indent=2, sort_keys=True))
        fh.write("\n")
