"""CSV ingestion, pruning, category assembly, splits, and standardization."""

import contextlib
import csv
import json
import math
import os
import tempfile
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bouts.data import (
    MultitaskDataset,
    TaskDataset,
    _first_duplicate,
    _largest_remainder,
    _read_plain,
    build_category,
    fit_standardizer,
    json_numbers,
    load_manifest,
    load_task_csv,
    overlap_split,
    prune_features,
    standardize_dataset,
    write_json,
)
from bouts.errors import DataError, NumericalError


def make_task(name, ids, X, y, features=None):
    X = np.asarray(X, dtype=float)
    if features is None:
        features = [f"f{j}" for j in range(X.shape[1])]
    return TaskDataset(
        name=name, feature_names=features, X=X, y=np.asarray(y, dtype=float), sample_ids=ids
    )


class TestLoadTaskCsv:
    def test_values_verbatim(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("id,f1,f2,target\ns1,0.5,-2.0,1.5\ns2,1.25,4.0,-0.75\n")
        task = load_task_csv(str(p), name="demo")
        assert task.name == "demo"
        assert task.feature_names == ["f1", "f2"]
        assert task.sample_ids == ["s1", "s2"]
        np.testing.assert_array_equal(task.X, [[0.5, -2.0], [1.25, 4.0]])
        np.testing.assert_array_equal(task.y, [1.5, -0.75])

    def test_default_name_is_path(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("id,f1,target\ns1,1.0,2.0\n")
        assert load_task_csv(str(p)).name == str(p)

    def test_missing_and_nan_cells(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("id,f1,f2,target\ns1,,3.0,1.0\ns2,NaN,4.0,2.0\n")
        task = load_task_csv(str(p))
        assert np.isnan(task.X[:, 0]).all()
        np.testing.assert_array_equal(task.X[:, 1], [3.0, 4.0])

    def test_nan_target_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("id,f1,target\ns1,1.0,2.0\ns2,1.0,nan\n")
        with pytest.raises(DataError, match="row 3: target value is NaN"):
            load_task_csv(str(p))

    def test_duplicate_id_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("id,f1,target\ns1,1.0,2.0\ns1,3.0,4.0\n")
        with pytest.raises(DataError, match="duplicate sample id 's1'"):
            load_task_csv(str(p))

    def test_unparseable_cell_names_position(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("id,f1,f2,target\ns1,abc,2.0,1.0\n")
        with pytest.raises(DataError, match="row 2, column 2"):
            load_task_csv(str(p))

    def test_ragged_row_rejected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("id,f1,f2,target\ns1,1.0,2.0\n")
        with pytest.raises(DataError, match="expected 4 cells, found 3"):
            load_task_csv(str(p))

    def test_too_few_columns(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("id,target\ns1,1.0\n")
        with pytest.raises(DataError, match="at least id, one feature, and target"):
            load_task_csv(str(p))

    def test_empty_file(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("")
        with pytest.raises(DataError, match="empty"):
            load_task_csv(str(p))

    def test_header_only(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("id,f1,target\n")
        with pytest.raises(DataError, match="no data rows"):
            load_task_csv(str(p))


def per_cell_load(path):
    """Reference reader: every cell through its own float() call, as load_task_csv once did.

    Returns (feature_names, ids, X, y) or raises DataError with the same message.
    """

    def parse_cell(raw, row, col):
        text = raw.strip()
        if text == "" or text.lower() == "nan":
            return math.nan
        try:
            return float(text)
        except ValueError:
            raise DataError(
                f"{path}: row {row}, column {col}: cannot parse {raw!r} as a number"
            ) from None

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: file is empty")
            if len(header) < 3:
                raise DataError(f"{path}: need at least id, one feature, and target columns")
            feature_names = [h.strip() for h in header[1:-1]]
            if len(set(feature_names)) != len(feature_names):
                dup = _first_duplicate(feature_names)
                raise DataError(f"{path}: duplicate feature column {dup!r}")
            ids, line_numbers, rows, targets = [], [], [], []
            width = len(header)
            for r, record in enumerate(reader, start=2):
                if not record:
                    continue
                if len(record) != width:
                    raise DataError(f"{path}: row {r}: expected {width} cells, found {len(record)}")
                ids.append(record[0].strip())
                line_numbers.append(r)
                rows.append([parse_cell(c, r, j + 2) for j, c in enumerate(record[1:-1])])
                target = parse_cell(record[-1], r, width)
                if math.isnan(target):
                    raise DataError(f"{path}: row {r}: target value is NaN")
                targets.append(target)
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
    X = np.array(rows, dtype=np.float64)
    y = np.array(targets, dtype=np.float64)
    inf_rows = np.flatnonzero(np.isinf(X).any(axis=1) | np.isinf(y))
    if len(inf_rows):
        i = int(inf_rows[0])
        j = int(np.flatnonzero(np.isinf(np.append(X[i], y[i])))[0])
        column = (feature_names + [header[-1].strip()])[j]
        raise DataError(f"{path}: row {line_numbers[i]}, column {column!r}: infinite value")
    return feature_names, ids, X, y


def outcome(load, path):
    """What a reader makes of a file: its columns, ids and array bytes, or its error message."""
    try:
        got = load(path)
    except DataError as e:
        return str(e)
    if isinstance(got, TaskDataset):
        got = got.feature_names, got.sample_ids, got.X, got.y
    names, ids, X, y = got
    return names, ids, X.shape, X.tobytes(), y.tobytes()  # bytes: NaN signs count too


NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**6), 10**6).map(lambda i: f"{i:_}"),  # _ digit separators
    st.sampled_from(
        [
            "1e5", "-2.5E-3", "1e400", "-1e-400", "٣.٥", "１２", "۱_۰",  # exponents, non-ASCII
            " 1.5", "2 ", "\t3\n", "\xa04\u2003", "\x1c5",  # whitespace float() may not strip
        ]
    ),
)
MISSING = st.sampled_from(["", "", "  ", "nan", "NaN", " nan ", "-nan", "+NaN"])
BAD = st.sampled_from(
    [
        "inf", "-Infinity", "infinity", "+inf",  # parse, then rejected as infinite
        "abc", "1.2.3", "0x10", "1__0", "_1", "1,5", '"', "1e", "--1",  # junk
    ]
)


def csv_text(rows, quote):
    def field(cell, q):
        if q or any(c in cell for c in ',"\r\n'):
            return '"' + cell.replace('"', '""') + '"'
        return cell

    return "".join(",".join(field(c, q) for c, q in zip(row, qs)) + "\n" for row, qs in zip(rows, quote))


class TestCellParsing:
    """load_task_csv reads every cell as the per-cell reference reader does."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_cell_reader(self, data):
        n_features = data.draw(st.integers(1, 4), label="features")
        n_rows = data.draw(st.integers(1, 6), label="rows")
        # Half the files hold only numbers and missing features, so that most of them load.
        clean = data.draw(st.booleans(), label="clean")
        cells = st.one_of(NUMBERS, MISSING) if clean else st.one_of(NUMBERS, MISSING, BAD)
        features = st.lists(cells, min_size=n_features, max_size=n_features)
        rows = [["id", *(f"f{j}" for j in range(n_features)), "target"]]
        rows += [
            [f"s{i}", *data.draw(features), data.draw(NUMBERS if clean else cells)]
            for i in range(n_rows)
        ]
        quote = [data.draw(st.lists(st.booleans(), min_size=len(r), max_size=len(r))) for r in rows]
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/t.csv"
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(csv_text(rows, quote))
            assert outcome(load_task_csv, path) == outcome(per_cell_load, path)

    @pytest.mark.parametrize(
        "later",
        [b"s9,1.0\n", b"s9,\xff\xfe,1.0\n", b"s9,1.0,nan\n"],
        ids=["short row", "invalid UTF-8", "NaN target"],
    )
    def test_first_error_in_file_order_wins(self, tmp_path, later):
        # The later defect sits past the decoder's first chunk, as it would in a large file.
        filler = b"".join(b"r%d,1.0,2.0\n" % i for i in range(3000))
        p = tmp_path / "t.csv"
        p.write_bytes(b"id,f1,target\ns1,1.0,2.0\ns2,abc,2.0\n" + filler + later)
        message = outcome(per_cell_load, str(p))
        assert "row 3, column 2: cannot parse 'abc'" in message
        assert outcome(load_task_csv, str(p)) == message


# Cells the one-pass parse reads: float()'s numbers less "_" separators, non-ASCII
# digits and infinities; NaN cells are kept, blank cells are not.
PLAIN_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from(
        ["1e5", "-2.5E-3", "-1e-400", " 1.5", "2 ", "\xa04\u2003", "\x1c5", "\t3\x0c"]
    ),
)
PLAIN_MISSING = st.sampled_from(["nan", "NaN", " nan ", "-nan", "+NaN"])


# One file for each kind of file the one-pass parse leaves to the row reader.
DECLINED = {
    "quoted id": b'id,f1,target\n"s1",1.0,2.0\n',
    "quoted cell": b'id,f1,target\ns1,"1.0",2.0\n',
    "quoted header": b'id,"f1",target\ns1,1.0,2.0\n',
    "empty cell": b"id,f1,f2,target\ns1,,1.0,2.0\n",
    "whitespace-only cell": b"id,f1,f2,target\ns1,1.0,  ,2.0\n",
    "more cells": b"id,f1,target\ns1,1.0,2.0,3.0\n",
    "more cells in every row": b"id,f1,target\ns1,1.0,2.0,3.0\ns2,1.0,2.0,3.0\n",
    "fewer cells": b"id,f1,target\ns1,1.0\n",
    "bare CR": b"id,f1,target\rs1,1.0,2.0\rs2,3.0,4.0\r",
    "_ separator": b"id,f1,target\ns1,1_000,2.0\n",
    "non-ASCII digits": "id,f1,target\ns1,\u0663.\u0665,2.0\n".encode(),
    "NaN target": b"id,f1,target\ns1,1.0,nan\n",
    "infinite value": b"id,f1,target\ns1,1.0,2.0\ns2,-inf,2.0\n",
    "repeated id": b"id,f1,target\ns1,1.0,2.0\ns1,3.0,4.0\n",
    "no data rows": b"id,f1,target\n",
    "bad UTF-8": b"id,f1,target\ns1,1.0,\xff\n",
    "NUL": b"id,f1,target\ns\x001,1.0,2.0\n",
    "field over the csv limit": b"id,f1,target\ns1," + b" " * csv.field_size_limit() + b"1.0,2.0\n",
    "empty file": b"",
}


class TestOnePassParse:
    """The files load_task_csv parses in one pass, and the files it leaves to the row reader."""

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_plain_files_skip_the_row_reader(self, data):
        n_features = data.draw(st.integers(1, 4), label="features")
        n_rows = data.draw(st.integers(1, 6), label="rows")
        features = st.lists(
            st.one_of(PLAIN_NUMBERS, PLAIN_MISSING), min_size=n_features, max_size=n_features
        )
        rows = [["id", *(f" f{j}" for j in range(n_features)), "target"]]
        rows += [[f" s{i}", *data.draw(features), data.draw(PLAIN_NUMBERS)] for i in range(n_rows)]
        line_end = data.draw(st.sampled_from(["\n", "\r\n"]), label="line end")
        text = csv_text(rows, [[False] * len(r) for r in rows]).replace("\n", line_end)
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/t.csv"
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            expected = outcome(per_cell_load, path)
            with mock.patch("bouts.data._read_rows", side_effect=AssertionError("row reader ran")):
                assert outcome(load_task_csv, path) == expected

    @pytest.mark.parametrize("content", DECLINED.values(), ids=DECLINED.keys())
    def test_declined_files_read_as_the_row_reader_reads_them(self, tmp_path, content):
        path = tmp_path / "t.csv"
        path.write_bytes(content)
        assert _read_plain(str(path)) is None
        assert outcome(load_task_csv, str(path)) == outcome(per_cell_load, str(path))

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_pipe_is_read_once_by_the_row_reader(self, tmp_path):
        fifo = str(tmp_path / "t.csv")
        os.mkfifo(fifo)

        def write():
            with open(fifo, "w") as fh:
                fh.write("id,f1,target\ns1,1.0,2.0\n")

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        task = load_task_csv(fifo)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert (task.sample_ids, task.X.tolist(), task.y.tolist()) == (["s1"], [[1.0]], [2.0])


# Cells the one-pass parse declines in a column it converts, and may skip in one it
# does not: text, infinities, blank cells, "_" separators and non-ASCII digits.
UNREAD = st.sampled_from(["abc", "1e", "0x10", "inf", "-Infinity", "", "  ", "1_000", "\u0663"])


def read_of(path, features, select):
    """The names, ids, bytes of the columns ``features`` and of y that a read of ``path`` gives,
    or its error message; ``select`` passes ``features`` to the loader."""
    try:
        task = load_task_csv(path, features=features if select else None)
    except DataError as e:
        return str(e)
    keep = [j for j, f in enumerate(task.feature_names) if f in features]
    if select:  # the columns not asked for are never parsed
        rest = [j for j in range(task.X.shape[1]) if j not in keep]
        assert np.isnan(task.X[:, rest]).all()
    return task.feature_names, task.sample_ids, task.X[:, keep].tobytes(), task.y.tobytes()


class TestSelectedRead:
    """``load_task_csv(path, features=S)`` reads the columns S as the full read does, no others."""

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_reads_the_selected_columns_as_the_full_read_does(self, data):
        n_features = data.draw(st.integers(1, 4), label="features")
        n_rows = data.draw(st.integers(1, 6), label="rows")
        names = [f"f{j}" for j in range(n_features)]
        S = data.draw(st.sets(st.sampled_from([*names, "absent"])), label="S")
        plain = data.draw(st.booleans(), label="plain")
        if plain:  # cells the one-pass parse reads where it converts, anything elsewhere
            inside, target = st.one_of(PLAIN_NUMBERS, PLAIN_MISSING), PLAIN_NUMBERS
            outside = st.one_of(inside, UNREAD)
        else:  # the files of TestCellParsing
            clean = data.draw(st.booleans(), label="clean")
            inside = outside = st.one_of(NUMBERS, MISSING, *([] if clean else [BAD]))
            target = NUMBERS if clean else inside
        rows = [["id", *names, "target"]]
        rows += [
            [f"s{i}", *(data.draw(inside if f in S else outside) for f in names), data.draw(target)]
            for i in range(n_rows)
        ]
        ragged = data.draw(st.sampled_from(["", "extra cell", "missing cell"]), label="ragged")
        if ragged:
            row = rows[data.draw(st.integers(1, n_rows), label="ragged row")]
            at = data.draw(st.integers(1, len(row) - 1), label="at")
            if ragged == "extra cell":
                row.insert(at, data.draw(PLAIN_NUMBERS))
            else:
                del row[at]
        # The same file with every cell outside S a clean number.
        masked = rows[:1] + [
            ["0" if 0 < j <= n_features and names[j - 1] not in S else c for j, c in enumerate(row)]
            for row in rows[1:]
        ]
        flags = st.just(False) if plain else st.booleans()
        quote = [data.draw(st.lists(flags, min_size=len(r), max_size=len(r))) for r in rows]
        # A plain file, cell counts intact, is read without the row reader.
        one_pass = plain and not ragged
        row_reader = mock.patch("bouts.data._read_rows", side_effect=AssertionError("row reader"))
        with tempfile.TemporaryDirectory() as tmp:
            path = f"{tmp}/t.csv"
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(csv_text(rows, quote))
            full = read_of(path, S, select=False)
            with row_reader if one_pass else contextlib.nullcontext():
                got = read_of(path, S, select=True)
            with open(path, "w", encoding="utf-8", newline="") as fh:  # same name, same messages
                fh.write(csv_text(masked, quote))
            masked_full = read_of(path, S, select=False)
        # A defect in S, the target or a row's cell count is the full read's; no other is seen.
        assert got == masked_full
        if not isinstance(full, str):
            assert got == full
        if ragged:
            assert isinstance(got, str)

    def test_a_late_row_with_an_extra_cell_is_rejected(self, tmp_path):
        # Past the first 1-MiB chunk of the byte scan; numpy alone would read it.
        lines = [b"s%d,1.0,2.0,3.0\n" % i for i in range(100_000)]
        lines[90_000] = b"s90000,1.0,2.0,3.0,4.0\n"
        path = tmp_path / "t.csv"
        path.write_bytes(b"id,f1,f2,target\n" + b"".join(lines))
        assert _read_plain(str(path), {"f1"}) is None
        with pytest.raises(DataError, match=r"t\.csv: row 90002: expected 4 cells, found 5$"):
            load_task_csv(str(path), features={"f1"})


class TestPruneFeatures:
    def test_drops_nan_and_constant_columns(self):
        X = [[1.0, 7.0, 0.1], [2.0, 7.0, math.nan], [3.0, 7.0, 0.3]]
        task = make_task("t", ["a", "b", "c"], X, [0.0, 1.0, 2.0], ["keep", "const", "holey"])
        pruned = prune_features(task)
        assert pruned.feature_names == ["keep"]
        np.testing.assert_array_equal(pruned.X, [[1.0], [2.0], [3.0]])
        np.testing.assert_array_equal(pruned.y, task.y)

    def test_everything_pruned_is_an_error(self):
        task = make_task("t", ["a", "b"], [[5.0], [5.0]], [0.0, 1.0])
        with pytest.raises(DataError, match="no usable features"):
            prune_features(task)


class TestBuildCategory:
    def test_intersection_is_sorted_and_columns_realigned(self):
        # Column values encode (task, feature) so misalignment is visible.
        t1 = make_task("t1", ["a", "b"], [[11.0, 12.0, 13.0]] * 2, [0.0, 1.0], ["b", "a", "c"])
        t2 = make_task("t2", ["a", "b"], [[23.0, 21.0, 24.0]] * 2, [0.0, 1.0], ["c", "b", "d"])
        cat = build_category([t1, t2])
        assert cat.candidate_features == ["b", "c"]
        assert [t.name for t in cat.tasks] == ["t1", "t2"]
        np.testing.assert_array_equal(cat.tasks[0].X[0], [11.0, 13.0])
        np.testing.assert_array_equal(cat.tasks[1].X[0], [21.0, 23.0])

    def test_no_shared_feature(self):
        t1 = make_task("t1", ["a"], [[1.0]], [0.0], ["x"])
        t2 = make_task("t2", ["a"], [[1.0]], [0.0], ["y"])
        with pytest.raises(DataError, match="no feature is shared"):
            build_category([t1, t2])

    def test_misaligned_columns_rejected_directly(self):
        t = make_task("t", ["a"], [[1.0, 2.0]], [0.0], ["g", "f"])
        with pytest.raises(DataError, match="candidate feature order"):
            MultitaskDataset(tasks=[t], candidate_features=["f", "g"])


class TestLargestRemainder:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (10, [7, 2, 1]),
            (1, [1, 0, 0]),
            (4, [3, 1, 0]),
            (9, [6, 2, 1]),
            (0, [0, 0, 0]),
        ],
    )
    def test_frozen_allocations(self, n, expected):
        assert _largest_remainder(n, (0.7, 0.2, 0.1)) == expected

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=60, deadline=None)
    def test_total_preserved_and_near_exact(self, n):
        counts = _largest_remainder(n, (0.7, 0.2, 0.1))
        assert sum(counts) == n
        for c, r in zip(counts, (0.7, 0.2, 0.1)):
            assert abs(c - n * r) < 1.0


def split_labels(tasks, split):
    """id -> partition name, checking consistency across tasks on the way."""
    labels = {}
    for t, task in enumerate(tasks):
        for part, idx in (("train", split.train[t]), ("val", split.val[t]), ("test", split.test[t])):
            for i in idx:
                sid = task.sample_ids[i]
                assert labels.setdefault(sid, part) == part
    return labels


class TestOverlapSplit:
    def test_counts_ten_samples(self):
        task = make_task("t", [f"s{i}" for i in range(10)], np.zeros((10, 1)), np.arange(10.0))
        split = overlap_split([task], seed=3)
        assert [len(split.train[0]), len(split.val[0]), len(split.test[0])] == [7, 2, 1]

    def test_partitions_cover_every_row_once(self):
        task = make_task("t", [f"s{i}" for i in range(23)], np.zeros((23, 1)), np.arange(23.0))
        split = overlap_split([task], seed=1)
        merged = np.concatenate([split.train[0], split.val[0], split.test[0]])
        assert sorted(merged.tolist()) == list(range(23))

    def test_shared_ids_land_in_same_partition(self):
        shared = [f"c{i}" for i in range(10)]
        t1 = make_task("t1", shared + ["a1", "a2"], np.zeros((12, 1)), np.arange(12.0))
        t2 = make_task("t2", ["b1", "b2", "b3"] + shared, np.zeros((13, 1)), np.arange(13.0))
        split = overlap_split([t1, t2], seed=5)
        split_labels([t1, t2], split)  # raises on any cross-task disagreement

    def test_stratified_within_overlap_cells(self):
        # 10 shared ids and 10 exclusive per task: each cell splits 7/2/1.
        shared = [f"c{i}" for i in range(10)]
        only1 = [f"a{i}" for i in range(10)]
        only2 = [f"b{i}" for i in range(10)]
        t1 = make_task("t1", shared + only1, np.zeros((20, 1)), np.arange(20.0))
        t2 = make_task("t2", shared + only2, np.zeros((20, 1)), np.arange(20.0))
        labels = split_labels([t1, t2], overlap_split([t1, t2], seed=7))
        for cell in (shared, only1, only2):
            counts = [sum(labels[s] == p for s in cell) for p in ("train", "val", "test")]
            assert counts == [7, 2, 1]

    def test_same_seed_reproduces(self):
        task = make_task("t", [f"s{i}" for i in range(40)], np.zeros((40, 1)), np.arange(40.0))
        a = overlap_split([task], seed=11)
        b = overlap_split([task], seed=11)
        for part_a, part_b in ((a.train, b.train), (a.val, b.val), (a.test, b.test)):
            np.testing.assert_array_equal(part_a[0], part_b[0])

    def test_different_seed_differs(self):
        task = make_task("t", [f"s{i}" for i in range(200)], np.zeros((200, 1)), np.arange(200.0))
        a = overlap_split([task], seed=0)
        b = overlap_split([task], seed=1)
        assert not np.array_equal(a.train[0], b.train[0])

    def test_bad_ratios_rejected(self):
        task = make_task("t", ["s0"], np.zeros((1, 1)), [0.0])
        with pytest.raises(DataError, match="ratios"):
            overlap_split([task], ratios=(0.5, 0.5, 0.2))
        with pytest.raises(DataError, match="ratios"):
            overlap_split([task], ratios=(1.0, 0.0, 0.0))
        with pytest.raises(DataError, match="ratios"):
            overlap_split([task], ratios=(float("nan"), 0.5, 0.5))

    def test_serialization_lists_sample_ids(self, tmp_path):
        task = make_task("t", [f"s{i}" for i in range(10)], np.zeros((10, 1)), np.arange(10.0))
        split = overlap_split([task], seed=2)
        write_json(tmp_path / "split.json", split.to_dict([task]))
        doc = json.loads((tmp_path / "split.json").read_text())
        assert doc["seed"] == 2
        ids = doc["tasks"]["t"]
        assert sorted(ids["train"] + ids["val"] + ids["test"]) == sorted(task.sample_ids)

    @given(
        membership=st.lists(
            st.tuples(st.booleans(), st.booleans(), st.booleans()).filter(any),
            min_size=1,
            max_size=60,
        ),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_no_leakage_exact_coverage(self, membership, seed):
        tasks = []
        for t in range(3):
            ids = [f"s{i}" for i, row in enumerate(membership) if row[t]]
            if not ids:
                continue
            n = len(ids)
            tasks.append(make_task(f"t{t}", ids, np.zeros((n, 1)), np.zeros(n)))
        split = overlap_split(tasks, seed=seed)
        labels = split_labels(tasks, split)
        assert len(labels) == len({s for t in tasks for s in t.sample_ids})
        for t, task in enumerate(tasks):
            merged = np.concatenate([split.train[t], split.val[t], split.test[t]])
            assert sorted(merged.tolist()) == list(range(len(task.y)))


class TestStandardizer:
    def test_one_two_three_column(self):
        task = make_task("t", ["a", "b", "c"], [[1.0], [2.0], [3.0]], [1.0, 2.0, 3.0])
        st_ = fit_standardizer(task, np.arange(3))
        got = st_.transform_X(task.X)[:, 0]
        root = math.sqrt(1.5)
        assert got.tolist() == pytest.approx([-root, 0.0, root], abs=1e-12)
        assert st_.transform_y(task.y).tolist() == pytest.approx([-root, 0.0, root], abs=1e-12)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(0)
        task = make_task("t", [f"s{i}" for i in range(20)], rng.normal(size=(20, 2)), rng.normal(size=20))
        st_ = fit_standardizer(task, np.arange(20))
        assert st_.inverse_y(st_.transform_y(task.y)) == pytest.approx(task.y)

    def test_dict_round_trip(self):
        task = make_task("t", ["a", "b"], [[1.0], [4.0]], [0.5, 1.5])
        st_ = fit_standardizer(task, np.arange(2))
        clone = type(st_).from_dict(st_.to_dict())
        np.testing.assert_array_equal(clone.x_mean, st_.x_mean)
        np.testing.assert_array_equal(clone.x_std, st_.x_std)
        assert (clone.y_mean, clone.y_std) == (st_.y_mean, st_.y_std)

    def test_constant_feature_named(self):
        task = make_task(
            "t", ["a", "b"], [[1.0, 5.0], [2.0, 5.0]], [0.0, 1.0], ["ok", "flat"]
        )
        with pytest.raises(NumericalError, match="'flat' is constant on train"):
            fit_standardizer(task, np.arange(2))

    def test_constant_target_rejected(self):
        task = make_task("t", ["a", "b"], [[1.0], [2.0]], [3.0, 3.0])
        with pytest.raises(NumericalError, match="target is constant"):
            fit_standardizer(task, np.arange(2))

    def test_empty_train_rejected(self):
        task = make_task("t", ["a"], [[1.0]], [0.0])
        with pytest.raises(DataError, match="empty training partition"):
            fit_standardizer(task, np.array([], dtype=np.intp))


class TestJsonNumbers:
    @pytest.mark.parametrize(
        "value, problem",
        [
            *((v, "holds a non-finite number") for v in (10**400, -(10**400), math.nan, math.inf)),
            (True, "must be a list of numbers"),
        ],
    )
    def test_refuses_what_is_not_a_finite_number(self, value, problem):
        with pytest.raises(DataError, match=f"^node 3: values {problem}$"):
            json_numbers([0.5, value], "node 3: values")


class TestStandardizeDataset:
    def test_train_statistics_only(self):
        # Train rows are [0, 2] (mean 1, std 1); the val row transforms with
        # those statistics, not its own.
        task = make_task("t", ["a", "b", "c"], [[0.0], [2.0], [5.0]], [0.0, 2.0, 5.0])
        data = MultitaskDataset(tasks=[task], candidate_features=["f0"])
        split = overlap_split([task], seed=0)
        split.train[0] = np.array([0, 1], dtype=np.intp)
        split.val[0] = np.array([2], dtype=np.intp)
        split.test[0] = np.array([], dtype=np.intp)
        std_data, stands = standardize_dataset(data, split)
        got = std_data.tasks[0]
        np.testing.assert_allclose(got.X[:, 0], [-1.0, 1.0, 4.0])
        np.testing.assert_allclose(got.y, [-1.0, 1.0, 4.0])
        assert stands[0].y_mean == 1.0 and stands[0].y_std == 1.0

    def test_train_moments_are_zero_one(self):
        rng = np.random.default_rng(4)
        tasks = [
            make_task(
                f"t{t}",
                [f"s{t}-{i}" for i in range(50)],
                rng.normal(loc=3.0, scale=2.0, size=(50, 3)),
                rng.normal(loc=-1.0, size=50),
            )
            for t in range(2)
        ]
        data = MultitaskDataset(tasks=tasks, candidate_features=tasks[0].feature_names)
        split = overlap_split(tasks, seed=9)
        std_data, _ = standardize_dataset(data, split)
        for t, task in enumerate(std_data.tasks):
            tr = split.train[t]
            np.testing.assert_allclose(task.X[tr].mean(axis=0), 0.0, atol=1e-12)
            np.testing.assert_allclose(task.X[tr].std(axis=0), 1.0, atol=1e-12)
            np.testing.assert_allclose(task.y[tr].std(), 1.0, atol=1e-12)


class TestManifest:
    def test_round_trip(self, tmp_path):
        (tmp_path / "t1.csv").write_text(
            "id,beta,alpha,const,target\ns1,1.0,2.0,9.0,0.5\ns2,3.0,4.0,9.0,1.5\n"
        )
        (tmp_path / "t2.csv").write_text(
            "id,alpha,beta,extra,target\nr1,5.0,6.0,1.0,2.5\nr2,7.0,8.0,2.0,3.5\n"
        )
        (tmp_path / "manifest.json").write_text(
            json.dumps({"tasks": {"t2": "t2.csv", "t1": "t1.csv"}})
        )
        cat = load_manifest(str(tmp_path / "manifest.json"))
        # "const" is pruned from t1, "extra" is not shared, names sort.
        assert cat.candidate_features == ["alpha", "beta"]
        assert cat.task_names == ["t1", "t2"]
        np.testing.assert_array_equal(cat.tasks[0].X, [[2.0, 1.0], [4.0, 3.0]])
        np.testing.assert_array_equal(cat.tasks[1].X, [[5.0, 6.0], [7.0, 8.0]])

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "manifest.json"
        p.write_text("{")
        with pytest.raises(DataError, match="invalid JSON"):
            load_manifest(str(p))

    def test_missing_tasks_key(self, tmp_path):
        p = tmp_path / "manifest.json"
        p.write_text("{}")
        with pytest.raises(DataError, match="map task names to CSV paths"):
            load_manifest(str(p))
