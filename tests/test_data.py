"""Dataset generation, loaders, and split management."""

import csv
import json
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from steinunlearn import cli, data
from steinunlearn.errors import ArgumentError, ConfigurationError, DataError

from test_golden import golden_config_dict

# Each case: the text of a CSV file whose label column is "label", and the
# error load_csv must raise after "<path>: ".
BAD_CSV_FILES = [
    pytest.param("", "empty dataset (no header)", id="no-header"),
    pytest.param("a,label\n1.0,0\n2.0\n", "row 1 has 1 cells, expected 2",
                 id="short-row"),
    pytest.param("a,label\n1.0,0.5\n",
                 "row 0, column 'label': label '0.5' is not an integer",
                 id="fractional-label"),
    pytest.param("a,label\n1.0,0\n2.0,-1\n",
                 "row 1, column 'label': label '-1' is not in [0, 9223372036854775807]",
                 id="negative-label"),
    pytest.param("a,label\n1.0,99999999999999999999\n",
                 "row 0, column 'label': label '99999999999999999999' is not in "
                 "[0, 9223372036854775807]", id="label-beyond-int64"),
    pytest.param("label\n0\n1\n", "no feature columns besides 'label'",
                 id="label-only"),
]


class TestMakeBlobs:
    def test_counts_and_balance(self):
        centers = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
        ds = data.make_blobs(200, centers, std=0.5, seed=0)
        assert ds.n == 600
        assert np.array_equal(np.bincount(ds.labels), [200, 200, 200])
        assert ds.n_classes == 3

    def test_deterministic(self):
        centers = np.array([[0.0, 0.0], [3.0, 3.0]])
        a = data.make_blobs(50, centers, std=1.0, seed=9)
        b = data.make_blobs(50, centers, std=1.0, seed=9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_vanishing_std_collapses_to_centers(self):
        centers = np.array([[1.0, 2.0], [5.0, 6.0]])
        ds = data.make_blobs(10, centers, std=1e-300, seed=3)
        assert np.array_equal(ds.features, centers[ds.labels])

    def test_nonpositive_std_rejected(self):
        with pytest.raises(ConfigurationError):
            data.make_blobs(10, np.array([[0.0], [1.0]]), std=0.0, seed=0)

    def test_single_center_rejected(self):
        with pytest.raises(ConfigurationError):
            data.make_blobs(10, np.array([[0.0, 0.0]]), std=1.0, seed=0)

    def test_empirical_means_near_centers(self):
        # law-of-large-numbers bound: per-class mean within 5*std/sqrt(n)
        centers = np.array([[0.0, 0.0], [10.0, -3.0], [-4.0, 7.0]])
        n, std = 400, 2.0
        ds = data.make_blobs(n, centers, std=std, seed=11)
        bound = 5 * std / np.sqrt(n)
        for c in range(3):
            mean = ds.features[ds.labels == c].mean(axis=0)
            assert np.linalg.norm(mean - centers[c]) < bound * np.sqrt(2)


class TestLoadCsv:
    def test_basic(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,label\n1.0,2.0,0\n3.0,4.0,1\n5.0,6.0,2\n")
        ds = data.load_csv(p, "label")
        assert ds.n == 3
        assert ds.n_classes == 3
        assert np.array_equal(ds.ids, [0, 1, 2])
        assert np.array_equal(ds.features[1], [3.0, 4.0])

    def test_header_only_is_empty(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b,label\n")
        with pytest.raises(DataError, match="empty dataset"):
            data.load_csv(p, "label")

    def test_bad_cell_names_row(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,label\n1.0,0\n2.0,1\nabc,0\n")
        with pytest.raises(DataError, match="row 2"):
            data.load_csv(p, "label")

    def test_missing_label_column(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,b\n1.0,2.0\n")
        with pytest.raises(DataError, match="missing label column"):
            data.load_csv(p, "y")

    def test_rejects_non_finite(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("a,label\nnan,0\n1.0,1\n")
        with pytest.raises(DataError, match="non-finite"):
            data.load_csv(p, "label")

    @pytest.mark.parametrize("text, message", BAD_CSV_FILES)
    def test_bad_file_exits_1_naming_path_and_cause(self, tmp_path, capsys, text,
                                                   message):
        p = tmp_path / "d.csv"
        p.write_text(text)
        cfg = golden_config_dict(
            dataset={"type": "csv", "path": str(p), "label_column": "label"},
            output_dir=str(tmp_path / "out"),
        )
        (tmp_path / "cfg.json").write_text(json.dumps(cfg))
        assert cli.main(["train", "--config", str(tmp_path / "cfg.json")]) == 1
        assert capsys.readouterr().err == f"error: {p}: {message}\n"

    def test_byte_order_mark_is_skipped(self, tmp_path):
        text = "label,a,b\n0,1.0,2.0\n1,3.0,4.0\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        a, b = data.load_csv(plain, "label"), data.load_csv(marked, "label")
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)


class TestLabeledDataset:
    @pytest.mark.parametrize("shape", [(0, 2), (3, 0)])
    def test_empty_feature_matrix_rejected(self, shape):
        n = shape[0]
        with pytest.raises(DataError, match=re.escape(f"got shape {shape}")):
            data.LabeledDataset(np.zeros(shape), np.zeros(n), np.arange(n), 2)


class TestStandardizeFeatures:
    def test_columns_have_zero_mean_and_unit_std(self):
        ds = data.make_blobs(20, np.array([[0.0, 10.0], [5.0, -3.0]]), std=2.0, seed=4)
        z = data.standardize_features(ds)
        assert np.allclose(z.features.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(z.features.std(axis=0), 1.0, rtol=1e-12)
        assert np.array_equal(z.labels, ds.labels) and np.array_equal(z.ids, ds.ids)

    def test_constant_column_rejected(self):
        ds = data.LabeledDataset(np.array([[1.0, 2.0], [3.0, 2.0]]),
                                 np.array([0, 1]), np.arange(2), 2)
        with pytest.raises(DataError, match="cannot standardize a constant feature"):
            data.standardize_features(ds)


def _write_idx_pair(tmp_path, images, labels):
    n, rows, cols = images.shape
    img_path = tmp_path / "images.idx"
    lab_path = tmp_path / "labels.idx"
    img_path.write_bytes(
        struct.pack(">IIII", 0x803, n, rows, cols) + images.astype(np.uint8).tobytes()
    )
    lab_path.write_bytes(
        struct.pack(">II", 0x801, n) + labels.astype(np.uint8).tobytes()
    )
    return img_path, lab_path


class TestLoadIdx:
    def test_shapes_and_scaling(self, tmp_path):
        images = np.zeros((3, 28, 28), dtype=np.uint8)
        images[1] = 255
        labels = np.array([0, 1, 2], dtype=np.uint8)
        img_path, lab_path = _write_idx_pair(tmp_path, images, labels)
        ds = data.load_idx(img_path, lab_path)
        assert ds.features.shape == (3, 784)
        assert np.all(ds.features[0] == 0.0)
        assert np.all(ds.features[1] == 1.0)

    def test_bad_magic(self, tmp_path):
        images = np.zeros((1, 2, 2), dtype=np.uint8)
        labels = np.array([0, 0], dtype=np.uint8)[:1]
        img_path, lab_path = _write_idx_pair(tmp_path, images, labels)
        img_path.write_bytes(b"\x00\x00\x09\x99" + img_path.read_bytes()[4:])
        with pytest.raises(DataError, match="magic"):
            data.load_idx(img_path, lab_path)

    def test_count_mismatch(self, tmp_path):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        img_path, lab_path = _write_idx_pair(tmp_path, images, np.zeros(2))
        lab_path.write_bytes(struct.pack(">II", 0x801, 3) + b"\x00\x00\x00")
        with pytest.raises(DataError, match="mismatch"):
            data.load_idx(img_path, lab_path)

    def test_empty_pair(self, tmp_path):
        images = np.zeros((0, 2, 2), dtype=np.uint8)
        img_path, lab_path = _write_idx_pair(tmp_path, images, np.zeros(0))
        text = f"{img_path}: empty dataset (no images)"
        with pytest.raises(DataError, match=f"^{re.escape(text)}$"):
            data.load_idx(img_path, lab_path)

    def test_images_without_pixels_rejected(self, tmp_path):
        images = np.zeros((2, 0, 3), dtype=np.uint8)
        img_path, lab_path = _write_idx_pair(tmp_path, images, np.zeros(2))
        text = f"{img_path}: images of 0x3 have no pixels"
        with pytest.raises(DataError, match=f"^{re.escape(text)}$"):
            data.load_idx(img_path, lab_path)

    def test_truncated_file(self, tmp_path):
        images = np.zeros((2, 3, 3), dtype=np.uint8)
        img_path, lab_path = _write_idx_pair(tmp_path, images, np.zeros(2))
        blob = img_path.read_bytes()
        img_path.write_bytes(blob[:-5])
        with pytest.raises(DataError, match="truncated"):
            data.load_idx(img_path, lab_path)


class TestSplit:
    def test_sizes(self):
        ds = data.make_blobs(50, np.array([[0.0], [5.0]]), std=1.0, seed=0)
        plan = data.split(ds, 0.2, seed=1)
        assert plan.test_ids.size == 20
        assert plan.train_ids.size == 80
        assert plan.forget_ids.size == 0

    def test_deterministic(self):
        ds = data.make_blobs(50, np.array([[0.0], [5.0]]), std=1.0, seed=0)
        a = data.split(ds, 0.25, seed=7)
        b = data.split(ds, 0.25, seed=7)
        assert np.array_equal(a.test_ids, b.test_ids)
        assert np.array_equal(a.retain_ids, b.retain_ids)

    def test_bad_fraction(self):
        ds = data.make_blobs(5, np.array([[0.0], [5.0]]), std=1.0, seed=0)
        with pytest.raises(ConfigurationError):
            data.split(ds, 1.5, seed=0)

    @given(n_per_class=st.integers(3, 40), frac=st.floats(0.1, 0.5),
           seed=st.integers(0, 100))
    @settings(max_examples=30, deadline=None)
    def test_partition_property(self, n_per_class, frac, seed):
        ds = data.make_blobs(n_per_class, np.array([[0.0], [5.0]]), std=1.0, seed=0)
        plan = data.split(ds, frac, seed=seed)
        union = np.sort(np.concatenate([plan.train_ids, plan.test_ids]))
        assert np.array_equal(union, ds.ids)
        assert np.intersect1d(plan.train_ids, plan.test_ids).size == 0


class TestSplitPlan:
    def test_with_forget_moves_ids(self):
        plan = data.SplitPlan(
            retain_ids=np.array([0, 1, 2, 3]),
            forget_ids=np.array([], dtype=np.int64),
            test_ids=np.array([4, 5]),
        )
        moved = plan.with_forget(np.array([1, 3]))
        assert np.array_equal(moved.forget_ids, [1, 3])
        assert np.array_equal(moved.retain_ids, [0, 2])
        assert np.array_equal(moved.train_ids, [0, 1, 2, 3])

    def test_with_forget_rejects_test_ids(self):
        plan = data.SplitPlan(
            retain_ids=np.array([0, 1]),
            forget_ids=np.array([], dtype=np.int64),
            test_ids=np.array([2]),
        )
        with pytest.raises(ArgumentError,
                           match=re.escape("forget ids [2] are not training samples")):
            plan.with_forget(np.array([2]))

    def test_with_forget_names_every_missing_id_once_ascending(self):
        plan = data.SplitPlan(
            retain_ids=np.array([0, 1]),
            forget_ids=np.array([], dtype=np.int64),
            test_ids=np.array([2]),
        )
        with pytest.raises(ArgumentError,
                           match=re.escape("forget ids [2, 9] are not training samples")):
            plan.with_forget(np.array([9, 2, 0, 9]))

    def test_overlap_rejected(self):
        with pytest.raises(DataError):
            data.SplitPlan(
                retain_ids=np.array([0, 1]),
                forget_ids=np.array([1]),
                test_ids=np.array([2]),
            )

    def test_repeat_within_one_set_rejected(self):
        with pytest.raises(DataError, match="an id repeats"):
            data.SplitPlan(
                retain_ids=np.array([1, 1, 2]),
                forget_ids=np.empty(0, dtype=np.int64),
                test_ids=np.array([3]),
            )


class TestGather:
    def test_records_access(self):
        ds = data.make_blobs(5, np.array([[0.0], [5.0]]), std=1.0, seed=0)
        ds.access_log = data.AccessLog()
        data.gather(ds, np.array([0, 3, 3]))
        assert ds.access_log.count(0) == 1
        assert ds.access_log.count(3) == 2
        assert ds.access_log.count(1) == 0

    def test_out_of_range(self):
        ds = data.make_blobs(5, np.array([[0.0], [5.0]]), std=1.0, seed=0)
        with pytest.raises(ArgumentError):
            data.gather(ds, np.array([99]))


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


class TestArtifactWriters:
    @given(st.floats(allow_nan=False))
    @example(-0.0)
    @example(1e16)
    @example(0.1)
    @example(5e-324)
    @example(float("inf"))
    @example(float("-inf"))
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_csv_float_cell_round_trips_bit_for_bit(self, tmp_path, x):
        path = tmp_path / "cells.csv"
        data.write_csv(path, ["x"], [[x]])
        with path.open(newline="", encoding="utf-8") as fh:
            header, (cell,) = csv.reader(fh)
        assert header == ["x"]
        assert _bits(float(cell)) == _bits(x)

    def test_csv_rows_may_be_an_iterator(self, tmp_path):
        path = tmp_path / "rows.csv"
        data.write_csv(path, [0, 1], ([i, "a,b"] for i in range(2)))
        assert path.read_bytes() == b'0,1\n0,"a,b"\n1,"a,b"\n'

    def test_json_lines_one_sorted_object_per_line(self, tmp_path):
        objects = [{"b": 1, "a": [0.5, None]}, {"z": "x\ny", "c": {"e": 2, "d": 1}}]
        path = tmp_path / "objs.jsonl"
        data.write_json_lines(path, iter(objects))
        text = path.read_bytes().decode("utf-8")
        lines = text.split("\n")
        assert lines[-1] == "" and len(lines) == len(objects) + 1
        assert lines[:-1] == [json.dumps(o, sort_keys=True) for o in objects]
        assert [json.loads(line) for line in lines[:-1]] == objects
        assert lines[0] == '{"a": [0.5, null], "b": 1}'

    def test_golden_experiment_artifacts_have_no_carriage_return(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps(golden_config_dict()))
        assert cli.main(["experiment", "--config", "cfg.json"]) == 0
        artifacts = sorted((tmp_path / "out").iterdir())
        assert len(artifacts) == 7
        assert [p.name for p in artifacts if b"\r" in p.read_bytes()] == []
