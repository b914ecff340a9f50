"""Dataset generation, loaders, and split management."""

import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinunlearn import data
from steinunlearn.errors import ArgumentError, ConfigurationError, DataError


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
