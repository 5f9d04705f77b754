import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sulab.data import (Dataset, SubsetPair, load_points, make_class_mixture,
                        make_gaussian_dataset, make_pat_toy_dataset,
                        save_points, split_score_region)
from sulab.errors import FormatError, InvalidArgumentError, SulabError


class TestDataset:
    def test_basic_properties(self):
        ds = Dataset(np.zeros((5, 3)))
        assert ds.size == 5 and ds.dim == 3 and ds.num_classes == 0

    def test_points_immutable(self):
        ds = Dataset(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            ds.points[0, 0] = 1.0

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidArgumentError):
            Dataset(np.array([[np.inf, 0.0]]))

    def test_rejects_wrong_rank(self):
        with pytest.raises(InvalidArgumentError):
            Dataset(np.zeros(4))

    def test_rejects_bad_label_length(self):
        with pytest.raises(InvalidArgumentError):
            Dataset(np.zeros((3, 2)), labels=[0, 1])

    def test_rejects_negative_labels(self):
        with pytest.raises(InvalidArgumentError):
            Dataset(np.zeros((2, 2)), labels=[0, -1])

    def test_class_indices(self):
        ds = Dataset(np.zeros((4, 1)), labels=[0, 1, 1, 0])
        np.testing.assert_array_equal(ds.class_indices(1), [1, 2])
        assert ds.num_classes == 2

    def test_class_indices_unlabeled_raises(self):
        with pytest.raises(InvalidArgumentError):
            Dataset(np.zeros((2, 2))).class_indices(0)

    def test_subset_carries_labels(self):
        ds = Dataset(np.arange(8.0).reshape(4, 2), labels=[0, 1, 0, 1])
        sub = ds.subset([1, 3])
        np.testing.assert_array_equal(sub.labels, [1, 1])
        np.testing.assert_array_equal(sub.points, ds.points[[1, 3]])


class TestSubsetPair:
    def test_sorted_and_nested(self):
        pair = SubsetPair(score_idx=[3, 1], region_idx=[1, 5, 3])
        np.testing.assert_array_equal(pair.score_idx, [1, 3])
        np.testing.assert_array_equal(pair.region_idx, [1, 3, 5])

    def test_rejects_non_nested(self):
        with pytest.raises(InvalidArgumentError):
            SubsetPair(score_idx=[0, 9], region_idx=[0, 1])

    def test_rejects_duplicates(self):
        with pytest.raises(InvalidArgumentError):
            SubsetPair(score_idx=[1, 1], region_idx=[1, 2])

    def test_rejects_empty(self):
        with pytest.raises(InvalidArgumentError):
            SubsetPair(score_idx=[], region_idx=[1])


class TestConstructors:
    def test_gaussian_reproducible(self):
        a = make_gaussian_dataset(3, 10, seed=4)
        b = make_gaussian_dataset(3, 10, seed=4)
        np.testing.assert_array_equal(a.points, b.points)

    def test_gaussian_moments(self):
        ds = make_gaussian_dataset(4, 20000, seed=0)
        assert abs(ds.points.mean()) < 0.02
        assert abs(ds.points.std() - 1.0) < 0.02

    def test_pat_toy_points(self):
        ds = make_pat_toy_dataset()
        np.testing.assert_array_equal(
            ds.points,
            [[-1.0, 0.0], [-0.2, 0.0], [0.2, 0.0], [1.0, 0.0]])

    def test_mixture_shape_and_labels(self):
        ds = make_class_mixture(2, 16, seed=1, num_classes=3)
        assert ds.size == 48 and ds.num_classes == 3
        for c in range(3):
            assert len(ds.class_indices(c)) == 16

    def test_mixture_separation(self):
        ds = make_class_mixture(2, 50, seed=1, separation=8.0, num_classes=2)
        m0 = ds.points[ds.class_indices(0)].mean(axis=0)
        m1 = ds.points[ds.class_indices(1)].mean(axis=0)
        assert np.linalg.norm(m1 - m0) == pytest.approx(8.0, abs=1.0)


class TestSplitScoreRegion:
    def test_nesting_and_sizes(self):
        ds = make_gaussian_dataset(2, 50, seed=0)
        pair = split_score_region(ds, 8, 32, seed=1)
        assert len(pair.score_idx) == 8 and len(pair.region_idx) == 32
        assert set(pair.score_idx) <= set(pair.region_idx)

    def test_equal_sizes(self):
        ds = make_gaussian_dataset(2, 10, seed=0)
        pair = split_score_region(ds, 5, 5, seed=1)
        np.testing.assert_array_equal(pair.score_idx, pair.region_idx)

    def test_stratified_by_class(self):
        ds = make_class_mixture(2, 32, seed=2, num_classes=2)
        pair = split_score_region(ds, 16, 48, seed=3)
        labels = ds.labels[pair.score_idx]
        assert np.sum(labels == 0) == 8 and np.sum(labels == 1) == 8
        region_labels = ds.labels[pair.region_idx]
        assert np.sum(region_labels == 0) == 24

    def test_deterministic(self):
        ds = make_gaussian_dataset(2, 50, seed=0)
        a = split_score_region(ds, 8, 16, seed=7)
        b = split_score_region(ds, 8, 16, seed=7)
        np.testing.assert_array_equal(a.region_idx, b.region_idx)

    def test_rejects_bad_sizes(self):
        ds = make_gaussian_dataset(2, 10, seed=0)
        with pytest.raises(InvalidArgumentError):
            split_score_region(ds, 8, 4, seed=0)
        with pytest.raises(InvalidArgumentError):
            split_score_region(ds, 1, 11, seed=0)


class TestFileFormats:
    @pytest.mark.parametrize("fmt", ["csv", "raw-f64"])
    def test_round_trip_unlabeled(self, tmp_path, fmt):
        ds = make_gaussian_dataset(3, 7, seed=5)
        path = tmp_path / "pts"
        save_points(ds, path, fmt=fmt)
        back = load_points(path, fmt=fmt)
        np.testing.assert_array_equal(back.points, ds.points)
        assert back.labels is None

    @pytest.mark.parametrize("fmt", ["csv", "raw-f64"])
    def test_round_trip_labeled(self, tmp_path, fmt):
        ds = make_class_mixture(2, 5, seed=5)
        path = tmp_path / "pts"
        save_points(ds, path, fmt=fmt)
        back = load_points(path, fmt=fmt)
        np.testing.assert_array_equal(back.points, ds.points)
        np.testing.assert_array_equal(back.labels, ds.labels)

    def test_csv_round_trip_is_exact_for_awkward_floats(self, tmp_path):
        pts = np.array([[0.1, 1e-300], [np.pi, -1 / 3]])
        path = tmp_path / "pts"
        save_points(Dataset(pts), path)
        np.testing.assert_array_equal(load_points(path).points, pts)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError):
            load_points(tmp_path / "nope")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "pts"
        path.write_bytes(b"XXXX" + b"\0" * 32)
        with pytest.raises(FormatError):
            load_points(path, fmt="raw-f64")

    def test_truncated_raw(self, tmp_path):
        ds = make_gaussian_dataset(2, 4, seed=0)
        path = tmp_path / "pts"
        save_points(ds, path, fmt="raw-f64")
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError):
            load_points(path, fmt="raw-f64")

    def test_inconsistent_csv_width_reports_line(self, tmp_path):
        path = tmp_path / "pts"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(FormatError) as err:
            load_points(path)
        assert err.value.line == 2

    def test_unparseable_csv_cell(self, tmp_path):
        path = tmp_path / "pts"
        path.write_text("1.0,abc\n")
        with pytest.raises(FormatError):
            load_points(path)

    @pytest.mark.parametrize("damaged", ["pts", "pts.meta"])
    def test_non_utf8_bytes_name_the_file(self, tmp_path, damaged):
        path = tmp_path / "pts"
        path.write_text("1.0,2.0,0\n")
        (tmp_path / "pts.meta").write_text("labels=last\n")
        bad = tmp_path / damaged
        bad.write_bytes(bad.read_bytes() + b"\xff\n")
        with pytest.raises(FormatError, match=re.escape(str(bad))):
            load_points(path)

    def test_unknown_sidecar_directive(self, tmp_path):
        path = tmp_path / "pts"
        path.write_text("1.0,2.0\n")
        (tmp_path / "pts.meta").write_text("labels=first\n")
        with pytest.raises(FormatError):
            load_points(path)

    def test_unknown_format(self, tmp_path):
        ds = make_gaussian_dataset(2, 2, seed=0)
        with pytest.raises(InvalidArgumentError):
            save_points(ds, tmp_path / "x", fmt="json")


def _raw_head(version, d, n):
    return b"SUDS" + struct.pack("<IIQ", version, d, n)


class TestRandomFileBytes:
    # a dataset file comes from outside the program: whatever its bytes,
    # loading it gives a Dataset or a SulabError, never another exception
    file_bytes = st.one_of(
        st.binary(max_size=64),
        st.text("0123456789.,-+einf \n").map(str.encode),
        st.builds(lambda head, body: head + body,
                  st.builds(_raw_head, st.integers(0, 2), st.integers(0, 3),
                            st.integers(0, 4) | st.integers(0, 2**64 - 1)),
                  st.binary(max_size=48)))
    sidecar_bytes = st.none() | st.just(b"labels=last\n") | st.binary(max_size=16)

    @settings(max_examples=300, deadline=None)
    @example("csv", b"1.0,2.0\xff\n", None)
    @example("csv", b"1.0,99999999999999999999\n", b"labels=last\n")
    @example("raw-f64", _raw_head(1, 0, 2**64 - 1), None)
    @given(st.sampled_from(["csv", "raw-f64"]), file_bytes, sidecar_bytes)
    def test_loads_or_raises_sulab_error(self, tmp_path_factory, fmt, blob,
                                         sidecar):
        path = tmp_path_factory.mktemp("bytes") / "pts"
        path.write_bytes(blob)
        if sidecar is not None:
            (path.parent / "pts.meta").write_bytes(sidecar)
        try:
            load_points(path, fmt=fmt)
        except SulabError:
            pass
