import os

import numpy as np
import pytest

from conftest import dataset_available, requires_datasets, ucr_data_dir
from efdls import dataio
from efdls.dataio import (
    DATASET_REGISTRY, IngestionError, MetaMismatchError, load_ucr_tsv, make_synthetic_waves,
    pad_to_length, z_normalize,
)


def write_tsv(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write("\t".join(str(v) for v in row) + "\n")


def make_dataset_dir(tmp_path, name, train_rows, test_rows):
    d = tmp_path / name
    d.mkdir()
    write_tsv(d / f"{name}_TRAIN.tsv", train_rows)
    write_tsv(d / f"{name}_TEST.tsv", test_rows)
    return str(d)


class TestZNormalize:
    def test_constant_series_maps_to_zeros(self):
        assert np.array_equal(z_normalize(np.full(7, 3.3)), np.zeros(7))

    def test_two_point_closed_form(self):
        np.testing.assert_allclose(z_normalize(np.array([0.0, 2.0])), [-1.0, 1.0])

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(0)
        s = rng.standard_normal(50) * 3 + 4
        out = z_normalize(s)
        mean = sum(s) / len(s)
        std = (sum((v - mean) ** 2 for v in s) / len(s)) ** 0.5
        np.testing.assert_allclose(out, [(v - mean) / std for v in s], atol=1e-9)
        assert abs(out.mean()) < 1e-6
        assert abs(out.std() - 1.0) < 1e-5


class TestPadding:
    def test_already_at_target(self):
        s = np.arange(5.0)
        assert np.array_equal(pad_to_length(s, 5), s)

    def test_pads_trailing_zeros(self):
        out = pad_to_length(np.array([1.0, 2.0, 3.0]), 5)
        assert np.array_equal(out, [1.0, 2.0, 3.0, 0.0, 0.0])

    def test_longer_than_target_rejected(self):
        with pytest.raises(IngestionError):
            pad_to_length(np.zeros(6), 5)


class TestLoadUcrTsv:
    def test_label_remapping_sorted_contiguous(self, tmp_path):
        path = make_dataset_dir(
            tmp_path, "Crafted",
            train_rows=[[5, 1.0, 2.0, 3.0], [7, 0.0, 1.0, 0.0], [5, 2.0, 2.0, 2.0]],
            test_rows=[[7, 1.0, 1.0, 2.0]],
        )
        ds = load_ucr_tsv(path)
        assert np.array_equal(ds.y_train, [0, 1, 0])
        assert np.array_equal(ds.y_test, [1])
        assert ds.num_classes == 2
        assert ds.label_map == {5.0: 0, 7.0: 1}

    def test_instances_are_z_normalized(self, tmp_path):
        path = make_dataset_dir(
            tmp_path, "Norm",
            train_rows=[[0, 0.0, 2.0], [1, 10.0, 30.0]],
            test_rows=[[0, 5.0, 5.0]],
        )
        ds = load_ucr_tsv(path)
        np.testing.assert_allclose(ds.x_train[0], [-1.0, 1.0])
        np.testing.assert_allclose(ds.x_train[1], [-1.0, 1.0])
        np.testing.assert_allclose(ds.x_test[0], [0.0, 0.0])  # constant series rule

    def test_vary_length_zero_padded_after_normalization(self, tmp_path):
        path = make_dataset_dir(
            tmp_path, "Varied",
            train_rows=[[0, 0.0, 2.0, "NaN", "NaN"], [1, 1.0, 3.0, 5.0, 7.0]],
            test_rows=[[0, 2.0, 4.0, 6.0]],
        )
        ds = load_ucr_tsv(path)
        assert ds.series_length == 4
        assert not np.isnan(ds.x_train).any() and not np.isnan(ds.x_test).any()
        # padded tail of the short series is exact zeros, not normalized values
        np.testing.assert_array_equal(ds.x_train[0, 2:], [0.0, 0.0])
        np.testing.assert_allclose(ds.x_train[0, :2], [-1.0, 1.0])
        # test split padded to the max over both splits
        assert ds.x_test.shape == (1, 4)
        np.testing.assert_array_equal(ds.x_test[0, 3:], [0.0])

    def test_empty_file_rejected(self, tmp_path):
        d = tmp_path / "Empty"
        d.mkdir()
        (d / "Empty_TRAIN.tsv").write_text("")
        (d / "Empty_TEST.tsv").write_text("")
        with pytest.raises(IngestionError, match="no instances"):
            load_ucr_tsv(str(d))

    def test_unparseable_row_rejected(self, tmp_path):
        path = make_dataset_dir(tmp_path, "Bad",
                                train_rows=[[0, 1.0, "oops"]], test_rows=[[0, 1.0, 2.0]])
        with pytest.raises(IngestionError, match="unparseable"):
            load_ucr_tsv(path)

    @pytest.mark.parametrize("value", ["inf", "-inf", "Infinity"])
    def test_infinite_value_rejected_with_line(self, tmp_path, value):
        path = make_dataset_dir(tmp_path, "Inf",
                                train_rows=[[0, 0.5, 0.6, 0.7, 0.8], [1, 0.1, 0.2, value, 0.4]],
                                test_rows=[[0, 1.0, 2.0, 3.0, 4.0]])
        with pytest.raises(IngestionError) as info:
            load_ucr_tsv(path)
        assert "Inf_TRAIN.tsv:2: infinite value in field 4" in str(info.value)

    @pytest.mark.parametrize("label", ["nan", "inf"])
    def test_non_finite_label_rejected_with_line(self, tmp_path, label):
        path = make_dataset_dir(tmp_path, "NanLabel",
                                train_rows=[[0, 1.0, 2.0]],
                                test_rows=[[1, 2.0, 1.0], [label, 1.0, 2.0]])
        with pytest.raises(IngestionError) as info:
            load_ucr_tsv(path)
        assert "NanLabel_TEST.tsv:2: non-finite label" in str(info.value)

    def test_nan_padding_and_gaps_still_load(self, tmp_path):
        # trailing NaNs are padding and are stripped; an interior NaN takes
        # the series mean, so it normalizes to exact zero
        path = make_dataset_dir(
            tmp_path, "Gappy",
            train_rows=[[0, 1.0, "nan", 3.0, "NaN", "NaN"], [1, 4.0, 2.0, 4.0, 2.0, 4.0]],
            test_rows=[[1, 0.0, 2.0]],
        )
        ds = load_ucr_tsv(path)
        assert ds.series_length == 5
        np.testing.assert_array_equal(ds.x_train[0, :3], z_normalize(np.array([1.0, 2.0, 3.0])))
        assert ds.x_train[0, 1] == 0.0
        np.testing.assert_array_equal(ds.x_train[0, 3:], [0.0, 0.0])
        np.testing.assert_array_equal(ds.x_test[0], [-1.0, 1.0, 0.0, 0.0, 0.0])

    def test_missing_file_rejected(self, tmp_path):
        d = tmp_path / "Missing"
        d.mkdir()
        (d / "Missing_TRAIN.tsv").write_text("0\t1.0\t2.0\n")
        with pytest.raises(IngestionError, match="missing dataset file"):
            load_ucr_tsv(str(d))

    def test_meta_mismatch_reported(self, tmp_path):
        path = make_dataset_dir(tmp_path, "Tiny",
                                train_rows=[[0, 1.0, 2.0], [1, 2.0, 1.0]],
                                test_rows=[[0, 1.0, 2.0]])
        meta = dataio.DatasetMeta(train=99, test=1, classes=2, length=2, kind="Test")
        with pytest.raises(MetaMismatchError, match="train count"):
            load_ucr_tsv(path, meta=meta)

    def test_inconsistent_length_in_fixed_set_reported(self, tmp_path):
        path = make_dataset_dir(tmp_path, "Ragged",
                                train_rows=[[0, 1.0, 2.0, 3.0], [1, 2.0, 1.0]],
                                test_rows=[[0, 1.0, 2.0, 3.0]])
        meta = dataio.DatasetMeta(train=2, test=1, classes=2, length=3, kind="Test")
        with pytest.raises(MetaMismatchError, match="length"):
            load_ucr_tsv(path, meta=meta)

    def test_idempotent(self, tmp_path):
        path = make_dataset_dir(tmp_path, "Twice",
                                train_rows=[[0, 1.0, 2.0, 4.0], [1, 3.0, 0.0, 1.0]],
                                test_rows=[[1, 5.0, 5.0, 6.0]])
        a, b = load_ucr_tsv(path), load_ucr_tsv(path)
        assert np.array_equal(a.x_train, b.x_train)
        assert np.array_equal(a.y_train, b.y_train)
        assert np.array_equal(a.x_test, b.x_test)


class TestRegistry:
    def test_44_datasets_registered(self):
        assert len(DATASET_REGISTRY) == 44
        lengths = [m.length for m in DATASET_REGISTRY.values()]
        assert sum(1 for v in lengths if v is None) == 11  # the vary group

    def test_chinatown_row(self):
        meta = DATASET_REGISTRY["Chinatown"]
        assert (meta.train, meta.test, meta.classes, meta.length) == (20, 345, 2, 24)

    @requires_datasets("Chinatown")
    def test_chinatown_loads_and_validates(self):
        ds = load_ucr_tsv(os.path.join(ucr_data_dir(), "Chinatown"),
                          meta=DATASET_REGISTRY["Chinatown"])
        assert ds.x_train.shape == (20, 24)
        assert ds.x_test.shape == (345, 24)
        assert ds.num_classes == 2

    def test_every_available_registry_dataset_matches_table(self):
        d = ucr_data_dir()
        if d is None:
            pytest.skip("UCR archive files not present in this environment (set EFDLS_DATA_DIR)")
        checked = 0
        for name in DATASET_REGISTRY:
            if dataset_available(name):
                # raises on any mismatch
                load_ucr_tsv(os.path.join(d, name), meta=DATASET_REGISTRY[name])
                checked += 1
        if checked == 0:
            pytest.skip("no registry datasets present under EFDLS_DATA_DIR")


class TestSyntheticWaves:
    def test_deterministic(self):
        a = make_synthetic_waves(seed=5)
        b = make_synthetic_waves(seed=5)
        assert np.array_equal(a.x_train, b.x_train)
        assert np.array_equal(a.y_train, b.y_train)

    def test_shapes_and_classes(self):
        ds = make_synthetic_waves(n_train=10, n_test=6, length=32, seed=1)
        assert ds.x_train.shape == (10, 32)
        assert ds.x_test.shape == (6, 32)
        assert set(ds.y_train.tolist()) == {0, 1}
        assert ds.num_classes == 2
