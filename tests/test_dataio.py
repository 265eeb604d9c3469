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

    @pytest.mark.parametrize("value", [1000000.1, -330000.7, 123456.789])
    def test_large_constant_whose_mean_rounds_off_maps_to_zeros(self, value):
        series = np.full(1500, value)
        assert series.std() > 0.0  # the mean rounds off the value
        assert np.array_equal(z_normalize(series), np.zeros(1500))
        split = np.full((3, 1500), value)
        assert np.array_equal(dataio._normalize_split(split, 1500), np.zeros((3, 1500)))

    def test_gaps_in_a_large_constant_row_keep_it_constant(self):
        assert np.full(9, 1000000.1).mean() != 1000000.1  # the observed mean rounds off
        raw = np.full(12, 1000000.1)
        raw[[1, 3, 4]] = np.nan
        raw = np.concatenate([raw, [np.nan, np.nan]])  # trailing padding
        cleaned = dataio._clean_series(raw)
        assert np.array_equal(cleaned, np.full(12, 1000000.1))
        assert np.array_equal(z_normalize(cleaned), np.zeros(12))

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


def per_row_load(path):
    """The per-row ingest, kept as the oracle of ``load_ucr_tsv``: every
    line parsed, cleaned, normalized and padded on its own."""
    name = os.path.basename(path)
    splits = [dataio._parse_tsv_split(os.path.join(path, f"{name}_{split}.tsv"))
              for split in ("TRAIN", "TEST")]
    series = [[dataio._clean_series(r) for r in rows] for _, rows in splits]
    target = max(len(s) for split in series for s in split)
    originals = sorted({v for labels, _ in splits for v in labels.tolist()})
    out = []
    for (labels, _), split in zip(splits, series):
        out.append(np.stack([pad_to_length(z_normalize(s), target) for s in split]))
        out.append(np.array([originals.index(v) for v in labels.tolist()], dtype=np.int64))
    return out, {v: i for i, v in enumerate(originals)}


def finite_rows(rng, n, length):
    """Rows at scales from 1e-3 to 1e3, one exactly constant, one constant
    up to rounding, and one constant whose mean rounds off its value."""
    rows = [rng.standard_normal(length) * 10.0 ** rng.uniform(-3, 3) + rng.uniform(-5, 5)
            for _ in range(n - 3)]
    return rows + [np.full(length, 3.3), np.full(length, 0.1) + np.arange(length) * 1e-17,
                   np.full(length, 1000000.1)]


def tsv_lines(labels, rows, sep="\t"):
    return [sep.join([str(label)] + [repr(float(v)) for v in row]) for label, row in zip(labels, rows)]


def nan_padded(rng, rows):
    """Each row NaN-padded on the right to three fields past the longest."""
    width = max(len(r) for r in rows) + 3
    return [np.concatenate([r, np.full(width - len(r), np.nan)]) for r in rows]


def ingest_case(kind, length, seed):
    """(train lines, test lines, line end) of one ingest case."""
    rng = np.random.default_rng(seed)
    train_labels, test_labels = [3, 1, 2, 3, 1], [1, 2, 3, 2]
    train = finite_rows(rng, 5, length)
    test = finite_rows(rng, 4, length)
    end, sep = "\n", "\t"
    if kind == "nan_padded":
        # the test split is NaN-padded past the train split's length
        cut = [max(1, length + d) for d in (-1, 2, 0, 1)]
        test = nan_padded(rng, [rng.standard_normal(c) for c in cut])
    elif kind == "nan_gaps":
        for row in train[:3]:
            row[rng.choice(length, size=max(1, length // 3), replace=False)] = np.nan
            row[-1] = 1.5  # keep the gaps interior
    elif kind == "ragged":
        train = [rng.standard_normal(max(1, length + d)) for d in (0, -1, 2, 0, 1)]
    elif kind == "crlf":
        end = "\r\n"
    elif kind == "whitespace":
        sep = "  "
    train_lines = tsv_lines(train_labels, train, sep)
    test_lines = tsv_lines(test_labels, test, sep)
    if kind == "blank_lines":
        train_lines = ["", "  "] + train_lines[:2] + ["\t"] + train_lines[2:] + [""]
    elif kind == "whitespace":
        test_lines = [" " + line.replace("  ", "   ") + " " for line in test_lines]
    elif kind == "mixed_separators":
        # each line picks its own rule: tabs when it holds one
        train_lines = [line if i % 2 else line.replace("\t", " ") for i, line in enumerate(train_lines)]
    return train_lines, test_lines, end


INGEST_CASES = ([("finite", length) for length in (1, 2, 7, 24, 129, 256, 1024, 1500)]
                + [(kind, length)
                   for kind in ("nan_padded", "nan_gaps", "ragged", "crlf", "blank_lines",
                                "whitespace", "mixed_separators")
                   for length in (1, 7, 129)])


def write_case(tmp_path, name, train_lines, test_lines, end="\n"):
    d = tmp_path / name
    d.mkdir()
    for split, lines in (("TRAIN", train_lines), ("TEST", test_lines)):
        with open(d / f"{name}_{split}.tsv", "w", encoding="utf-8", newline="") as fh:
            fh.write("".join(line + end for line in lines))
    return str(d)


class TestWholeSplitIngest:
    """``load_ucr_tsv`` against the per-row oracle, bit for bit."""

    @pytest.mark.parametrize("kind,length", INGEST_CASES)
    def test_matches_per_row_ingest(self, tmp_path, kind, length):
        train_lines, test_lines, end = ingest_case(kind, length, seed=length)
        path = write_case(tmp_path, "Case", train_lines, test_lines, end)
        ds = load_ucr_tsv(path)
        (x_train, y_train, x_test, y_test), label_map = per_row_load(path)
        for got, want in ((ds.x_train, x_train), (ds.y_train, y_train),
                          (ds.x_test, x_test), (ds.y_test, y_test)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()
        assert ds.label_map == label_map
        assert [type(k) for k in ds.label_map] == [float] * len(label_map)
        assert ds.series_length == x_train.shape[1]

    def test_finite_equal_length_splits_skip_the_per_row_path(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(0)
        path = write_case(tmp_path, "Fast", tsv_lines([1, 2, 1], finite_rows(rng, 3, 24)),
                          tsv_lines([2, 1], finite_rows(rng, 2, 24)))
        want = load_ucr_tsv(path)
        for helper in ("_parse_tsv_split", "_clean_series", "z_normalize", "pad_to_length"):
            monkeypatch.setattr(dataio, helper, None)
        got = load_ucr_tsv(path)
        assert got.x_train.tobytes() == want.x_train.tobytes()
        assert got.x_test.tobytes() == want.x_test.tobytes()


REJECTED_ROWS = {
    "comment": "# a comment line",
    "empty_tab_field": "1\t0.5\t\t0.7",
    "non_finite_label": "nan\t0.5\t0.6\t0.7",
    "infinite_value": "1\t0.5\t-inf\t0.7",
    "all_nan_row": "2\tNaN\tNaN\tNaN",
    "label_only": "1",
    "unparseable_word": "1 0.5 oops 0.7",
}


class TestRejectionParity:
    """Every row the per-line parser rejects is rejected by ``load_ucr_tsv``
    with the same message, naming the file and line."""

    @pytest.mark.parametrize("split", ["TRAIN", "TEST"])
    @pytest.mark.parametrize("case", sorted(REJECTED_ROWS))
    def test_same_message_and_line(self, tmp_path, case, split):
        good = ["1\t0.1\t0.2\t0.4", "2\t0.3\t0.1\t0.2"]
        bad = good[:1] + [""] + [REJECTED_ROWS[case]] + good[1:]
        lines = {"TRAIN": good, "TEST": good, split: bad}
        path = write_case(tmp_path, "Bad", lines["TRAIN"], lines["TEST"])
        bad_file = os.path.join(path, f"Bad_{split}.tsv")
        with pytest.raises(IngestionError) as per_line:
            dataio._parse_tsv_split(bad_file)
        with pytest.raises(IngestionError) as whole:
            load_ucr_tsv(path)
        assert str(whole.value) == str(per_line.value)
        assert str(whole.value).startswith(f"{bad_file}:3: ")

    def test_all_nan_row_names_file_and_line(self, tmp_path):
        path = write_case(tmp_path, "Blank", ["1\t0.5\t0.6\t0.7", "2\tNaN\tNaN\tNaN"],
                          ["1\t0.5\t0.6\t0.7"])
        with pytest.raises(IngestionError) as info:
            load_ucr_tsv(path)
        assert str(info.value) == (f"{os.path.join(path, 'Blank_TRAIN.tsv')}:2: "
                                   "instance contains no observed values")


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
