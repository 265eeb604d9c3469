"""UCR-2018-style dataset ingestion.

Files hold one instance per line, label first. A line that holds a tab is
split on tabs, any other on whitespace; fields are read with ``float`` and
blank lines are skipped. Trailing NaNs are padding and are stripped; an
interior NaN takes the row's observed mean. A row with fewer than two
fields, an unparseable field, a non-finite label, an infinite value or no
observed value raises an ``IngestionError`` naming ``file:line``.

Ingestion remaps labels to contiguous 0-based indices (sorted original
order), z-normalizes each instance over its observed values (an instance
whose observed values are all equal becomes zeros), and zero right-pads
variable-length instances to the max length across both splits. Padding
happens after normalization, so pad values are exact zeros.

Each split file is tokenized in one pass. When its rows all hold the same
number of values and every value is finite, the split is normalized and
padded in whole-array passes, bit for bit as the per-row functions
(``_clean_series``, ``z_normalize``, ``pad_to_length``) that NaN-carrying
and ragged splits still take. A file with a row to reject is read again by
the per-line parser ``_parse_tsv_split``, whose message is raised.

``DATASET_REGISTRY`` records the expected train/test/class/length figures for
the 44 benchmark datasets used throughout; ``load_ucr_tsv`` validates a
loaded set against the row it is given.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np


class IngestionError(ValueError):
    pass


class MetaMismatchError(IngestionError):
    """Loaded dataset disagrees with its registry row."""


@dataclass(frozen=True)
class DatasetMeta:
    train: int
    test: int
    classes: int
    length: int | None  # None marks a variable-length dataset
    kind: str


# The 44-dataset benchmark: 11 each of short / medium / long / variable
# series, univariate throughout.
DATASET_REGISTRY = {
    # short (length <= 200)
    "Chinatown": DatasetMeta(20, 345, 2, 24, "Traffic"),
    "MelbournePedestrian": DatasetMeta(1194, 2439, 10, 24, "Traffic"),
    "SonyAIBORobotSurface2": DatasetMeta(27, 953, 2, 65, "Sensor"),
    "SonyAIBORobotSurface1": DatasetMeta(20, 601, 2, 70, "Sensor"),
    "DistalPhalanxOutlineAgeGroup": DatasetMeta(400, 139, 3, 80, "Image"),
    "DistalPhalanxOutlineCorrect": DatasetMeta(600, 276, 2, 80, "Image"),
    "DistalPhalanxTW": DatasetMeta(400, 139, 6, 80, "Image"),
    "TwoLeadECG": DatasetMeta(23, 1139, 2, 82, "ECG"),
    "MoteStrain": DatasetMeta(20, 1252, 2, 84, "Sensor"),
    "ECG200": DatasetMeta(100, 100, 2, 96, "ECG"),
    "CBF": DatasetMeta(30, 900, 3, 128, "Simulated"),
    # medium (200 < length <= 500)
    "DodgerLoopDay": DatasetMeta(78, 80, 7, 288, "Sensor"),
    "DodgerLoopGame": DatasetMeta(20, 138, 2, 288, "Sensor"),
    "DodgerLoopWeekend": DatasetMeta(20, 138, 2, 288, "Sensor"),
    "CricketX": DatasetMeta(390, 390, 12, 300, "Motion"),
    "CricketY": DatasetMeta(390, 390, 12, 300, "Motion"),
    "CricketZ": DatasetMeta(390, 390, 12, 300, "Motion"),
    "FaceFour": DatasetMeta(24, 88, 4, 350, "Image"),
    "Ham": DatasetMeta(109, 105, 2, 431, "Spectro"),
    "Meat": DatasetMeta(60, 60, 3, 448, "Spectro"),
    "Fish": DatasetMeta(175, 175, 7, 463, "Image"),
    "Beef": DatasetMeta(30, 30, 5, 470, "Spectro"),
    # long (length > 500)
    "OliveOil": DatasetMeta(30, 30, 4, 570, "Spectro"),
    "Car": DatasetMeta(60, 60, 4, 577, "Sensor"),
    "Lightning2": DatasetMeta(60, 61, 2, 637, "Sensor"),
    "Computers": DatasetMeta(250, 250, 2, 720, "Device"),
    "Mallat": DatasetMeta(55, 2345, 8, 1024, "Simulated"),
    "Phoneme": DatasetMeta(214, 1896, 39, 1024, "Sensor"),
    "StarLightCurves": DatasetMeta(1000, 8236, 3, 1024, "Sensor"),
    "MixedShapesRegularTrain": DatasetMeta(500, 2425, 5, 1024, "Image"),
    "MixedShapesSmallTrain": DatasetMeta(100, 2425, 5, 1024, "Image"),
    "ACSF1": DatasetMeta(100, 100, 10, 1460, "Device"),
    "SemgHandGenderCh2": DatasetMeta(300, 600, 2, 1500, "Spectrum"),
    # variable length
    "AllGestureWiimoteX": DatasetMeta(300, 700, 10, None, "Sensor"),
    "AllGestureWiimoteY": DatasetMeta(300, 700, 10, None, "Sensor"),
    "AllGestureWiimoteZ": DatasetMeta(300, 700, 10, None, "Sensor"),
    "GestureMidAirD1": DatasetMeta(208, 130, 26, None, "Trajectory"),
    "GestureMidAirD2": DatasetMeta(208, 130, 26, None, "Trajectory"),
    "GestureMidAirD3": DatasetMeta(208, 130, 26, None, "Trajectory"),
    "GesturePebbleZ1": DatasetMeta(132, 172, 6, None, "Sensor"),
    "GesturePebbleZ2": DatasetMeta(146, 158, 6, None, "Sensor"),
    "PickupGestureWiimoteZ": DatasetMeta(50, 50, 10, None, "Sensor"),
    "PLAID": DatasetMeta(537, 537, 11, None, "Device"),
    "ShakeGestureWiimoteZ": DatasetMeta(50, 50, 10, None, "Sensor"),
}


@dataclass
class TimeSeriesDataset:
    name: str
    x_train: np.ndarray  # [N_train, L]
    y_train: np.ndarray
    x_test: np.ndarray   # [N_test, L]
    y_test: np.ndarray
    num_classes: int
    series_length: int
    label_map: dict  # original label -> contiguous index

    def train_tensor(self) -> np.ndarray:
        """Training split as [N, 1, L] for the network."""
        return self.x_train[:, None, :]

    def test_tensor(self) -> np.ndarray:
        return self.x_test[:, None, :]


def z_normalize(series: np.ndarray) -> np.ndarray:
    """Per-instance standardization; constant series map to all-zeros. A
    series is constant when its values are all equal, or its std is below
    1e-12: the std of equal values need not be 0, since their mean can round
    off them."""
    series = np.asarray(series, dtype=np.float64)
    if series.size == 0:
        raise IngestionError("cannot normalize an empty series")
    mean = series.mean()
    std = series.std()
    if std < 1e-12 or series.max() == series.min():
        return np.zeros_like(series)
    return (series - mean) / std


def pad_to_length(series: np.ndarray, target: int) -> np.ndarray:
    """Right-pad with zeros up to the target length."""
    if series.shape[0] > target:
        raise IngestionError(
            f"series of length {series.shape[0]} exceeds padding target {target}"
        )
    if series.shape[0] == target:
        return series
    return np.concatenate([series, np.zeros(target - series.shape[0])])


def _split_fields(line: str) -> list:
    """A line's fields: split on tabs when it holds one, else on whitespace."""
    return line.split("\t") if "\t" in line else line.split()


def _parse_tsv_split(path: str):
    """Read one TSV file line by line into (labels, list of raw value arrays).

    Every rejected row raises an IngestionError that names ``path`` and the
    line. ``_read_split`` falls back to this parser for its messages."""
    labels = []
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip("\n").strip("\r")
            if not line.strip():
                continue
            fields = _split_fields(line)
            if len(fields) < 2:
                raise IngestionError(f"{path}:{lineno}: expected label plus values, got {len(fields)} fields")
            try:
                label = float(fields[0])
                values = np.array([float(v) for v in fields[1:]], dtype=np.float64)
            except ValueError as exc:
                raise IngestionError(f"{path}:{lineno}: unparseable row ({exc})") from None
            # NaN values mark padding or gaps (see _clean_series); a NaN
            # label, an infinite value or a row of NaN alone has no such meaning.
            if not np.isfinite(label):
                raise IngestionError(f"{path}:{lineno}: non-finite label '{fields[0]}'")
            inf_at = np.flatnonzero(np.isinf(values))
            if inf_at.size:
                raise IngestionError(f"{path}:{lineno}: infinite value in field {inf_at[0] + 2}")
            if np.isnan(values).all():
                raise IngestionError(f"{path}:{lineno}: instance contains no observed values")
            labels.append(label)
            rows.append(values)
    if not rows:
        raise IngestionError(f"{path}: no instances found")
    return np.array(labels), rows


def _parse_table(path: str):
    """One TSV file as (labels [N], values [N, fields - 1]) float64 arrays,
    tokenized in one pass with the line rule and the ``float`` syntax of
    ``_parse_tsv_split``; None when the rows differ in field count, a field
    does not parse, or there is no row of at least two fields. Each row's
    fields and floats die with the row."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    width = len(_split_fields(lines[0])) if lines else 0
    if width < 2:
        return None
    labels, values = np.empty(len(lines)), np.empty((len(lines), width - 1))
    for i, line in enumerate(lines):
        fields = _split_fields(line)
        if len(fields) != width:
            return None
        try:
            row = list(map(float, fields))
        except ValueError:
            return None
        labels[i], values[i] = row[0], row[1:]
    return labels, values


def _read_split(path: str):
    """(labels, series) of one split file.

    ``series`` is a [N, L] array when every row holds L values, all finite.
    Otherwise it is the list of each row's ``_clean_series``: rows that
    carry NaN, and ragged splits, are cleaned one by one. A file with any
    row to reject is read again by ``_parse_tsv_split``, which raises."""
    parsed = _parse_table(path)
    if parsed is not None:
        labels, values = parsed
        if np.isfinite(labels).all() and not np.isinf(values).any():
            nan = np.isnan(values)
            if not nan.any():
                return labels, values
            if not nan.all(axis=1).any():
                return labels, [_clean_series(r) for r in values]
    labels, rows = _parse_tsv_split(path)
    return labels, [_clean_series(r) for r in rows]


def _clean_series(raw: np.ndarray) -> np.ndarray:
    """Strip trailing-NaN padding; replace interior NaNs with the observed
    mean (so they normalize to exact zero), held inside the observed range:
    the mean of equal values can round off them, and a row whose observed
    values are all equal stays constant."""
    finite = np.flatnonzero(~np.isnan(raw))
    if finite.size == 0:
        raise IngestionError("instance contains no observed values")
    series = raw[: finite[-1] + 1].copy()
    inner_nan = np.isnan(series)
    if inner_nan.any():
        observed = series[~inner_nan]
        series[inner_nan] = np.clip(observed.mean(), observed.min(), observed.max())
    return series


def _normalize_split(series, target: int) -> np.ndarray:
    """Each series ``z_normalize``d and zero-padded to ``target``, stacked.

    An array of equal-length rows is normalized in place, in whole-array
    passes: the per-row mean and std reductions, difference and quotient
    are the ones ``z_normalize`` takes on each row, so every value has the
    same bits."""
    if not isinstance(series, np.ndarray):
        return np.stack([pad_to_length(z_normalize(s), target) for s in series])
    mean = series.mean(axis=1, keepdims=True)
    std = series.std(axis=1, keepdims=True)
    constant = (std < 1e-12) | (series.max(axis=1, keepdims=True)
                                == series.min(axis=1, keepdims=True))
    np.subtract(series, mean, out=series)
    np.divide(series, std, out=series, where=~constant)
    np.copyto(series, 0.0, where=constant)
    if series.shape[1] == target:
        return series
    return np.concatenate([series, np.zeros((series.shape[0], target - series.shape[1]))], axis=1)


def _lengths(series) -> set:
    if isinstance(series, np.ndarray):
        return {series.shape[1]}
    return {len(s) for s in series}


def load_ucr_tsv(path: str, meta: DatasetMeta | None = None) -> TimeSeriesDataset:
    """Load <Name>_TRAIN.tsv / <Name>_TEST.tsv from a dataset directory.

    ``path`` is the directory; its basename is the dataset name. The loaded
    shape is validated only against an explicitly given ``meta`` (a name in
    the registry alone triggers no check), with the length check skipped for
    variable-length sets.
    """
    path = os.path.normpath(path)
    name = os.path.basename(path)
    train_file = os.path.join(path, f"{name}_TRAIN.tsv")
    test_file = os.path.join(path, f"{name}_TEST.tsv")
    for f in (train_file, test_file):
        if not os.path.exists(f):
            raise IngestionError(f"missing dataset file: {f}")

    raw = {"train": _read_split(train_file), "test": _read_split(test_file)}

    fixed_length = meta.length if meta is not None else None
    lengths = set().union(*(_lengths(series) for _, series in raw.values()))
    if fixed_length is not None and lengths != {fixed_length}:
        raise MetaMismatchError(
            f"{name}: expected fixed length {fixed_length}, found lengths {sorted(lengths)}"
        )
    target_len = max(lengths)

    all_labels = np.concatenate([raw["train"][0], raw["test"][0]])
    originals = sorted(set(all_labels.tolist()))
    label_map = {orig: idx for idx, orig in enumerate(originals)}
    sorted_labels = np.array(originals)

    def finish(split):
        labels, series = raw[split]
        y = np.searchsorted(sorted_labels, labels).astype(np.int64, copy=False)
        return _normalize_split(series, target_len), y

    x_train, y_train = finish("train")
    x_test, y_test = finish("test")

    ds = TimeSeriesDataset(
        name=name, x_train=x_train, y_train=y_train, x_test=x_test, y_test=y_test,
        num_classes=len(label_map), series_length=target_len, label_map=label_map,
    )
    if meta is not None:
        _check_meta(ds, meta)
    return ds


def _check_meta(ds: TimeSeriesDataset, meta: DatasetMeta) -> None:
    """Counts only: ``load_ucr_tsv`` checks the series length before padding."""
    problems = []
    if ds.x_train.shape[0] != meta.train:
        problems.append(f"train count {ds.x_train.shape[0]} != {meta.train}")
    if ds.x_test.shape[0] != meta.test:
        problems.append(f"test count {ds.x_test.shape[0]} != {meta.test}")
    if ds.num_classes != meta.classes:
        problems.append(f"class count {ds.num_classes} != {meta.classes}")
    if problems:
        raise MetaMismatchError(f"{ds.name}: " + "; ".join(problems))


def make_synthetic_waves(n_train: int = 20, n_test: int = 40, length: int = 64,
                         seed: int = 0, name: str = "SyntheticWaves") -> TimeSeriesDataset:
    """Two trivially separable classes for desk-scale training checks:
    class 0 is a noisy sine, class 1 is pure noise around a flat line.
    Instances are z-normalized like any ingested dataset."""
    rng = np.random.default_rng(seed)

    def build(n):
        x = np.zeros((n, length))
        y = np.zeros(n, dtype=np.int64)
        t = np.linspace(0.0, 4.0 * np.pi, length)
        for i in range(n):
            cls = i % 2
            if cls == 0:
                phase = rng.uniform(0, 2 * np.pi)
                x[i] = np.sin(t + phase) + 0.1 * rng.standard_normal(length)
            else:
                x[i] = 0.1 * rng.standard_normal(length)
            y[i] = cls
        x = np.stack([z_normalize(row) for row in x])
        return x, y

    x_train, y_train = build(n_train)
    x_test, y_test = build(n_test)
    return TimeSeriesDataset(
        name=name, x_train=x_train, y_train=y_train, x_test=x_test, y_test=y_test,
        num_classes=2, series_length=length, label_map={0.0: 0, 1.0: 1},
    )
