"""Evaluation metrics and accuracy-table I/O.

Works over an accuracy table (datasets x algorithms). Aggregates:

  win / tie / lose   per dataset, the algorithms sharing the column maximum
                     "win" if alone at the max, "tie" otherwise; everything
                     below the max loses. best = win + tie.
  mean_acc           column mean.
  avg_rank           mean tie-averaged rank (rank 1 = best accuracy; tied
                     values receive the mean of the positions they span),
                     computed in numpy by counting, per row, the cells above
                     and equal to each cell.

Every table cell must be finite: a NaN has no place in a ranking.

A reference accuracy table for the eight comparison algorithms on the
44-dataset benchmark ships with the package (``data/reference_results.csv``)
and is used to validate these implementations end to end.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from importlib import resources

import numpy as np

# Equality tolerance when deciding whether two published 4-decimal accuracies
# share a maximum.
ACC_EQ_TOL = 1e-9


@dataclass
class AccuracyTable:
    datasets: list
    algorithms: list
    values: np.ndarray  # [n_datasets, n_algorithms]

    def __post_init__(self):
        for i, name in enumerate(self.algorithms):
            if not name.strip():
                raise ValueError(f"algorithm {i + 1} has an empty name")
            if name in self.algorithms[:i]:
                raise ValueError(f"algorithm '{name}' names more than one column")
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (len(self.datasets), len(self.algorithms)):
            raise ValueError(
                f"value grid {self.values.shape} does not match "
                f"{len(self.datasets)} datasets x {len(self.algorithms)} algorithms"
            )
        bad = np.argwhere(~np.isfinite(self.values))
        if bad.size:
            i, j = bad[0]
            raise ValueError(f"dataset '{self.datasets[i]}' holds a non-finite value "
                             f"for algorithm '{self.algorithms[j]}'")

    def column(self, algorithm: str) -> np.ndarray:
        return self.values[:, self.algorithms.index(algorithm)]


@dataclass
class MetricReport:
    table: AccuracyTable
    win: dict | None
    tie: dict | None
    lose: dict | None
    best: dict | None
    mean_acc: dict
    avg_rank: dict | None

    @classmethod
    def from_table(cls, table: AccuracyTable) -> "MetricReport":
        mean = {a: mean_acc(table, a) for a in table.algorithms}
        if len(table.algorithms) >= 2:
            w, t, l = win_tie_lose(table)
            b = {a: w[a] + t[a] for a in table.algorithms}
            r = avg_rank(table)
        else:
            w = t = l = b = r = None
        return cls(table=table, win=w, tie=t, lose=l, best=b, mean_acc=mean, avg_rank=r)


def top1_accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of exact matches."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ValueError(f"length mismatch: {predictions.shape} vs {labels.shape}")
    if predictions.size == 0:
        raise ValueError("cannot score an empty prediction set")
    return float(np.mean(predictions == labels))


def win_tie_lose(table: AccuracyTable):
    """Per-algorithm win/tie/lose counts over the table's datasets."""
    if len(table.algorithms) < 2:
        raise ValueError("win/tie/lose needs at least 2 algorithms to compare")
    win = {a: 0 for a in table.algorithms}
    tie = {a: 0 for a in table.algorithms}
    lose = {a: 0 for a in table.algorithms}
    for row in table.values:
        top = row.max()
        at_top = np.abs(row - top) <= ACC_EQ_TOL
        for j, a in enumerate(table.algorithms):
            if not at_top[j]:
                lose[a] += 1
            elif at_top.sum() == 1:
                win[a] += 1
            else:
                tie[a] += 1
    return win, tie, lose


def win_tie_lose_best(table: AccuracyTable) -> dict:
    """Convenience wrapper returning {algorithm: (win, tie, lose, best)}."""
    w, t, l = win_tie_lose(table)
    return {a: (w[a], t[a], l[a], w[a] + t[a]) for a in table.algorithms}


def mean_acc(table: AccuracyTable, algorithm: str) -> float:
    return float(table.column(algorithm).mean())


def avg_rank(table: AccuracyTable) -> dict:
    """Mean tie-averaged rank per algorithm (1 = most accurate)."""
    if len(table.algorithms) < 2:
        raise ValueError("ranking needs at least 2 algorithms")
    # A cell's tie-averaged rank is 1 + (cells above it) + (cells equal to it,
    # itself excluded) / 2: a half-integer, so exact in float64.
    cell = table.values[:, :, None]
    others = table.values[:, None, :]
    ranks = 1.0 + (others > cell).sum(axis=2) + ((others == cell).sum(axis=2) - 1) / 2
    return {a: float(ranks[:, j].mean()) for j, a in enumerate(table.algorithms)}


# ---------------------------------------------------------------------------
# I/O
# ---------------------------------------------------------------------------

def summary_dict(report: MetricReport) -> dict:
    """JSON-ready aggregate block, algorithms in table order."""
    out = {}
    for a in report.table.algorithms:
        out[a] = {
            "win": None if report.win is None else report.win[a],
            "tie": None if report.tie is None else report.tie[a],
            "lose": None if report.lose is None else report.lose[a],
            "best": None if report.best is None else report.best[a],
            "mean_acc": report.mean_acc[a],
            "avg_rank": None if report.avg_rank is None else report.avg_rank[a],
        }
    return out


def write_accuracy_csv(table: AccuracyTable, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dataset"] + list(table.algorithms))
        for name, row in zip(table.datasets, table.values):
            writer.writerow([name] + [repr(float(v)) for v in row])


def load_accuracy_csv(path: str) -> AccuracyTable:
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        rows = [r for r in reader if r]
    if len(rows) < 2:
        raise ValueError(f"{path}: need a header plus at least one data row")
    header = rows[0]
    algorithms = header[1:]
    datasets = []
    values = []
    for r in rows[1:]:
        if len(r) != len(header):
            raise ValueError(f"{path}: row '{r[0]}' has {len(r)} cells, header has {len(header)}")
        datasets.append(r[0])
        try:
            values.append([float(v) for v in r[1:]])
        except ValueError as exc:
            raise ValueError(f"{path}: row '{r[0]}' holds a non-numeric cell ({exc})") from None
        if not np.isfinite(values[-1]).all():
            raise ValueError(f"{path}: row '{r[0]}' holds a non-finite cell")
    return AccuracyTable(datasets=datasets, algorithms=algorithms, values=np.array(values))


def reference_table_path() -> str:
    """Path of the bundled reference accuracy table (8 algorithms on the
    44-dataset benchmark)."""
    return str(resources.files("efdls").joinpath("data/reference_results.csv"))


def load_reference_table() -> AccuracyTable:
    return load_accuracy_csv(reference_table_path())
