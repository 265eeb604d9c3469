import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import efdls
from efdls import cli, metrics
from efdls.metrics import (
    AccuracyTable, MetricReport, avg_rank, load_accuracy_csv,
    load_reference_table, mean_acc, top1_accuracy, win_tie_lose, win_tie_lose_best,
)

ALGOS = ["Baseline", "FedAvg", "FedAvgM", "FedGrad", "FTL", "FTLS", "FKD", "EFDLS"]


def small_table():
    return AccuracyTable(
        datasets=["d1", "d2", "d3"],
        algorithms=["A", "B", "C"],
        values=np.array([
            [0.9, 0.9, 0.1],   # A and B tie, C loses
            [0.5, 0.6, 0.4],   # B wins
            [0.7, 0.2, 0.7],   # A and C tie
        ]),
    )


def rank_oracle(row):
    """Mean-of-positions ranking, written independently of the implementation."""
    order = sorted(range(len(row)), key=lambda j: -row[j])
    ranks = [0.0] * len(row)
    pos = 0
    while pos < len(order):
        end = pos
        while end + 1 < len(order) and row[order[end + 1]] == row[order[pos]]:
            end += 1
        mean_rank = (pos + end) / 2.0 + 1.0
        for p in range(pos, end + 1):
            ranks[order[p]] = mean_rank
        pos = end + 1
    return ranks


class TestAccuracyTable:
    @pytest.mark.parametrize("algorithms,message", [
        (["A", "A", "B"], "algorithm 'A' names more than one column"),
        (["A", "", "B"], "algorithm 2 has an empty name"),
        (["A", "B", " "], "algorithm 3 has an empty name"),
    ])
    def test_repeated_or_empty_algorithm_name_rejected(self, algorithms, message):
        with pytest.raises(ValueError, match=message):
            AccuracyTable(datasets=["d1"], algorithms=algorithms, values=np.zeros((1, 3)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected_naming_dataset_and_algorithm(self, value):
        values = np.full((3, 3), 0.5)
        values[1, 2] = value
        with pytest.raises(ValueError,
                           match=r"^dataset 'd2' holds a non-finite value for algorithm 'C'$"):
            AccuracyTable(datasets=["d1", "d2", "d3"], algorithms=["A", "B", "C"],
                          values=values)


class TestTop1Accuracy:
    def test_all_correct(self):
        assert top1_accuracy(np.array([1, 2, 3]), np.array([1, 2, 3])) == 1.0

    def test_none_correct(self):
        assert top1_accuracy(np.array([0, 0, 0]), np.array([1, 2, 3])) == 0.0

    def test_published_chinatown_cell_from_fixture_counts(self):
        # 327 matches out of 345 reproduces the published 0.9478 cell
        labels = np.zeros(345, dtype=int)
        preds = np.zeros(345, dtype=int)
        preds[:18] = 1
        acc = top1_accuracy(preds, labels)
        assert acc == pytest.approx(0.9478, abs=5e-5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            top1_accuracy(np.zeros(3), np.zeros(4))


class TestWinTieLose:
    def test_hand_counted_3x3(self):
        win, tie, lose = win_tie_lose(small_table())
        assert win == {"A": 0, "B": 1, "C": 0}
        assert tie == {"A": 2, "B": 1, "C": 1}
        assert lose == {"A": 1, "B": 1, "C": 2}
        best = win_tie_lose_best(small_table())
        assert best["A"] == (0, 2, 1, 2)

    def test_domination_over_44_rows(self):
        rng = np.random.default_rng(0)
        low = rng.uniform(0.1, 0.5, size=44)
        table = AccuracyTable(datasets=[f"d{i}" for i in range(44)],
                              algorithms=["strong", "weak"],
                              values=np.column_stack([low + 0.3, low]))
        win, tie, lose = win_tie_lose(table)
        assert (win["strong"], tie["strong"], lose["strong"]) == (44, 0, 0)
        assert (win["weak"], tie["weak"], lose["weak"]) == (0, 0, 44)

    def test_win_tie_lose_sums_to_dataset_count(self):
        table = load_reference_table()
        win, tie, lose = win_tie_lose(table)
        for a in table.algorithms:
            assert win[a] + tie[a] + lose[a] == len(table.datasets)

    def test_single_algorithm_rejected(self):
        table = AccuracyTable(datasets=["d"], algorithms=["A"], values=np.array([[0.5]]))
        with pytest.raises(ValueError):
            win_tie_lose(table)

    def test_dominated_extra_column_never_changes_others(self):
        base = small_table()
        win0, tie0, _ = win_tie_lose(base)
        extended = AccuracyTable(
            datasets=base.datasets,
            algorithms=base.algorithms + ["Doormat"],
            values=np.column_stack([base.values, np.zeros(3)]),
        )
        win1, tie1, _ = win_tie_lose(extended)
        for a in base.algorithms:
            assert win1[a] == win0[a] and tie1[a] == tie0[a]


class TestMeanAcc:
    def test_all_equal_column(self):
        table = AccuracyTable(datasets=["a", "b"], algorithms=["X"],
                              values=np.array([[0.7], [0.7]]))
        assert mean_acc(table, "X") == pytest.approx(0.7)

    def test_three_value_scalar_oracle(self):
        table = AccuracyTable(datasets=["a", "b", "c"], algorithms=["X"],
                              values=np.array([[0.2], [0.5], [0.9]]))
        assert mean_acc(table, "X") == pytest.approx((0.2 + 0.5 + 0.9) / 3, abs=1e-12)

    def test_permutation_invariant(self):
        table = load_reference_table()
        shuffled = AccuracyTable(datasets=table.datasets[::-1],
                                 algorithms=table.algorithms,
                                 values=table.values[::-1].copy())
        for a in table.algorithms:
            assert mean_acc(shuffled, a) == pytest.approx(mean_acc(table, a), abs=1e-12)

    def test_reference_efdls_column(self):
        assert mean_acc(load_reference_table(), "EFDLS") == pytest.approx(0.7014, abs=1e-4)


class TestAvgRank:
    def test_distinct_accuracies_integer_ranks(self):
        table = AccuracyTable(datasets=["only"], algorithms=["A", "B", "C"],
                              values=np.array([[0.3, 0.9, 0.6]]))
        ranks = avg_rank(table)
        assert ranks == {"A": 3.0, "B": 1.0, "C": 2.0}

    def test_two_way_tie_at_top_gives_1_5(self):
        table = AccuracyTable(datasets=["only"], algorithms=["A", "B", "C"],
                              values=np.array([[0.9, 0.9, 0.1]]))
        ranks = avg_rank(table)
        assert ranks["A"] == 1.5 and ranks["B"] == 1.5 and ranks["C"] == 3.0

    def test_matches_mean_of_positions_oracle(self):
        rng = np.random.default_rng(1)
        values = np.round(rng.uniform(0, 1, size=(10, 5)), 2)  # rounding forces ties
        table = AccuracyTable(datasets=[f"d{i}" for i in range(10)],
                              algorithms=list("ABCDE"), values=values)
        got = avg_rank(table)
        expected = np.mean([rank_oracle(row) for row in values], axis=0)
        for j, a in enumerate(table.algorithms):
            assert got[a] == pytest.approx(expected[j], abs=1e-12)

    @given(st.lists(st.lists(st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]),
                             min_size=4, max_size=4), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_rows_rank_exactly_as_the_oracle(self, rows):
        algorithms = list("ABCD")
        for row in rows:
            one = AccuracyTable(datasets=["d"], algorithms=algorithms, values=np.array([row]))
            assert list(avg_rank(one).values()) == rank_oracle(row)
        table = AccuracyTable(datasets=[f"d{i}" for i in range(len(rows))],
                              algorithms=algorithms, values=np.array(rows))
        expected = np.mean([rank_oracle(row) for row in rows], axis=0)
        assert list(avg_rank(table).values()) == list(expected)

    @given(st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_rank_sum_invariant(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 7))
        values = np.round(rng.uniform(0, 1, size=(5, k)), 1)
        table = AccuracyTable(datasets=[f"d{i}" for i in range(5)],
                              algorithms=[f"a{j}" for j in range(k)], values=values)
        ranks = avg_rank(table)
        # per-dataset rank sums are k(k+1)/2; the means inherit it
        assert sum(ranks.values()) == pytest.approx(k * (k + 1) / 2, abs=1e-9)


class TestReferenceTable:
    def test_shape(self):
        table = load_reference_table()
        assert len(table.datasets) == 44
        assert table.algorithms == ALGOS

    def test_published_mean_accuracies(self):
        table = load_reference_table()
        printed = {"Baseline": 0.6622, "FedAvg": 0.2377, "FedAvgM": 0.2557,
                   "FedGrad": 0.4445, "FTL": 0.6604, "FTLS": 0.6743,
                   "FKD": 0.6878, "EFDLS": 0.7014}
        for a, v in printed.items():
            assert mean_acc(table, a) == pytest.approx(v, abs=1e-4), a

    def test_efdls_win_tie_lose_best_exact(self):
        counts = win_tie_lose_best(load_reference_table())
        assert counts["EFDLS"] == (18, 2, 24, 20)

    def test_published_avg_ranks(self):
        ranks = avg_rank(load_reference_table())
        assert ranks["EFDLS"] == pytest.approx(2.1478, abs=0.05)
        assert ranks["FedAvg"] == pytest.approx(7.5, abs=0.05)

    def test_avg_ranks_are_bit_for_bit_the_tie_averaged_ranks(self):
        ranks = avg_rank(load_reference_table())
        assert {a: r.hex() for a, r in ranks.items()} == {
            "Baseline": "0x1.c5d1745d1745dp+1", "FedAvg": "0x1.e000000000000p+2",
            "FedAvgM": "0x1.d5d1745d1745dp+2", "FedGrad": "0x1.80ba2e8ba2e8cp+2",
            "FTL": "0x1.f5d1745d1745dp+1", "FTLS": "0x1.72e8ba2e8ba2fp+1",
            "FKD": "0x1.51745d1745d17p+1", "EFDLS": "0x1.12e8ba2e8ba2fp+1",
        }


def test_importing_the_package_and_cli_loads_no_scipy():
    code = ("import sys, efdls, efdls.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(efdls.__file__)))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120, check=True)
    assert result.stdout == "[]\n"


def emit_report(tmp_path, table) -> str:
    """Write ``table`` as a CSV and report it with ``eval-table --out``;
    returns the output directory."""
    table_path = tmp_path / "table.csv"
    metrics.write_accuracy_csv(table, str(table_path))
    out = tmp_path / "report"
    assert cli.main(["eval-table", str(table_path), "--out", str(out)]) == 0
    return out


class TestEmitReport:
    def test_round_trip(self, tmp_path):
        report = MetricReport.from_table(small_table())
        out = emit_report(tmp_path, small_table())
        back = load_accuracy_csv(str(out / "results.csv"))
        assert back.datasets == report.table.datasets
        assert back.algorithms == report.table.algorithms
        np.testing.assert_array_equal(back.values, report.table.values)
        with open(out / "summary.json", "r", encoding="utf-8") as fh:
            summary = json.load(fh)
        assert summary == {"algorithms": metrics.summary_dict(report)}

    def test_documented_file_names(self, tmp_path):
        out = emit_report(tmp_path, small_table())
        assert sorted(p.name for p in out.iterdir()) == ["results.csv", "summary.json"]

    def test_csv_cell_count(self, tmp_path):
        report = MetricReport.from_table(small_table())
        out = emit_report(tmp_path, small_table())
        with open(out / "results.csv", "r", encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().splitlines() if ln]
        cells = sum(len(ln.split(",")) for ln in lines)
        rows, cols = report.table.values.shape
        assert cells == (rows + 1) * (cols + 1)

    def test_malformed_csv_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("dataset,A\nrow1,0.5,0.9\n")
        with pytest.raises(ValueError):
            load_accuracy_csv(str(p))

    def test_non_numeric_cell_rejected(self, tmp_path):
        p = tmp_path / "bad2.csv"
        p.write_text("dataset,A\nrow1,abc\n")
        with pytest.raises(ValueError, match="non-numeric"):
            load_accuracy_csv(str(p))
