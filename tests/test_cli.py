import csv
import json
import os

import numpy as np
import pytest

from efdls import cli, metrics


def write_config(tmp_path, **overrides):
    config = {
        "n_tot": 2,
        "datasets": [{"name": "wavesA", "path": "synthetic"},
                     {"name": "wavesB", "path": "synthetic"}],
        "conn_ratio": 1.0,
        "fles": 2,
        "seed": 3,
        "strategy": "baseline",
        "batch_size": 8,
        "lr": 1e-3,
        "blocks": [[3, 3], [3, 4], [3, 3]],
        "hidden_dim": 3,
    }
    config.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return str(path)


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestRun:
    def test_baseline_toy_run_exits_zero_with_empty_ledger(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = cli.main(["run", "--config", write_config(tmp_path), "--out", str(out)])
        assert rc == 0
        summary = read_json(out / "summary.json")
        assert summary["comm"]["total_bytes"] == 0
        assert summary["strategy"] == "baseline"
        assert (out / "results.csv").exists()
        assert (out / "effective-config").exists()

    def test_same_seed_identical_summary(self, tmp_path):
        cfg = write_config(tmp_path)
        rc1 = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "a")])
        rc2 = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "b")])
        assert rc1 == rc2 == 0
        assert (tmp_path / "a" / "summary.json").read_bytes() == \
            (tmp_path / "b" / "summary.json").read_bytes()

    def test_rerun_from_persisted_effective_config_reproduces_summary(self, tmp_path):
        cfg = write_config(tmp_path, strategy="efdls", fles=3)
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        persisted = str(tmp_path / "a" / "effective-config")
        assert cli.main(["run", "--config", persisted, "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "summary.json").read_bytes() == \
            (tmp_path / "b" / "summary.json").read_bytes()

    def test_efdls_summary_ledger_matches_overhead_formula(self, tmp_path):
        cfg = write_config(tmp_path, strategy="efdls", n_tot=4, fles=3,
                           datasets=[{"name": f"w{i}", "path": "synthetic"} for i in range(4)])
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        summary = read_json(out / "summary.json")
        comm = summary["comm"]
        assert comm["total_bytes"] == comm["expected_total_bytes"]
        assert comm["total_bytes"] == 2 * comm["bundle_bytes"] * 3 * 4
        assert len(summary["per_user"]) == 4

    def test_overwrite_refused_without_force(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert cli.main(["run", "--config", cfg, "--out", str(out), "--force"]) == 0

    def test_strategy_override_recorded_in_effective_config(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out),
                         "--strategy", "fkd", "--seed", "11"]) == 0
        effective = read_json(out / "effective-config")
        assert effective["strategy"] == "fkd"
        assert effective["seed"] == 11

    def test_missing_dataset_fails_with_name(self, tmp_path, capsys):
        cfg = write_config(tmp_path, datasets=[{"name": "Ghost", "path": "/nope/Ghost"}],
                           n_tot=1)
        rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "Ghost" in capsys.readouterr().err

    def test_unknown_strategy_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, strategy="fedprox")
        rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: unknown strategy 'fedprox'")

    @pytest.mark.parametrize("field,value,message", [
        ("n_tot", "2", "n_tot must be of type int, got str '2'"),
        ("blocks", 3, "blocks must be of type tuple, got int 3"),
        ("datasets", [5], "each dataset entry must be a name, an object or a [name, path] list"),
        ("lr", "0.1", "lr must be of type float, got str '0.1'"),
        ("datasets", 5, "datasets must be of type list, got int 5"),
        ("datasets", "Chinatown", "datasets must be of type list, got str 'Chinatown'"),
        ("datasets", {"name": "Chinatown", "path": "Chinatown"},
         "datasets must be of type list, got dict {'name': 'Chinatown', 'path': 'Chinatown'}"),
    ])
    def test_field_of_the_wrong_json_type_is_a_config_error(self, tmp_path, capsys,
                                                             field, value, message):
        cfg = write_config(tmp_path, **{field: value})
        rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "out" / "summary.json").exists()

    @pytest.mark.parametrize("field,value,message", [
        ("blocks", [[3, 3], [3, 4]], "blocks must hold 3 [kernel_width, channels] pairs, got 2"),
        ("blocks", [[3, 3], [3, 4], [3, 3], [3, 5]],
         "blocks must hold 3 [kernel_width, channels] pairs, got 4"),
        ("blocks", [], "blocks must hold 3 [kernel_width, channels] pairs, got 0"),
        ("blocks", [[3, 3], [3, 0], [3, 3]],
         "blocks: each needs an odd kernel width >= 1 and >= 1 channels, got [3, 0]"),
        ("blocks", [[3, 3], [4, 4], [3, 3]],
         "blocks: each needs an odd kernel width >= 1 and >= 1 channels, got [4, 4]"),
        ("hidden_dim", 0, "hidden_dim must be >= 1, got 0"),
    ])
    def test_unbuildable_network_shape_is_a_config_error(self, tmp_path, capsys,
                                                         field, value, message):
        cfg = write_config(tmp_path, strategy="efdls", **{field: value})
        rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert not (tmp_path / "out" / "summary.json").exists()

    @pytest.mark.parametrize("key", ["n_tot", "datasets"])
    def test_missing_required_key_is_a_config_error(self, tmp_path, capsys, key):
        cfg = write_config(tmp_path)
        raw = read_json(cfg)
        del raw[key]
        with open(cfg, "w", encoding="utf-8") as fh:
            json.dump(raw, fh)
        rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: missing config keys: ['{key}']")
        assert not (tmp_path / "out" / "summary.json").exists()

    def test_ratio_that_connects_nobody_fails_before_the_output_directory(self, tmp_path,
                                                                          capsys):
        cfg = write_config(tmp_path, conn_ratio=0.2)
        rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "error: conn_ratio 0.2 of 2 users selects nobody")
        assert not (tmp_path / "out").exists()

    def test_failed_run_leaves_no_output_directory(self, tmp_path, capsys):
        cfg = write_config(tmp_path, datasets=[{"name": "Ghost",
                                                "path": str(tmp_path / "Ghost")}])
        rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "error: IngestionError: failed to load dataset 'Ghost'")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [["run"], ["sweep-ratio", "--ratios", "1.0"]])
    def test_no_output_directory_is_a_config_error(self, tmp_path, capsys, command):
        rc = cli.main(command + ["--config", write_config(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == \
            "error: no output directory (give --out or set output_dir)\n"

    @pytest.mark.parametrize("text,message", [
        ('{"n_tot": 2,', "is not valid JSON"),
        ('[{"n_tot": 2}]', "must hold a JSON object, got list"),
    ])
    def test_unreadable_config_file_is_a_config_error(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "config.json"
        cfg.write_text(text)
        rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config file ") and message in err


class TestSweeps:
    def test_ratio_single_value_equivalent_to_run(self, tmp_path):
        cfg = write_config(tmp_path, strategy="efdls", fles=2)
        out = tmp_path / "sweep"
        assert cli.main(["sweep-ratio", "--config", cfg, "--out", str(out),
                         "--ratios", "1.0"]) == 0
        run_out = tmp_path / "plain"
        assert cli.main(["run", "--config", cfg, "--out", str(run_out)]) == 0
        for name in ("summary.json", "results.csv"):
            assert (out / "ratio_1" / name).read_bytes() == (run_out / name).read_bytes()

    def test_ratio_setting_records_n_conn(self, tmp_path):
        cfg = write_config(tmp_path, n_tot=5, strategy="fkd",
                           datasets=[{"name": f"w{i}", "path": "synthetic"} for i in range(5)])
        out = tmp_path / "sweep"
        assert cli.main(["sweep-ratio", "--config", cfg, "--out", str(out),
                         "--ratios", "0.4,1.0"]) == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["value"] for r in rows] == ["0.4", "1.0"]
        assert [r["n_conn"] for r in rows] == ["2", "5"]

    def test_forty_percent_of_44_users_records_18_connected(self, tmp_path):
        cfg = write_config(tmp_path, n_tot=44, strategy="efdls", fles=1,
                           datasets=[{"name": f"w{i}", "path": "synthetic"}
                                     for i in range(44)])
        out = tmp_path / "sweep44"
        assert cli.main(["sweep-ratio", "--config", cfg, "--out", str(out),
                         "--ratios", "0.4"]) == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["n_conn"] == "18"

    def test_epsilon_sweep_rows_have_distinct_losses(self, tmp_path):
        cfg = write_config(tmp_path, strategy="efdls", fles=3)
        out = tmp_path / "sweep"
        assert cli.main(["sweep-epsilon", "--config", cfg, "--out", str(out),
                         "--epsilons", "0.5,0.9"]) == 0
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert rows[0]["mean_final_loss"] != rows[1]["mean_final_loss"]

    def test_failed_setting_recorded_and_others_continue(self, tmp_path):
        cfg = write_config(tmp_path, strategy="efdls")
        out = tmp_path / "sweep"
        rc = cli.main(["sweep-epsilon", "--config", cfg, "--out", str(out),
                       "--epsilons", "1.5,0.9"])  # 1.5 is outside (0,1)
        assert rc == 0  # at least one setting succeeded
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["error"] != ""
        assert rows[1]["error"] == ""


    def test_failed_settings_leave_no_setting_directory(self, tmp_path):
        cfg = write_config(tmp_path, datasets=[{"name": "Ghost",
                                                "path": str(tmp_path / "Ghost")}])
        out = tmp_path / "sweep"
        rc = cli.main(["sweep-ratio", "--config", cfg, "--out", str(out),
                       "--ratios", "0.5,1.0"])
        assert rc == 1  # every setting failed
        assert [p.name for p in out.iterdir()] == ["sweep.csv"]
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all("Ghost" in r["error"] for r in rows)


class TestEvalTable:
    def test_reference_fixture_reproduces_printed_aggregates(self, capsys):
        rc = cli.main(["eval-table", metrics.reference_table_path()])
        assert rc == 0
        out = capsys.readouterr().out
        efdls_line = next(ln for ln in out.splitlines() if ln.startswith("EFDLS"))
        fields = efdls_line.split()
        assert fields[1:5] == ["18", "2", "24", "20"]
        assert float(fields[5]) == pytest.approx(0.7014, abs=1e-4)
        assert float(fields[6]) == pytest.approx(2.1478, abs=0.05)

    def test_single_column_reports_mean_and_errors(self, tmp_path, capsys):
        p = tmp_path / "one.csv"
        p.write_text("dataset,Solo\nd1,0.5\nd2,0.7\n")
        rc = cli.main(["eval-table", str(p)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "0.6000" in captured.out
        assert "at least 2" in captured.err

    def test_synthetic_3x3_matches_module_results(self, tmp_path, capsys):
        table = metrics.AccuracyTable(
            datasets=["d1", "d2", "d3"], algorithms=["A", "B", "C"],
            values=np.array([[0.9, 0.9, 0.1], [0.5, 0.6, 0.4], [0.7, 0.2, 0.7]]))
        p = tmp_path / "t.csv"
        metrics.write_accuracy_csv(table, str(p))
        rc = cli.main(["eval-table", str(p)])
        assert rc == 0
        out = capsys.readouterr().out
        a_line = next(ln for ln in out.splitlines() if ln.startswith("A "))
        assert a_line.split()[1:5] == ["0", "2", "1", "2"]

    def test_malformed_csv_errors(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("dataset,A\nrow1,0.5,0.9\n")
        assert cli.main(["eval-table", str(p)]) == 1
        assert "error" in capsys.readouterr().err

    def test_out_flag_emits_report_files(self, tmp_path):
        out = tmp_path / "report"
        rc = cli.main(["eval-table", metrics.reference_table_path(), "--out", str(out)])
        assert rc == 0
        assert (out / "results.csv").exists() and (out / "summary.json").exists()
        back = metrics.load_accuracy_csv(str(out / "results.csv"))
        assert len(back.datasets) == 44


class TestGradcheckCommand:
    def test_passes_and_prints_error(self, capsys):
        rc = cli.main(["gradcheck", "--seed", "0", "--trials", "2"])
        captured = capsys.readouterr().out
        assert rc == 0
        assert "max relative error" in captured
        assert "OK" in captured


class TestDataDirResolution:
    def test_bare_name_resolves_under_env_dir(self, tmp_path, monkeypatch):
        root = tmp_path / "archive"
        ds = root / "Crafted"
        ds.mkdir(parents=True)
        (ds / "Crafted_TRAIN.tsv").write_text("0\t1.0\t2.0\n1\t2.0\t1.0\n")
        (ds / "Crafted_TEST.tsv").write_text("0\t1.0\t2.0\n1\t0.0\t1.0\n")
        monkeypatch.setenv(cli.DATA_DIR_ENV, str(root))
        cfg = write_config(tmp_path, n_tot=1, fles=1,
                           datasets=[{"name": "Crafted", "path": "Crafted"}])
        out = tmp_path / "out"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        effective = read_json(out / "effective-config")
        assert effective["datasets"][0]["path"] == str(ds)
