"""Acceptance suite: one test per shipping criterion, each printing a
PASS/FAIL line. Criteria needing the UCR archive skip with an explicit
reason when the files are absent (set EFDLS_DATA_DIR to enable them); a
synthetic stand-in for the end-to-end smoke always runs.
"""

import json
import time

import numpy as np
import pytest

from conftest import MINI_BLOCKS, MINI_HIDDEN, random_bundle, requires_datasets, ucr_data_dir
from efdls import cli, dataio, dbwm, extractor, fbst, federation, metrics, nncore

SMOKE_DATASETS = ("Chinatown", "ECG200", "SonyAIBORobotSurface1", "CBF")


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status}" + (f" ({detail})" if detail else ""))
    assert ok, f"{criterion}: {detail}"


# -- 1. gradient correctness ------------------------------------------------

def test_c1_gradient_correctness():
    start = time.monotonic()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng([seed, 91])
        # an independently seeded teacher, so all four hidden outputs differ
        # and every KD injection carries gradient
        model, teacher = (extractor.FeatureExtractor(
            num_classes=3, blocks=((3, 5), (5, 6), (3, 4)), hidden_dim=5, seed=[seed, role])
            for role in (17, 18))
        x = rng.standard_normal((3, 1, 17))
        labels = rng.integers(0, 3, size=3)
        teacher_trace = teacher.forward(x, training=True, update_running=False)
        for loss in (fbst.SupervisedLoss(labels),
                     fbst.DistillationLoss(teacher_trace, labels, epsilon=0.9)):
            worst = max(worst, nncore.finite_diff_gradcheck(model, x, loss, epsilon=1e-5))

    # production widths, sampled parameter entries
    rng = np.random.default_rng(2024)
    wide = extractor.FeatureExtractor(num_classes=4, seed=2024)
    x = rng.standard_normal((2, 1, 24))
    labels = rng.integers(0, 4, size=2)
    for loss in (fbst.SupervisedLoss(labels),):
        worst = max(worst, nncore.finite_diff_gradcheck(
            wide, x, loss, epsilon=1e-5, max_entries_per_param=12, rng=rng))
    elapsed = time.monotonic() - start
    report("1 gradient-correctness",
           worst < 1e-4 and elapsed < 120.0,
           f"max rel error {worst:.3e} over 20 seeds + production-width spot check, {elapsed:.1f}s")


# -- 2. matching oracle equivalence ------------------------------------------

def _flat_distance(a, b):
    av = np.concatenate([v.ravel() for _, v in a.learnable_items()])
    bv = np.concatenate([v.ravel() for _, v in b.learnable_items()])
    return float(np.linalg.norm(av - bv) ** 2)


def test_c2_matching_matches_brute_force():
    start = time.monotonic()
    rng = np.random.default_rng(7)
    for case in range(200):
        n = int(rng.integers(2, 17))
        bundles = [random_bundle(rng) for _ in range(n)]
        if case % 3 == 0 and n >= 3:  # force duplicated-bundle ties
            bundles[n - 1] = bundles[0].copy()
            bundles[n // 2] = bundles[0].copy()
        got = dbwm.pairwise_distances(bundles)
        ids = dbwm.match_partners(got)
        oracle = np.full((n, n), np.nan)
        for i in range(n):
            for j in range(n):
                if i != j:
                    oracle[i, j] = _flat_distance(bundles[i], bundles[j])
        mask = ~np.isnan(oracle)
        assert np.array_equal(np.isnan(got), ~mask)
        np.testing.assert_allclose(got[mask], oracle[mask], rtol=1e-12)
        expected_ids = []
        for i in range(n):
            best = min((j for j in range(n) if j != i), key=lambda j: (oracle[i, j], j))
            expected_ids.append(best)
        assert ids == expected_ids, f"case {case}"
    elapsed = time.monotonic() - start
    report("2 matching-oracle-equivalence", elapsed < 60.0,
           f"200 random tables incl. duplicate ties, {elapsed:.1f}s")


# -- 3. metric reproduction from published data -------------------------------

PRINTED_WIN = {"Baseline": 4, "FedAvg": 0, "FedAvgM": 0, "FedGrad": 0,
               "FTL": 3, "FTLS": 7, "FKD": 10, "EFDLS": 18}
PRINTED_TIE = {"Baseline": 1, "FedAvg": 0, "FedAvgM": 0, "FedGrad": 0,
               "FTL": 2, "FTLS": 1, "FKD": 1, "EFDLS": 2}


def test_c3_metric_reproduction(capsys):
    # through the eval-table command first: the EFDLS row must carry the
    # published aggregates
    rc = cli.main(["eval-table", metrics.reference_table_path()])
    cli_out = capsys.readouterr().out
    efdls_fields = next(ln for ln in cli_out.splitlines() if ln.startswith("EFDLS")).split()
    cli_ok = (rc == 0 and efdls_fields[1:5] == ["18", "2", "24", "20"]
              and abs(float(efdls_fields[5]) - 0.7014) <= 1e-4)

    table = metrics.load_reference_table()
    mean = {a: metrics.mean_acc(table, a) for a in table.algorithms}
    ok_means = (abs(mean["EFDLS"] - 0.7014) <= 1e-4
                and abs(mean["Baseline"] - 0.6622) <= 1e-4
                and abs(mean["FKD"] - 0.6878) <= 1e-4)
    counts = metrics.win_tie_lose_best(table)
    ok_efdls = counts["EFDLS"] == (18, 2, 24, 20)
    ranks = metrics.avg_rank(table)
    ok_ranks = (abs(ranks["EFDLS"] - 2.1478) <= 0.05
                and abs(ranks["FedAvg"] - 7.5) <= 0.05)
    # recount proximity for every cell except the FTLS tie, which the
    # published table itself gets wrong by 2 (see the companion xfail test)
    deviations = []
    for a in table.algorithms:
        win, tie, _, _ = counts[a]
        if abs(win - PRINTED_WIN[a]) > 1:
            deviations.append(f"{a} win {win} vs {PRINTED_WIN[a]}")
        if a != "FTLS" and abs(tie - PRINTED_TIE[a]) > 1:
            deviations.append(f"{a} tie {tie} vs {PRINTED_TIE[a]}")
    report("3 metric-reproduction",
           cli_ok and ok_means and ok_efdls and ok_ranks and not deviations,
           f"eval-table ok {cli_ok}; MeanACC EFDLS {mean['EFDLS']:.4f}, W/T/L/B {counts['EFDLS']}, "
           f"rank {ranks['EFDLS']:.4f}; recount deviations: {deviations or 'none beyond documented FTLS tie'}")


@pytest.mark.xfail(strict=True, reason=(
    "published summary row inconsistency: FTLS shares the per-dataset maximum "
    "on Ham, OliveOil and FaceFour (3 ties by its own cells) but the printed "
    "row says Tie=1, exceeding the +-1 tolerance; unattainable from the data"))
def test_c3_ftls_tie_recount_within_printed_tolerance():
    counts = metrics.win_tie_lose_best(metrics.load_reference_table())
    assert abs(counts["FTLS"][1] - PRINTED_TIE["FTLS"]) <= 1


# -- 4. communication model ----------------------------------------------------

def test_c4_ledger_equals_overhead_formula():
    results = []
    for n_conn, fles in ((2, 3), (4, 5)):
        config = federation.FederationConfig(
            n_tot=n_conn, conn_ratio=1.0, fles=fles, seed=5, strategy="efdls",
            datasets=[(f"w{i}", "synthetic") for i in range(n_conn)],
            blocks=MINI_BLOCKS, hidden_dim=MINI_HIDDEN, batch_size=8)
        _, ledger = federation.run_federation(config)
        bw = ledger.entries[0].nbytes
        expected = federation.comm_overhead(bw, fles, n_conn)
        results.append(ledger.total_bytes() == expected)
    report("4 communication-model", all(results),
           "ledger totals equal 2*BW*FLEs*N_conn exactly on (2,3) and (4,5)")


# -- 5. distillation semantics -------------------------------------------------

def test_c5_kd_semantics():
    model = extractor.FeatureExtractor(num_classes=2, blocks=MINI_BLOCKS,
                                       hidden_dim=MINI_HIDDEN, seed=3)
    x = np.random.default_rng(4).standard_normal((6, 1, 20))
    trace = model.forward(x, training=True, update_running=False)
    self_zero = fbst.kd_loss(trace, trace) == 0.0

    pair = fbst.FBSTPair(extractor.FeatureExtractor(num_classes=2, blocks=MINI_BLOCKS,
                                                    hidden_dim=MINI_HIDDEN, seed=5))
    pair.load_teacher(extractor.extract_hidden_weights(pair.student))
    y = np.random.default_rng(6).integers(0, 2, size=6)
    adam = nncore.AdamState.for_params(pair.student.parameters())
    cfg = fbst.FBSTConfig(batch_size=6)
    report_first = fbst.local_train_epoch(pair, x, y, cfg, k=2, adam=adam,
                                          rng=np.random.default_rng(7))
    first_batch_zero = report_first.kd == 0.0

    teacher_before = {k: v.copy() for k, v in pair.teacher.parameters().items()}
    for k in (3, 4, 5):
        fbst.local_train_epoch(pair, x, y, cfg, k=k, adam=adam,
                               rng=np.random.default_rng(k))
    teacher_constant = all(np.array_equal(v, teacher_before[k])
                           for k, v in pair.teacher.parameters().items())
    report("5 kd-semantics", self_zero and first_batch_zero and teacher_constant,
           f"self-kd=0 {self_zero}, first-batch-kd=0 {first_batch_zero}, "
           f"teacher bitwise constant {teacher_constant}")


# -- 6. first-epoch behavior ----------------------------------------------------

def test_c6_epoch_one_supervised_only():
    config = federation.FederationConfig(
        n_tot=3, conn_ratio=1.0, fles=1, seed=9, strategy="efdls",
        datasets=[(f"w{i}", "synthetic") for i in range(3)],
        blocks=MINI_BLOCKS, hidden_dim=MINI_HIDDEN, batch_size=8)
    reports = []
    federation.run_federation(config, on_epoch=lambda uid, k, rep: reports.append(rep))
    ok = all(rep.total == rep.sup and rep.kd == 0.0 for rep in reports)
    report("6 epoch-one-supervised-only", ok,
           f"{len(reports)} users, total==sup exactly at k=1")


# -- 7. desk-scale learning ------------------------------------------------------

def test_c7_synthetic_separable_learning():
    start = time.monotonic()
    config = federation.FederationConfig(
        n_tot=1, conn_ratio=1.0, fles=10, seed=3, strategy="baseline",
        datasets=[("waves", "synthetic")], batch_size=16, lr=1e-3,
        blocks=((9, 16), (5, 16), (3, 16)), hidden_dim=16)
    fed = federation.Federation(config)
    fed.run()
    user = fed.users[0]
    train_acc = metrics.top1_accuracy(
        user.pair.student.predict(user.dataset.train_tensor()), user.dataset.y_train)
    elapsed = time.monotonic() - start
    report("7a synthetic-separable", train_acc == 1.0 and elapsed < 600.0,
           f"train top-1 {train_acc:.2f} within 10 epochs, {elapsed:.1f}s")


@requires_datasets("Chinatown")
def test_c7_chinatown_baseline_bound():
    start = time.monotonic()
    config = federation.FederationConfig(
        n_tot=1, conn_ratio=1.0, fles=200, seed=3, strategy="baseline",
        datasets=[("Chinatown", "Chinatown")], batch_size=16,
        lr=1e-3)  # 400 total steps; the default 1e-4 is tuned for far longer budgets
    config.datasets = [("Chinatown", f"{ucr_data_dir()}/Chinatown")]
    report_out, _ = federation.run_federation(config)
    acc = float(report_out.table.values[0, 0])
    elapsed = time.monotonic() - start
    report("7b chinatown-baseline", acc >= 0.80 and elapsed < 600.0,
           f"test top-1 {acc:.4f} after 200 epochs, {elapsed:.1f}s")


# -- 8. determinism ---------------------------------------------------------------

def test_c8_summary_bitwise_determinism(tmp_path):
    config = {
        "n_tot": 2, "conn_ratio": 1.0, "fles": 3, "seed": 11, "strategy": "efdls",
        "datasets": [{"name": "wavesA", "path": "synthetic"},
                     {"name": "wavesB", "path": "synthetic"}],
        "batch_size": 8, "lr": 1e-3,
        "blocks": [list(b) for b in MINI_BLOCKS], "hidden_dim": MINI_HIDDEN,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "b")]) == 0
    same = (tmp_path / "a" / "summary.json").read_bytes() == \
        (tmp_path / "b" / "summary.json").read_bytes()
    report("8 determinism", same, "two runs, bitwise-identical summary.json")


# -- 9. wire codec ------------------------------------------------------------------

def test_c9_codec_roundtrip_and_fuzz():
    rng = np.random.default_rng(13)
    for _ in range(1000):
        rng.integers(0, 2 ** 16)  # discarded draw, kept so the stream pins the same 1,000 cases
        bundle = random_bundle(rng)
        epoch = int(rng.integers(0, 2 ** 32))
        uid = int(rng.integers(0, 2 ** 32))
        data = federation.encode_weight_message(bundle, epoch, uid)
        decoded, e2, u2 = federation.decode_weight_message(data)
        assert (e2, u2) == (epoch, uid)
        for key, arr in bundle.arrays.items():
            assert np.array_equal(decoded.arrays[key], arr.astype(np.float32))

    base = bytes(federation.encode_weight_message(random_bundle(rng), 3, 4))
    failures = 0
    for case in range(1000):
        mode = case % 3
        if mode == 0:
            corrupted = base[:int(rng.integers(0, len(base)))]
        elif mode == 1:
            buf = bytearray(base)
            pos = int(rng.integers(0, 5))
            buf[pos] = (buf[pos] + int(rng.integers(1, 255))) % 256
            corrupted = bytes(buf)
        else:
            corrupted = base + bytes(int(rng.integers(1, 9)))
        try:
            federation.decode_weight_message(corrupted)
            failures += 1
        except federation.MalformedMessageError:
            pass
        except Exception:
            failures += 1
    report("9 wire-codec", failures == 0,
           "1000 exact round trips; 1000 corruption cases all raised structured errors")


# -- 10. end-to-end multi-task smoke --------------------------------------------------

def _smoke(config_datasets, tmp_path, blocks, hidden_dim, label):
    all_ok = True
    details = []
    for strategy in ("baseline", "fedavg", "fkd", "efdls"):
        config = {
            "n_tot": 4, "conn_ratio": 1.0, "fles": 20, "seed": 1,
            "strategy": strategy, "datasets": config_datasets,
            "batch_size": 16, "lr": 1e-3,
            "blocks": blocks, "hidden_dim": hidden_dim,
        }
        cfg_path = tmp_path / f"smoke_{strategy}.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / f"smoke_{strategy}"
        rc = cli.main(["run", "--config", str(cfg_path), "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        accs = list(summary["per_user"].values())
        valid = (rc == 0 and len(accs) == 4 and all(0.0 <= a <= 1.0 for a in accs)
                 and (out / "results.csv").exists())
        all_ok = all_ok and valid
        details.append(f"{strategy} mean={summary['algorithms'][strategy]['mean_acc']:.3f}")
    report(label, all_ok, "; ".join(details))


@requires_datasets(*SMOKE_DATASETS)
def test_c10_multitask_smoke_ucr(tmp_path):
    d = ucr_data_dir()
    datasets = [{"name": n, "path": f"{d}/{n}"} for n in SMOKE_DATASETS]
    _smoke(datasets, tmp_path, [[9, 128], [5, 256], [3, 128]], 128,
           "10 multitask-smoke (Chinatown/ECG200/SonyAIBORobotSurface1/CBF)")


def test_c10_multitask_smoke_synthetic_standin(tmp_path):
    # stand-in exercising the identical code path when the archive is absent
    datasets = [{"name": f"waves{i}", "path": "synthetic"} for i in range(4)]
    _smoke(datasets, tmp_path, [list(b) for b in MINI_BLOCKS], MINI_HIDDEN,
           "10s multitask-smoke (synthetic stand-in)")
