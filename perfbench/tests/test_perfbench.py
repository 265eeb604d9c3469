"""Tests of the benchmark's own code: span arithmetic, the recorder's
install/uninstall, traced-equals-untraced, work counters and the inputs."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import efdls
import report
import run
import spans
import workloads

MINI_BLOCKS = ((3, 3), (3, 4), (3, 3))


def span(name, start, end, parent=-1, layer="x"):
    return spans.Span(name, layer, start, end, parent)


def test_self_times_hand_built_tree():
    tree = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 3.0, parent=0),
        span("b", 2.0, 5.0, parent=0),    # overlaps a: together they cover [1, 5]
        span("c", 6.0, 7.0, parent=0),
        span("c1", 6.2, 6.5, parent=3),
        span("d", 9.5, 11.0, parent=0),   # runs past the root: clipped to [9.5, 10]
    ]
    got = spans.self_times(tree)
    assert got == pytest.approx([10.0 - 4.0 - 1.0 - 0.5, 2.0, 3.0, 0.7, 0.3, 1.5])


def _current(target):
    if isinstance(target.owner, type):
        return target.owner.__dict__[target.attr]
    return getattr(target.owner, target.attr)


def test_uninstall_restores_every_original():
    targets = spans.efdls_targets(efdls)
    originals = [_current(t) for t in targets]
    recorder = spans.SpanRecorder(targets)
    with pytest.raises(ZeroDivisionError):
        with recorder:
            assert all(_current(t) is not o for t, o in zip(targets, originals))
            1 / 0
    assert all(_current(t) is o for t, o in zip(targets, originals))


def test_conv_operation_count_matches_hand_count():
    # B=2, C_in=3, L=10, C_out=4, K=5: each of the 2*4*10 outputs sums
    # 3*5 products, one multiply and one add each.
    hand = 2 * 4 * 10 * (3 * 5) * 2
    assert spans.conv_flop(2, 4, 3, 5, 10) == hand == 2400
    layer = efdls.nncore.init_conv(4, 3, 5, np.random.default_rng(0))
    x = np.ones((2, 3, 10))
    with spans.SpanRecorder(spans.efdls_targets(efdls)) as rec:
        out, cache = efdls.nncore.conv1d_forward(x, layer, want_cache=True)
        efdls.nncore.conv1d_backward(np.ones_like(out), layer, cache)
    assert [s.work["flop"] for s in rec.spans] == [hand, 2 * hand]


@pytest.mark.parametrize("tail_n, expected", [(19, None), (20, "p50"), (100, "p90"),
                                              (1000, "p99"), (10000, "p99.9")])
def test_tail_percentile_keeps_ten_samples_beyond(tail_n, expected):
    got = report.tail_percentile(list(range(tail_n)))
    assert (got and got[0]) == expected


def _mini_config(tmp_path, name):
    workload = dataclasses.replace(workloads.WORKLOADS[name], n_tot=4)
    datasets = workloads.write_inputs(workload, 3, str(tmp_path / name))
    config = workloads.federation_config(workload, 3, datasets)
    config.update(blocks=[list(b) for b in MINI_BLOCKS], hidden_dim=3)
    return config


@pytest.mark.parametrize("name", ["match_many", "avg_socket"])
def test_mini_traced_run_equals_untraced(tmp_path, name):
    config = _mini_config(tmp_path, name)
    _, plain = run.run_once(efdls, config)
    recorder = spans.SpanRecorder(spans.efdls_targets(efdls))
    timing, traced = run.run_once(efdls, config, recorder)
    assert traced == plain
    assert all(timing[k] > 0 for k in ("setup_s", "run_s", "setup_wall_s", "run_wall_s"))
    wall = timing["setup_wall_s"] + timing["run_wall_s"]
    problems = run.check(traced, plain, majority=0.0)
    assert [p for p in problems if "learnable parameters" not in p] == []

    m = report.rep_metrics(recorder.spans, spans.self_times(recorder.spans), wall)
    layer_sum = sum(m[f"{layer}.self_s"] for layer in report.LAYERS)
    assert layer_sum + m["trace.unattributed_s"] == pytest.approx(wall)
    assert m["federation.bytes"] == plain["wire_bytes"]
    assert m["fbst.batches"] == m["nncore.adam_calls"] > 0
    if name == "match_many":
        assert m["dbwm.pairs"] == 2 * (4 * 3 // 2)
        assert m["extractor.teacher_fwd_calls"] > 0
        assert {s.epoch for s in recorder.spans if s.name == "extractor.teacher_forward"} == {2}
    else:
        assert m["dbwm.pairs"] == 0 and m["extractor.teacher_fwd_calls"] == 0
        assert m["strategies.fedavg_s"] > 0
    users = {s.user for s in recorder.spans if s.name == "fbst.local_train_epoch"}
    assert users == {0, 1, 2, 3}


def test_check_reports_ledger_mismatch_and_nondeterminism(tmp_path):
    config = _mini_config(tmp_path, "match_many")
    _, outcome = run.run_once(efdls, config)
    broken = dict(outcome, wire_bytes=outcome["wire_bytes"] + 1)
    problems = run.check(broken, outcome, majority=0.0)
    assert any("ledger total" in p for p in problems)
    assert any("wire_bytes differ" in p for p in problems)
    assert any("281344" in p for p in problems)  # mini widths are not the paper's


def test_inputs_are_seeded_and_multitask(tmp_path):
    workload = dataclasses.replace(workloads.WORKLOADS["match_many"], n_tot=5)
    first = workloads.write_inputs(workload, 11, str(tmp_path / "a"))
    second = workloads.write_inputs(workload, 11, str(tmp_path / "b"))
    for (name, pa), (_, pb) in zip(first, second):
        for split in ("TRAIN", "TEST"):
            assert Path(pa, f"{name}_{split}.tsv").read_bytes() == \
                Path(pb, f"{name}_{split}.tsv").read_bytes()
    classes = [efdls.dataio.load_ucr_tsv(p).num_classes for _, p in first]
    assert classes == [2, 3, 2, 4, 2]


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(report.PER_LAYER)
