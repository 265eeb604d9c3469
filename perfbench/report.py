"""Turn one traced federated run's spans into the per-layer metrics.

Timings are seconds per federated run (setup plus ``run()``) unless the name
says otherwise: ``fbst.local_epoch_s`` is per user-epoch and
``federation.epoch_s`` / ``federation.round_wait_s`` are per federated epoch,
each the median over those calls. A layer's ``self_s`` is the summed self
time of its spans, so the seven ``self_s`` plus ``trace.unattributed_s`` add
up to the traced wall time.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

LAYERS = ("nncore", "extractor", "fbst", "dbwm", "strategies", "federation", "dataio")

# (name, unit, better) for every per-layer metric, in report order.
PER_LAYER = (
    ("nncore.conv_fwd_s", "s", "lower"),
    ("nncore.conv_bwd_s", "s", "lower"),
    ("nncore.conv_calls", "count", "lower"),
    ("nncore.conv_gflop", "GFLOP", "lower"),
    ("nncore.conv_gflops", "GFLOP/s", "higher"),
    ("nncore.bn_fwd_s", "s", "lower"),
    ("nncore.bn_bwd_s", "s", "lower"),
    ("nncore.relu_s", "s", "lower"),
    ("nncore.dense_s", "s", "lower"),
    ("nncore.adam_s", "s", "lower"),
    ("nncore.adam_calls", "count", "lower"),
    ("nncore.adam_mparams", "Mparam", "lower"),
    ("nncore.adam_mparams_per_s", "Mparam/s", "higher"),
    ("nncore.self_s", "s", "lower"),
    ("extractor.student_fwd_s", "s", "lower"),
    ("extractor.teacher_fwd_s", "s", "lower"),
    ("extractor.teacher_fwd_calls", "count", "lower"),
    ("extractor.backward_s", "s", "lower"),
    ("extractor.predict_s", "s", "lower"),
    ("extractor.extract_s", "s", "lower"),
    ("extractor.load_s", "s", "lower"),
    ("extractor.init_s", "s", "lower"),
    ("extractor.clone_s", "s", "lower"),
    ("extractor.self_s", "s", "lower"),
    ("fbst.local_epoch_s", "s", "lower"),
    ("fbst.kd_loss_s", "s", "lower"),
    ("fbst.batches", "count", "lower"),
    ("fbst.self_s", "s", "lower"),
    ("dbwm.distance_s", "s", "lower"),
    ("dbwm.pairs", "count", "lower"),
    ("dbwm.us_per_pair", "us", "lower"),
    ("dbwm.match_s", "s", "lower"),
    ("dbwm.dispatch_s", "s", "lower"),
    ("dbwm.self_s", "s", "lower"),
    ("strategies.round_s", "s", "lower"),
    ("strategies.fedavg_s", "s", "lower"),
    ("strategies.self_s", "s", "lower"),
    ("federation.epoch_s", "s", "lower"),
    ("federation.round_wait_s", "s", "lower"),
    ("federation.encode_s", "s", "lower"),
    ("federation.decode_s", "s", "lower"),
    ("federation.codec_mb_per_s", "MB/s", "higher"),
    ("federation.transport_s", "s", "lower"),
    ("federation.messages", "count", "lower"),
    ("federation.bytes", "bytes", "lower"),
    ("federation.evaluate_s", "s", "lower"),
    ("federation.self_s", "s", "lower"),
    ("dataio.ingest_s", "s", "lower"),
    ("dataio.rows", "count", "lower"),
    ("dataio.self_s", "s", "lower"),
    ("trace.trace_overhead", "ratio", "lower"),
    ("trace.unattributed_s", "s", "lower"),
)
UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _round_waits(spans: list) -> list:
    """Per federated epoch: from the barrier (the last upload decoded, i.e.
    the last decode before the server round starts) to the last download
    decoded."""
    by_epoch = defaultdict(list)
    for s in spans:
        if s.parent >= 0 and spans[s.parent].name == "federation.epoch":
            by_epoch[s.parent].append(s)
    waits = []
    for children in by_epoch.values():
        rounds = [s for s in children if s.name == "strategies.apply_round"]
        if not rounds:
            continue
        decodes = [s for s in children if s.name == "federation.decode"]
        uploads = [s.end for s in decodes if s.start < rounds[0].start]
        if uploads:
            waits.append(max(s.end for s in decodes) - max(uploads))
    return waits


def rep_metrics(spans: list, selfs: list, wall_s: float) -> dict:
    """Every per-layer metric except ``trace.trace_overhead`` for one traced
    run whose setup plus ``run()`` took ``wall_s`` seconds."""
    dur = defaultdict(float)
    calls = defaultdict(int)
    work = defaultdict(int)
    layer_self = defaultdict(float)
    per_call = defaultdict(list)
    root_s = 0.0
    for s, own in zip(spans, selfs):
        dur[s.name] += s.duration
        calls[s.name] += 1
        per_call[s.name].append(s.duration)
        layer_self[s.layer] += own
        for key, value in s.work.items():
            work[f"{s.name}:{key}"] += value
        if s.parent < 0:
            root_s += s.duration

    def total(*names):
        return sum(dur[n] for n in names)

    def median(name):
        return statistics.median(per_call[name]) if per_call[name] else 0.0

    conv_s = total("nncore.conv1d_forward", "nncore.conv1d_backward")
    conv_gflop = (work["nncore.conv1d_forward:flop"] + work["nncore.conv1d_backward:flop"]) / 1e9
    adam_mparams = work["nncore.adam_step:params"] / 1e6
    codec_s = total("federation.encode", "federation.decode")
    codec_mb = (work["federation.encode:bytes"] + work["federation.decode:bytes"]) / 1e6
    waits = _round_waits(spans)
    m = {
        "nncore.conv_fwd_s": dur["nncore.conv1d_forward"],
        "nncore.conv_bwd_s": dur["nncore.conv1d_backward"],
        "nncore.conv_calls": calls["nncore.conv1d_forward"] + calls["nncore.conv1d_backward"],
        "nncore.conv_gflop": conv_gflop,
        "nncore.conv_gflops": _ratio(conv_gflop, conv_s),
        "nncore.bn_fwd_s": dur["nncore.batchnorm_forward"],
        "nncore.bn_bwd_s": total("nncore.batchnorm_backward", "nncore.batchnorm_inference_backward"),
        "nncore.relu_s": total("nncore.relu_forward", "nncore.relu_backward"),
        "nncore.dense_s": total("nncore.dense_forward", "nncore.dense_backward"),
        "nncore.adam_s": dur["nncore.adam_step"],
        "nncore.adam_calls": calls["nncore.adam_step"],
        "nncore.adam_mparams": adam_mparams,
        "nncore.adam_mparams_per_s": _ratio(adam_mparams, dur["nncore.adam_step"]),
        "extractor.student_fwd_s": dur["extractor.student_forward"],
        "extractor.teacher_fwd_s": dur["extractor.teacher_forward"],
        "extractor.teacher_fwd_calls": calls["extractor.teacher_forward"],
        "extractor.backward_s": dur["extractor.backward"],
        "extractor.predict_s": dur["extractor.predict"],
        "extractor.extract_s": dur["extractor.extract_hidden_weights"],
        "extractor.load_s": dur["extractor.load_hidden_weights"],
        "extractor.init_s": dur["extractor.init"],
        "extractor.clone_s": dur["extractor.clone_model"],
        "fbst.local_epoch_s": median("fbst.local_train_epoch"),
        "fbst.kd_loss_s": total("fbst.kd_loss", "fbst.kd_loss_grads"),
        "fbst.batches": calls["extractor.student_forward"],
        "dbwm.distance_s": dur["dbwm.pairwise_distances"],
        "dbwm.pairs": work["dbwm.pairwise_distances:pairs"],
        "dbwm.us_per_pair": 1e6 * _ratio(dur["dbwm.pairwise_distances"],
                                         work["dbwm.pairwise_distances:pairs"]),
        "dbwm.match_s": dur["dbwm.match_partners"],
        "dbwm.dispatch_s": dur["dbwm.dispatch_matched"],
        "strategies.round_s": dur["strategies.apply_round"],
        "strategies.fedavg_s": dur["strategies.fedavg_aggregate"],
        "federation.epoch_s": median("federation.epoch"),
        "federation.round_wait_s": statistics.median(waits) if waits else 0.0,
        "federation.encode_s": dur["federation.encode"],
        "federation.decode_s": dur["federation.decode"],
        "federation.codec_mb_per_s": _ratio(codec_mb, codec_s),
        "federation.transport_s": total("federation.upload", "federation.download"),
        "federation.messages": calls["federation.upload"] + calls["federation.download"],
        "federation.bytes": work["federation.upload:bytes"] + work["federation.download:bytes"],
        "federation.evaluate_s": dur["federation.evaluate"],
        "dataio.ingest_s": dur["dataio.load_ucr_tsv"],
        "dataio.rows": work["dataio.load_ucr_tsv:rows"],
        "trace.unattributed_s": wall_s - root_s,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m


# Percentiles tried for the tail, in tenths of a percent, highest first; one
# is reported only when at least ten samples lie beyond it.
TAIL_PERMILLE = (999, 990, 950, 900, 750, 500)


def tail_percentile(samples: list):
    """(label, value) of the highest nearest-rank percentile with at least
    ten samples beyond it, or None when there are fewer than twenty samples."""
    n = len(samples)
    for pm in TAIL_PERMILLE:
        rank = -(-pm * n // 1000)  # ceil(pm * n / 1000), 1-based
        if n - rank >= 10:
            return f"p{pm / 10:g}", sorted(samples)[rank - 1]
    return None


def call_distributions(spans: list) -> dict:
    """Per span name: sample count, median and tail percentile of the
    per-call duration in seconds."""
    per_call = defaultdict(list)
    for s in spans:
        per_call[s.name].append(s.duration)
    out = {}
    for name in sorted(per_call):
        samples = per_call[name]
        tail = tail_percentile(samples)
        out[name] = {"n": len(samples), "median_s": statistics.median(samples),
                     "tail": None if tail is None else {"percentile": tail[0], "s": tail[1]}}
    return out
