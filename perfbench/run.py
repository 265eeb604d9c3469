"""The efdls benchmark: one workload, one seed, one measured window.

    python3 perfbench/run.py --workload train_long --seed 1 --seconds 30 --trace 0

Writes the workload's seeded TSV tasks under ``.bench_build/perfbench/``,
then repeats ``Federation(config)`` + ``.run()`` through the public library
API until the window is spent, checking every repeat's outputs. With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced repeats and reports the per-layer metrics.
``setup_s`` and ``run_s`` are process CPU seconds (user + system, every
thread), so time spent waiting for a CPU held by another process on a shared
host does not count; the wall seconds are printed and recorded beside them.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. A failed output check
prints the problems to standard error and exits 1.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import glob
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Every workload keeps the paper's default widths, so a hidden bundle holds
# exactly this many learnable parameters.
PAPER_BUNDLE_PARAMS = 281_344

# Every window runs at least this many repeats, so each timing is a median.
MIN_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s", "run_s": "s", "peak_rss_mb": "MiB", "wire_bytes": "bytes",
    "final_loss": "nats", "mean_acc": "fraction", "pass_rate": "fraction",
}


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workload_names))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def git_sha(root: Path):
    """HEAD's commit id read from ``.git`` directly, or None outside a git
    checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def blas_info(np) -> dict:
    """BLAS vendor from numpy's build record and, for OpenBLAS, the thread
    count it runs with."""
    info = {"vendor": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["vendor"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                break
    info["thread_env"] = {k: os.environ.get(k) for k in BLAS_THREAD_VARS}
    return info


def environment(np) -> dict:
    return {
        "git_sha": git_sha(ROOT),
        "source_sha256": source_digest(SRC),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(np),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "loadavg_start": os.getloadavg(),
    }


# ---------------------------------------------------------------------------
# One repeat and its output check
# ---------------------------------------------------------------------------

def run_once(efdls, config_dict: dict, recorder=None):
    """Construct and run one federation. Returns (timing, outcome): the
    timing holds the process CPU seconds (``setup_s``, ``run_s``) and the
    wall seconds (``setup_wall_s``, ``run_wall_s``) of ``Federation(config)``
    and of ``.run()``. The outcome is taken after the recorder (if any) is
    uninstalled."""
    fed_mod = efdls.federation
    config = fed_mod.FederationConfig.from_dict(config_dict)
    try:
        if recorder is not None:
            recorder.install()
        c0, t0 = time.process_time(), time.perf_counter()
        fed = fed_mod.Federation(config)
        c1, t1 = time.process_time(), time.perf_counter()
        metric_report, ledger = fed.run()
        c2, t2 = time.process_time(), time.perf_counter()
    finally:
        if recorder is not None:
            recorder.uninstall()
    timing = {"setup_s": c1 - c0, "run_s": c2 - c1,
              "setup_wall_s": t1 - t0, "run_wall_s": t2 - t1}
    bundle = efdls.extractor.extract_hidden_weights(fed.users[0].pair.student)
    outcome = {
        "accs": [float(v) for v in metric_report.table.values[:, 0]],
        "losses": [[u.last_report.kd, u.last_report.sup, u.last_report.total] for u in fed.users],
        "wire_bytes": ledger.total_bytes(),
        "expected_bytes": fed_mod.comm_overhead(
            len(fed_mod.encode_weight_message(bundle, 0, 0)), config.fles, config.n_conn),
        "bundle_params": bundle.num_learnable_params(),
    }
    return timing, outcome


def check(outcome: dict, reference: dict | None, majority: float) -> list:
    """Problems with one repeat's outputs; empty when it is correct."""
    problems = []
    if outcome["wire_bytes"] != outcome["expected_bytes"]:
        problems.append(f"ledger total {outcome['wire_bytes']} != comm_overhead "
                        f"{outcome['expected_bytes']}")
    if outcome["bundle_params"] != PAPER_BUNDLE_PARAMS:
        problems.append(f"hidden bundle has {outcome['bundle_params']} learnable parameters, "
                        f"expected {PAPER_BUNDLE_PARAMS}")
    if not all(math.isfinite(v) for row in outcome["losses"] for v in row):
        problems.append("non-finite training loss")
    mean_acc = statistics.fmean(outcome["accs"])
    if not mean_acc > majority:
        problems.append(f"mean accuracy {mean_acc:.4f} does not beat the majority-class "
                        f"rate {majority:.4f}")
    if reference is not None:
        for key in ("accs", "losses", "wire_bytes"):
            if outcome[key] != reference[key]:
                problems.append(f"{key} differ from the first repeat of this seed")
    return problems


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

# BLAS runs one thread. On a shared 2-CPU machine two threads were up to 20%
# faster, but over ten seeds the spread of train_long's wall-clock run time
# grew from 0.03 to 0.15.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    os.environ.update({var: "1" for var in BLAS_THREAD_VARS})  # before numpy loads BLAS
    sys.path.insert(0, str(HERE))
    import workloads
    args = parse_args(argv, workloads.WORKLOADS)
    if not (SRC / "efdls" / "__init__.py").is_file():
        print(f"efdls sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import efdls
    import report
    import spans as spans_mod

    workload = workloads.WORKLOADS[args.workload]
    env = environment(np)
    out_dir = ROOT / ".bench_build" / "perfbench" / f"{workload.name}-seed{args.seed}"
    shutil.rmtree(out_dir / "inputs", ignore_errors=True)
    datasets = workloads.write_inputs(workload, args.seed, str(out_dir / "inputs"))
    majority = workloads.majority_rate(datasets)
    config_dict = workloads.federation_config(workload, args.seed, datasets)

    # A process's first federation runs cold (first calls into BLAS, memory
    # fresh from the OS), so a small one with the same strategy and transport
    # runs before the window opens; it is not measured.
    try:
        run_once(efdls, dict(config_dict, n_tot=min(4, workload.n_tot), fles=1))
    except Exception:  # the measured repeats fail the same way and report it
        pass

    kinds = ("untraced", "traced") if args.trace else ("untraced",)
    reps = []  # dicts: kind, the run_once timing, problems
    traced_layer = []
    all_spans = []
    reference = None
    deadline = time.perf_counter() + args.seconds
    while True:
        kind = kinds[len(reps) % len(kinds)]
        if len(reps) >= MIN_REPEATS:
            # Start another repeat only if one of its kind is expected to fit
            # in the window.
            same = [r["setup_wall_s"] + r["run_wall_s"]
                    for r in reps if r["kind"] == kind and "run_s" in r]
            if time.perf_counter() + (statistics.median(same) if same else 0.0) > deadline:
                break
        gc.collect()
        recorder = spans_mod.SpanRecorder(spans_mod.efdls_targets(efdls)) \
            if kind == "traced" else None
        rep = {"kind": kind}
        try:
            timing, outcome = run_once(efdls, config_dict, recorder)
            rep.update(timing)
            rep["problems"] = check(outcome, reference, majority)
            if reference is None:
                reference = outcome
        except Exception:  # a repeat that raises is a failed attempt, not a crash
            rep["problems"] = ["raised:\n" + traceback.format_exc()]
        reps.append(rep)
        if recorder is not None and "run_s" in rep:
            selfs = spans_mod.self_times(recorder.spans)
            traced_layer.append(report.rep_metrics(recorder.spans, selfs,
                                                   rep["setup_wall_s"] + rep["run_wall_s"]))
            all_spans.append(recorder.spans)
        for problem in rep["problems"]:
            print(f"OUTPUT CHECK FAILED ({kind} repeat {len(reps)}): {problem}", file=sys.stderr)

    failed = sum(1 for r in reps if r["problems"])
    timed = [r for r in reps if not r["problems"]]
    env["loadavg_end"] = os.getloadavg()

    def median_of(kind, key):
        values = [r[key] for r in timed if r["kind"] == kind]
        return statistics.median(values) if values else 0.0

    if args.trace:
        metrics = {name: statistics.median(m[name] for m in traced_layer) if traced_layer else 0.0
                   for name, _, _ in report.PER_LAYER if name != "trace.trace_overhead"}
        untraced_run = median_of("untraced", "run_s")
        metrics["trace.trace_overhead"] = \
            median_of("traced", "run_s") / untraced_run - 1.0 if untraced_run else 0.0
        units = report.UNITS
    else:
        ref = reference or {"accs": [0.0], "losses": [[0.0, 0.0, 0.0]], "wire_bytes": 0}
        metrics = {
            "setup_s": median_of("untraced", "setup_s"),
            "run_s": median_of("untraced", "run_s"),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "wire_bytes": ref["wire_bytes"],
            "final_loss": statistics.fmean(row[2] for row in ref["losses"]),
            "mean_acc": statistics.fmean(ref["accs"]),
            "pass_rate": (len(reps) - failed) / len(reps),
        }
        units = END_TO_END_UNITS

    result = {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    detail = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "majority_rate": majority,
              "repeats": reps, "result": result}
    if args.trace:
        detail["per_layer_repeats"] = traced_layer
        flat = [s for rep_spans in all_spans for s in rep_spans]
        detail["call_distributions"] = report.call_distributions(flat)
        with open(out_dir / "spans.jsonl", "w", encoding="utf-8") as fh:
            for rep_index, rep_spans in enumerate(all_spans):
                for s in rep_spans:
                    fh.write(json.dumps({"rep": rep_index, "name": s.name, "layer": s.layer,
                                         "start": s.start, "end": s.end, "parent": s.parent,
                                         "epoch": s.epoch, "user": s.user, "work": s.work}) + "\n")
    with open(out_dir / f"result-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, default=float)

    print(f"# workload {workload.name} seed {args.seed}: {len(reps)} repeats "
          f"({failed} failed), majority-class rate {majority:.4f}")
    print(f"# setup_s and run_s are process CPU seconds; untraced wall medians: setup "
          f"{median_of('untraced', 'setup_wall_s'):.4f} s, run "
          f"{median_of('untraced', 'run_wall_s'):.4f} s")
    print("# environment " + json.dumps(env, default=float))
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']}")
    if args.trace:
        print(f"# per-layer values are medians over {len(traced_layer)} traced repeats; "
              "work counters are computed from argument shapes, not read from hardware "
              "counters")
        print("# per-call durations over all traced repeats:")
        for name, d in detail["call_distributions"].items():
            tail = d["tail"]
            tail_text = f"{tail['percentile']} {tail['s'] * 1e3:.4f} ms" if tail \
                else "no percentile with 10 samples beyond it"
            print(f"#   {name:40s} n={d['n']:<6d} median {d['median_s'] * 1e3:.4f} ms, "
                  f"{tail_text}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
