"""Command-line entry point.

Subcommands:
  run            execute one federated run from a JSON config
  sweep-ratio    repeat a run over a list of connected-user ratios
  sweep-epsilon  repeat a run over a list of loss-mixing coefficients
  eval-table     recompute win/tie/lose/best, MeanACC and AVG_rank from an
                 accuracy CSV (datasets x algorithms)
  gradcheck      self-check: finite-difference verification of the network
                 gradients

The config keys are listed under "Config schema" in the README.

A run writes the RUN_OUTPUTS files (its effective config, per-user accuracies
and summary) into <out>; a sweep writes them into one subdirectory of <out>
per setting and adds <out>/sweep.csv. A setting's subdirectory is named
<setting>_<value formatted with %g>, and a value list in which two names
coincide is refused before anything is written. eval-table --out writes the
REPORT_OUTPUTS files: the table as results.csv and {"algorithms": ...} as
summary.json, the same block a run's summary holds. Existing outputs are
never overwritten unless --force is given.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys

import numpy as np

from . import extractor, fbst, federation, metrics, nncore, strategies

DATA_DIR_ENV = "EFDLS_DATA_DIR"
GRADCHECK_TOLERANCE = 1e-4
# what eval-table --out writes; a run adds its effective config
REPORT_OUTPUTS = ("results.csv", "summary.json")
RUN_OUTPUTS = ("effective-config",) + REPORT_OUTPUTS
# subcommand: (setting name, config key, subcommand help, help of its list flag);
# the list flag is the setting name plus "s", and each setting writes into
# <out>/<setting name>_<value>
SWEEPS = {
    "sweep-ratio": ("ratio", "conn_ratio", "run once per connected-user ratio",
                    "comma-separated ratios, e.g. 0.4,0.6,0.8,1.0"),
    "sweep-epsilon": ("epsilon", "epsilon", "run once per loss-mixing epsilon",
                      "comma-separated epsilons, e.g. 0.5,0.9"),
}


def _resolve_path(path: str, data_dir: str | None) -> str:
    if (data_dir and path != "synthetic" and not os.path.isabs(path)
            and not os.path.isdir(path) and os.path.isdir(os.path.join(data_dir, path))):
        return os.path.join(data_dir, path)
    return path


def load_config(path: str, overrides: dict) -> federation.FederationConfig:
    """Read a config file; each non-None value of ``overrides`` that is keyed
    by a config field replaces the file's. A relative dataset path that names
    no directory under the working directory resolves under $EFDLS_DATA_DIR
    when one is there."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise fbst.ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise fbst.ConfigError(
            f"config file {path} must hold a JSON object, got {type(raw).__name__}")
    for f in dataclasses.fields(federation.FederationConfig):
        if overrides.get(f.name) is not None:
            raw[f.name] = overrides[f.name]
    config = federation.FederationConfig.from_dict(raw)
    data_dir = os.environ.get(DATA_DIR_ENV)
    config.datasets = [(name, _resolve_path(p, data_dir)) for name, p in config.datasets]
    return config


def _refuse_overwrite(out_dir: str, names, force: bool) -> None:
    clashes = [n for n in names if os.path.exists(os.path.join(out_dir, n))]
    if clashes and not force:
        raise FileExistsError(
            f"output files already exist in {out_dir}: {clashes} (use --force to overwrite)"
        )


def _write_outputs(out_dir: str, table: metrics.AccuracyTable, documents: dict) -> None:
    """Make ``out_dir``, write ``table`` to results.csv and each JSON document
    to its file name: the one writer of a run's and eval-table's outputs."""
    os.makedirs(out_dir, exist_ok=True)
    metrics.write_accuracy_csv(table, os.path.join(out_dir, "results.csv"))
    for name, document in documents.items():
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=2)
            fh.write("\n")


def _run_into(config: federation.FederationConfig, out_dir: str, force: bool) -> dict:
    """Run the federation into ``out_dir``, write RUN_OUTPUTS there and
    return the summary payload. The directory is made only once the run has
    succeeded, so a failed run leaves none behind."""
    config.output_dir = out_dir
    _refuse_overwrite(out_dir, RUN_OUTPUTS, force)
    fed = federation.Federation(config)
    report, ledger = fed.run()

    upload = ledger.total_bytes("upload")
    download = ledger.total_bytes("download")
    bundle_bytes = next((e.nbytes for e in ledger.entries), None)
    expected = None
    if bundle_bytes is not None:
        expected = federation.comm_overhead(bundle_bytes, config.fles, config.n_conn)
    per_user = {name: float(acc) for name, acc in
                zip(report.table.datasets, report.table.values[:, 0])}
    final_loss = {report.table.datasets[user.user_id]: user.last_report.total
                  for user in fed.users}
    summary = {
        "strategy": config.strategy,
        "seed": config.seed,
        "n_tot": config.n_tot,
        "n_conn": config.n_conn,
        "fles": config.fles,
        "algorithms": metrics.summary_dict(report),
        "per_user": per_user,
        "final_train_loss": final_loss,
        "comm": {
            "upload_bytes": upload,
            "download_bytes": download,
            "total_bytes": upload + download,
            "bundle_bytes": bundle_bytes,
            "expected_total_bytes": expected,
        },
    }

    _write_outputs(out_dir, report.table,
                   {"effective-config": config.to_dict(), "summary.json": summary})
    return summary


def _out_dir(args, config: federation.FederationConfig) -> str:
    out_dir = args.out or config.output_dir
    if not out_dir:
        raise fbst.ConfigError("no output directory (give --out or set output_dir)")
    return out_dir


def cmd_run(args) -> int:
    config = load_config(args.config, vars(args))
    out_dir = _out_dir(args, config)
    summary = _run_into(config, out_dir, args.force)
    mean = summary["algorithms"][config.strategy]["mean_acc"]
    print(f"strategy={config.strategy} n_tot={config.n_tot} n_conn={config.n_conn} "
          f"fles={config.fles} mean_acc={mean:.4f}")
    print(f"outputs written to {out_dir}")
    return 0


def _sweep(args) -> int:
    parameter, key, *_ = SWEEPS[args.command]
    values = _parse_float_list(getattr(args, f"{parameter}s"), f"{parameter}s")
    names = [f"{parameter}_{value:g}" for value in values]
    shared = sorted({name for name in names if names.count(name) > 1})
    if shared:
        raise fbst.ConfigError(f"--{parameter}s: settings would share the output "
                               f"directories {shared}; give values that differ within "
                               f"six significant digits")
    base = load_config(args.config, vars(args))  # the one read of the file
    out_dir = _out_dir(args, base)
    os.makedirs(out_dir, exist_ok=True)
    _refuse_overwrite(out_dir, ("sweep.csv",), args.force)
    rows = []
    failures = 0
    for value, name in zip(values, names):
        try:
            config = dataclasses.replace(base, **{key: value})
            summary = _run_into(config, os.path.join(out_dir, name), args.force)
            losses = summary["final_train_loss"].values()
            rows.append({
                "parameter": parameter,
                "value": value,
                "n_conn": config.n_conn,
                "mean_acc": summary["algorithms"][config.strategy]["mean_acc"],
                "mean_final_loss": sum(losses) / len(losses) if losses else "",
                "error": "",
            })
            print(f"{parameter}={value:g}: n_conn={config.n_conn} "
                  f"mean_acc={rows[-1]['mean_acc']:.4f}")
        except Exception as exc:
            failures += 1
            rows.append({"parameter": parameter, "value": value, "n_conn": "",
                         "mean_acc": "", "mean_final_loss": "", "error": str(exc)})
            print(f"{parameter}={value:g}: failed ({exc})", file=sys.stderr)
    with open(os.path.join(out_dir, "sweep.csv"), "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=["parameter", "value", "n_conn",
                                                "mean_acc", "mean_final_loss", "error"])
        writer.writeheader()
        writer.writerows(rows)
    print(f"sweep results written to {os.path.join(out_dir, 'sweep.csv')}")
    return 1 if failures == len(values) else 0


def cmd_eval_table(args) -> int:
    try:
        table = metrics.load_accuracy_csv(args.table)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = metrics.MetricReport.from_table(table)
    header = f"{'algorithm':<12} {'win':>4} {'tie':>4} {'lose':>5} {'best':>5} {'mean_acc':>9} {'avg_rank':>9}"
    print(header)
    for a in table.algorithms:
        mean = report.mean_acc[a]
        if report.win is None:
            print(f"{a:<12} {'-':>4} {'-':>4} {'-':>5} {'-':>5} {mean:>9.4f} {'-':>9}")
        else:
            print(f"{a:<12} {report.win[a]:>4} {report.tie[a]:>4} {report.lose[a]:>5} "
                  f"{report.best[a]:>5} {mean:>9.4f} {report.avg_rank[a]:>9.4f}")
    if report.win is None:
        print("error: win/tie/lose and ranks need at least 2 algorithm columns",
              file=sys.stderr)
        return 1
    if args.out:
        _refuse_overwrite(args.out, REPORT_OUTPUTS, args.force)
        _write_outputs(args.out, table,
                       {"summary.json": {"algorithms": metrics.summary_dict(report)}})
    return 0


def cmd_gradcheck(args) -> int:
    if args.trials < 1:
        raise fbst.ConfigError(f"--trials must be >= 1, got {args.trials}")
    worst = 0.0
    for trial in range(args.trials):
        rng = np.random.default_rng([args.seed, trial])
        # an independently seeded teacher, so every KD gradient is non-zero
        model, teacher = (extractor.FeatureExtractor(
            num_classes=3, blocks=((3, 6), (3, 8), (3, 6)), hidden_dim=6,
            seed=[args.seed, trial, role]) for role in (1, 2))
        x = rng.standard_normal((3, 1, 16))
        labels = rng.integers(0, 3, size=3)
        teacher_trace = teacher.forward(x, training=True, update_running=False)
        for loss in (fbst.SupervisedLoss(labels),
                     fbst.DistillationLoss(teacher_trace, labels, epsilon=fbst.FBSTConfig.epsilon)):
            err = nncore.finite_diff_gradcheck(model, x, loss)
            worst = max(worst, err)
    ok = worst < GRADCHECK_TOLERANCE
    print(f"gradcheck: {args.trials} trials, max relative error {worst:.3e} "
          f"({'OK' if ok else 'FAILED'}, tolerance {GRADCHECK_TOLERANCE:.0e})")
    return 0 if ok else 1


def _parse_float_list(text: str, what: str):
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise SystemExit(f"error: --{what} expects a comma-separated list of numbers")
    if not values:
        raise SystemExit(f"error: --{what} is empty")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="efdls",
        description="Federated distillation simulator for multi-task time series classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", help="output directory (overrides config output_dir)")
        p.add_argument("--seed", type=int, help="override the run seed")
        p.add_argument("--strategy", choices=strategies.STRATEGY_TAGS,
                       help="override the aggregation strategy")
        p.add_argument("--ratio", dest="conn_ratio", metavar="RATIO", type=float,
                       help="override conn_ratio")
        p.add_argument("--epsilon", type=float, help="override the loss-mixing epsilon")
        p.add_argument("--fles", type=int, help="override the number of federated epochs")
        p.add_argument("--transport", choices=federation.TRANSPORTS,
                       help="message transport (socket uses loopback TCP)")
        p.add_argument("--port", type=int, help="socket transport port (0 = ephemeral)")
        p.add_argument("--force", action="store_true", help="overwrite existing outputs")

    p_run = sub.add_parser("run", help="execute one federated run")
    add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    for command, (parameter, _, help_text, values_help) in SWEEPS.items():
        p_sweep = sub.add_parser(command, help=help_text)
        add_common(p_sweep)
        p_sweep.add_argument(f"--{parameter}s", required=True, help=values_help)
        p_sweep.set_defaults(func=_sweep)

    p_et = sub.add_parser("eval-table", help="recompute metrics from an accuracy CSV")
    p_et.add_argument("table", help="CSV with a dataset column plus one column per algorithm")
    p_et.add_argument("--out", help="also emit results.csv/summary.json here")
    p_et.add_argument("--force", action="store_true", help="overwrite existing outputs")
    p_et.set_defaults(func=cmd_eval_table)

    p_gc = sub.add_parser("gradcheck", help="finite-difference gradient self-check")
    p_gc.add_argument("--seed", type=int, default=0)
    p_gc.add_argument("--trials", type=int, default=3, help="networks to check, at least 1")
    p_gc.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FileExistsError, fbst.ConfigError, federation.MalformedMessageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # dataset/numeric failures carry their context
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
