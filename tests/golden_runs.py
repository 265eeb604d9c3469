"""Golden runs: what a few small federated runs produce, pinned across commits.

Each file in ``tests/golden/`` holds one config of ``CONFIGS`` and what its
run produced: the ledger, each user's test accuracy and test-row count, each
user's last loss report, and the L2 norm of every final student and teacher
array. ``test_golden.py`` runs each config again and compares the ledger
exactly, each accuracy within one test row, and the losses and norms within
``GOLDEN_RTOL`` relative: wide enough for another BLAS kernel, far too narrow
for a wrong KD scale, a lost download or a misrouted bundle.

The configs are the four strategies, with and without ``conn_resample``, at
the tests' skinny widths on the built-in synthetic sets, plus two efdls runs
at the default (paper) widths on generated TSV sets: one at length 24, and
one at length 256 and batch 16, where the conv products of blocks 2 and 3
run over several blocks of series. The conv biases, which batch norm
cancels, and the running means that follow them are not pinned
(``INERT_KEYS``), nor are the length-256 run's batch-norm shifts
(``UNPINNED_KEYS``). Regenerate the files, from the repository root, with

    PYTHONPATH=src python tests/golden_runs.py [name ...]

which rewrites the named configs' files (every file without a name) and
prints the largest relative move of any loss or norm against the files it
replaces.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import numpy as np

from efdls import extractor
from efdls.federation import Federation, FederationConfig

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
GOLDEN_RTOL = 1e-4

MINI = dict(n_tot=4, conn_ratio=0.75, fles=3, seed=13, batch_size=8, lr=3e-3,
            blocks=[[3, 3], [3, 4], [3, 3]], hidden_dim=3,
            datasets=[{"name": f"waves{i}", "path": "synthetic"} for i in range(4)])

# generated TSV sets of the paper-width runs: (name, classes), and their
# series length and train and test row counts
TSV_SETS = (("GoldenShort", 2), ("GoldenTriple", 3))
TSV_LENGTH, TSV_TRAIN, TSV_TEST = 24, 20, 12
# at length 256 and batch 16, blocks 2 and 3 run their conv products over
# several blocks of series
LONG_TSV_SETS = (("GoldenLongPair", 2), ("GoldenLongTriple", 3))
LONG_TSV_LENGTH, LONG_TSV_TRAIN, LONG_TSV_TEST = 256, 32, 16

CONFIGS = {
    **{f"{strategy}{'-resample' if resample else ''}": dict(
        MINI, strategy=strategy, conn_resample=resample)
       for strategy in ("efdls", "fedavg", "fkd", "baseline")
       for resample in (False, True)},
    "efdls-paper-width-l24": dict(
        n_tot=3, fles=3, seed=5, batch_size=16, lr=1e-3, strategy="efdls",
        datasets=[{"name": name, "path": "tsv"} for name, _ in TSV_SETS]),
    "efdls-paper-width-l256": dict(
        n_tot=2, fles=2, seed=6, batch_size=16, lr=1e-3, strategy="efdls",
        datasets=[{"name": name, "path": "tsv"} for name, _ in LONG_TSV_SETS]),
}


def write_tsv_sets(root: str) -> None:
    """Seeded UCR-style sets, one per TSV_SETS entry at TSV_LENGTH and then
    one per LONG_TSV_SETS entry at LONG_TSV_LENGTH: class c is a sine of
    frequency c + 1 under noise."""
    rng = np.random.default_rng(2024)
    for sets, length, train, test in ((TSV_SETS, TSV_LENGTH, TSV_TRAIN, TSV_TEST),
                                      (LONG_TSV_SETS, LONG_TSV_LENGTH, LONG_TSV_TRAIN,
                                       LONG_TSV_TEST)):
        t = np.linspace(0.0, 2.0 * np.pi, length)
        for name, classes in sets:
            os.makedirs(os.path.join(root, name), exist_ok=True)
            for split, rows in (("TRAIN", train), ("TEST", test)):
                with open(os.path.join(root, name, f"{name}_{split}.tsv"), "w") as fh:
                    for i in range(rows):
                        label = i % classes
                        row = np.sin((label + 1) * t + rng.uniform(0, np.pi)) \
                            + 0.3 * rng.standard_normal(length)
                        fh.write("\t".join([str(label + 1)] + [f"{v:.6f}" for v in row]) + "\n")


def federation_config(name: str, tsv_root: str) -> FederationConfig:
    config = dict(CONFIGS[name])
    config["datasets"] = [
        {**d, "path": os.path.join(tsv_root, d["name"])} if d["path"] == "tsv" else d
        for d in config["datasets"]]
    return FederationConfig(**config)


# Batch norm subtracts the mean a conv bias adds, so no training output
# depends on the conv biases: their gradients are rounding noise, which Adam
# scales up to full steps, and the running means follow them, since they
# track the conv outputs' means, biases included. Under another BLAS kernel
# (OPENBLAS_CORETYPE Haswell) these moved by up to 2.5e-4 (biases) and
# 2.0e-3 (running means) relative, and every other pinned value by at most
# 4.0e-6. They are not pinned.
INERT_KEYS = tuple(f"{group}{i}.{leaf}" for i in (1, 2, 3)
                   for group, leaf in (("conv", "bias"), ("bn", "running_mean")))

# A batch-norm shift starts at zero and takes Adam steps of about the
# learning rate whose signs follow gradients that sum thousands of terms to
# near zero. In the length-256 run, under OpenBLAS's Haswell and Sandybridge
# kernels, the shifts' norms moved by up to 3.3e-4 relative, and every other
# pinned value by at most 1.1e-5, the losses by 6.4e-6. Its shifts are not
# pinned; the losses they feed are.
UNPINNED_KEYS = {"efdls-paper-width-l256": tuple(f"bn{i}.beta" for i in (1, 2, 3))}


def _norms(model: extractor.FeatureExtractor, hidden_only: bool, unpinned=()) -> dict:
    arrays = dict(extractor.hidden_arrays(model))
    if not hidden_only:
        arrays["classifier.weight"] = model.classifier.weight
        arrays["classifier.bias"] = model.classifier.bias
    return {key: float(np.linalg.norm(arr.astype(np.float64))) for key, arr in arrays.items()
            if key not in INERT_KEYS and key not in unpinned}


def measure(name: str, tsv_root: str) -> dict:
    """Run config ``name`` and return its golden record. ``tsv_root`` holds
    the sets ``write_tsv_sets`` writes."""
    fed = Federation(federation_config(name, tsv_root))
    report, ledger = fed.run()
    unpinned = UNPINNED_KEYS.get(name, ())
    users = []
    for user, acc in zip(fed.users, report.table.values[:, 0]):
        pair = user.pair
        users.append({
            "accuracy": float(acc),
            "test_rows": int(user.dataset.y_test.shape[0]),
            "loss": {part: getattr(user.last_report, part) for part in ("kd", "sup", "total")},
            "student_norms": _norms(pair.student, False, unpinned),
            "teacher_norms": None if pair.teacher is None else _norms(pair.teacher, True,
                                                                      unpinned),
        })
    return {
        "config": CONFIGS[name],
        "ledger": [[e.epoch, e.user_id, e.direction, e.nbytes] for e in ledger.entries],
        "users": users,
    }


def golden_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}.json")


def load_golden(name: str) -> dict:
    with open(golden_path(name), encoding="utf-8") as fh:
        return json.load(fh)


def pinned_values(record: dict) -> dict:
    """Every loss part and norm of a record, keyed by where it sits."""
    values = {}
    for uid, user in enumerate(record["users"]):
        for part, value in user["loss"].items():
            values[f"user {uid} loss {part}"] = value
        for side in ("student_norms", "teacher_norms"):
            for key, value in (user[side] or {}).items():
                values[f"user {uid} {side} {key}"] = value
    return values


def relative_move(old: float, new: float) -> float:
    return abs(new - old) / max(abs(old), abs(new), 1e-300) if old != new else 0.0


def main(names) -> int:
    unknown = sorted(set(names) - set(CONFIGS))
    if unknown:
        print(f"unknown golden configs: {unknown}; known: {list(CONFIGS)}", file=sys.stderr)
        return 2
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory() as root:
        write_tsv_sets(root)
        for name in names or CONFIGS:
            record = measure(name, root)
            if os.path.exists(golden_path(name)):
                old, new = pinned_values(load_golden(name)), pinned_values(record)
                moves = [relative_move(old[k], new[k]) for k in old.keys() & new.keys()]
                print(f"{name}: largest relative move {max(moves, default=0.0):.3g}")
            with open(golden_path(name), "w", encoding="utf-8") as fh:
                json.dump(record, fh, indent=1)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
