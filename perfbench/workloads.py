"""Benchmark workloads and their seeded UCR-style inputs.

Every workload runs the paper's default widths (281,344 learnable parameters
per hidden bundle) with ``workers=1`` from a single process. Each user gets
its own generated task: a pair of ``<Name>_TRAIN.tsv`` / ``<Name>_TEST.tsv``
files whose class count cycles 2/3/2/4 over the users, so the federation is
multi-task as in the paper. The same seed always writes the same bytes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

CLASS_CYCLE = (2, 3, 2, 4)
# Class waveforms are told apart by their period in samples, which the
# conv receptive field (about 15 samples) can see at any series length.
PERIODS = (3, 5, 8, 12, 24)
NOISE = 0.3
# Two federated epochs are the fewest with a teacher forward (epoch 1 is
# supervised-only). At the library's default learning rate of 1e-4, two
# epochs leave every model at the majority-class rate.
FLES = 2
LR = 3e-3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    strategy: str
    n_tot: int
    length: int
    n_train: int
    n_test: int
    conn_ratio: float = 1.0
    transport: str = "inproc"


WORKLOADS = {w.name: w for w in (
    Workload(
        name="train_long",
        why="efdls, 4 users at series length 256: local conv/batch-norm training and the "
            "teacher forward dominate, the server is negligible",
        strategy="efdls", n_tot=4, length=256, n_train=32, n_test=32),
    Workload(
        name="match_many",
        why="efdls, 64 users at series length 24: the O(n^2) weight matching, per-step Adam "
            "and per-user setup grow in share",
        strategy="efdls", n_tot=64, length=24, n_train=16, n_test=16),
    Workload(
        name="avg_socket",
        why="fedavg, 32 users, half connected, loopback sockets: mean aggregation, real "
            "frames, no teacher forward and no matching",
        strategy="fedavg", n_tot=32, length=24, n_train=16, n_test=16, conn_ratio=0.5,
        transport="socket"),
)}


def make_rows(rng: np.random.Generator, periods: np.ndarray, length: int, n: int):
    """Rows of a task whose classes differ by waveform period; the phase,
    amplitude and noise of every row are random."""
    num_classes = len(periods)
    t = np.arange(length)
    labels = np.arange(n) % num_classes
    rng.shuffle(labels)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(n, 1))
    amp = rng.uniform(0.7, 1.3, size=(n, 1))
    x = amp * np.sin(2.0 * np.pi * t[None, :] / periods[labels][:, None] + phase)
    x += NOISE * rng.standard_normal((n, length))
    return labels + 1, x


def write_tsv(path: str, labels: np.ndarray, x: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for label, row in zip(labels, x):
            fh.write(f"{label}\t" + "\t".join(f"{v:.6f}" for v in row) + "\n")


def write_inputs(workload: Workload, seed: int, root: str) -> list:
    """Write one task per user under ``root`` and return the run's
    (name, path) dataset list."""
    datasets = []
    for uid in range(workload.n_tot):
        rng = np.random.default_rng([seed, uid, 7919])
        periods = rng.permutation(np.array(PERIODS))[:CLASS_CYCLE[uid % len(CLASS_CYCLE)]]
        name = f"BenchTask{uid:03d}"
        path = os.path.join(root, name)
        os.makedirs(path, exist_ok=True)
        for split, n in (("TRAIN", workload.n_train), ("TEST", workload.n_test)):
            labels, x = make_rows(rng, periods, workload.length, n)
            write_tsv(os.path.join(path, f"{name}_{split}.tsv"), labels, x)
        datasets.append((name, path))
    return datasets


def majority_rate(datasets: list) -> float:
    """Mean over users of the test split's majority-class share: the accuracy
    a model that learned nothing but the class prior would reach."""
    rates = []
    for name, path in datasets:
        with open(os.path.join(path, f"{name}_TEST.tsv"), encoding="utf-8") as fh:
            labels = [line.split("\t", 1)[0] for line in fh if line.strip()]
        counts = np.unique(labels, return_counts=True)[1]
        rates.append(counts.max() / len(labels))
    return float(np.mean(rates))


def federation_config(workload: Workload, seed: int, datasets: list) -> dict:
    return {
        "n_tot": workload.n_tot,
        "datasets": [{"name": n, "path": p} for n, p in datasets],
        "conn_ratio": workload.conn_ratio,
        "fles": FLES,
        "seed": seed,
        "strategy": workload.strategy,
        "lr": LR,
        "transport": workload.transport,
        "workers": 1,
    }
