"""Federated distillation simulator for multi-task time series classification.

Each user trains a student network under a frozen teacher via feature-based
knowledge distillation; a central server matches users by the least square
distance between their uploaded hidden-layer weights and exchanges the
matched weights. Comparison strategies (baseline, fedavg, fkd) share the same
machinery.
"""

from .dataio import DATASET_REGISTRY, TimeSeriesDataset, load_ucr_tsv, make_synthetic_waves
from .dbwm import bundle_distance, match_partners, pairwise_distances
from .extractor import FeatureExtractor, ForwardTrace, WeightBundle, \
    extract_hidden_weights, load_hidden_weights
from .fbst import FBSTConfig, FBSTPair, LossReport, kd_loss, local_train_epoch, \
    sup_loss, total_loss
from .federation import CommLedger, FederationConfig, comm_overhead, \
    decode_weight_message, encode_weight_message, run_federation, select_connected
from .metrics import AccuracyTable, MetricReport, avg_rank, load_reference_table, \
    mean_acc, top1_accuracy, win_tie_lose_best
from .strategies import apply_round, fedavg_aggregate

__version__ = "0.1.0"

__all__ = [
    "DATASET_REGISTRY", "TimeSeriesDataset", "load_ucr_tsv", "make_synthetic_waves",
    "bundle_distance", "match_partners", "pairwise_distances",
    "FeatureExtractor", "ForwardTrace", "WeightBundle",
    "extract_hidden_weights", "load_hidden_weights",
    "FBSTConfig", "FBSTPair", "LossReport", "kd_loss", "local_train_epoch",
    "sup_loss", "total_loss",
    "CommLedger", "FederationConfig", "comm_overhead",
    "decode_weight_message", "encode_weight_message", "run_federation", "select_connected",
    "AccuracyTable", "MetricReport", "avg_rank", "load_reference_table",
    "mean_acc", "top1_accuracy", "win_tie_lose_best",
    "apply_round", "fedavg_aggregate",
    "__version__",
]
