"""Per-round aggregation strategies.

Each strategy is one row of ``ROUNDS``: the server step that turns the
epoch's complete uploads, a [(user_id, bundle)] list, into one download per
connected user in the same shape, and the name of the ``FBSTPair`` method
that loads each download.

  baseline  no sharing at all (and no uploads happen either);
  fedavg    elementwise mean of every bundle, loaded into each STUDENT;
  fkd       the same mean, loaded into each TEACHER;
  efdls     nearest-neighbor weight matching, partner bundles into TEACHERS.

Downloads share bundles: every fedavg/fkd user is handed the one mean, and an
efdls user its partner's uploaded bundle itself. Each download is encoded
and decoded on its way to the user, so every user loads a private copy.

FedAvgM / FedGrad / FTL / FTLS variants are out of scope; a new row is the
extension point for adding them.
"""

from __future__ import annotations

import numpy as np

from . import dbwm
from .extractor import WeightBundle, check_bundle


def fedavg_aggregate(bundles: list) -> WeightBundle:
    """Elementwise arithmetic mean over every array in every bundle,
    running statistics included. Every bundle must share the first one's
    keys and shapes."""
    if not bundles:
        raise ValueError("cannot average an empty list of bundles")
    for b in bundles[1:]:
        check_bundle(b, bundles[0].arrays)
    mean_arrays = {}
    for key in bundles[0].arrays:
        stacked = np.stack([b.arrays[key].astype(np.float64, copy=False) for b in bundles])
        mean_arrays[key] = stacked.mean(axis=0)
    return WeightBundle(arrays=mean_arrays)


def _mean_for_all(uploads: list) -> list:
    mean = fedavg_aggregate([b for _, b in uploads])
    return [(uid, mean) for uid, _ in uploads]


def _match(uploads: list) -> list:
    # With a single connected user no partner exists and the user simply
    # trains supervised-only this round.
    return dbwm.match_table(uploads) if len(uploads) >= 2 else []


# tag -> (server step, FBSTPair load method name); baseline never communicates.
# Rows hold a method name and helpers that reach fedavg_aggregate and
# dbwm.match_table through module attributes, so a wrapper installed on any
# of them after import is still called.
ROUNDS = {"baseline": None,
          "fedavg": (_mean_for_all, "load_student"),
          "fkd": (_mean_for_all, "load_teacher"),
          "efdls": (_match, "load_teacher")}
STRATEGY_TAGS = tuple(ROUNDS)


def apply_round(tag: str, uploads: list) -> list:
    """Turn an epoch's complete [(user_id, bundle)] uploads into
    [(user_id, bundle)] downloads in upload order; baseline gives none."""
    row = ROUNDS[tag]
    return [] if row is None else row[0](uploads)
