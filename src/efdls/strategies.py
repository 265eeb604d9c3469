"""Per-round aggregation strategies.

Each strategy is one row of ``ROUNDS``: the server step that turns the
epoch's uploads, (user_id, bundle) pairs in upload order, into one download
per connected user in the same shape, and the name of the ``FBSTPair`` method
that loads each download.

  baseline  no sharing at all (and no uploads happen either);
  fedavg    elementwise mean of every bundle, loaded into each STUDENT;
  fkd       the same mean, loaded into each TEACHER;
  efdls     nearest-neighbor weight matching, partner bundles into TEACHERS.

A round consumes its uploads once, as they arrive. The mean folds each upload
into one float64 running sum and lets it go, so fedavg/fkd hold one upload at
a time; efdls matches every bundle against every other and so holds them all.

Downloads share bundles: every fedavg/fkd user is handed the one mean, cast
once to the uploads' dtype, and an efdls user its partner's uploaded bundle
itself. Each download is encoded and decoded on its way to the user; a
student load copies it, and a teacher keeps it (see ``federation``).

FedAvgM / FedGrad / FTL / FTLS variants are out of scope; a new row is the
extension point for adding them.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from . import dbwm
from .extractor import WeightBundle, check_bundle


def fedavg_aggregate(bundles) -> WeightBundle:
    """Elementwise arithmetic mean over every array in every bundle,
    running statistics included. Every bundle must share the first one's
    keys and shapes. ``bundles`` is any iterable, consumed once: each bundle
    is added into a float64 running sum in turn, and no reference to it is
    kept. The sum runs in input order, so for every array of more than one
    element the mean equals ``np.stack(...).mean(axis=0)`` bit for bit."""
    bundles = iter(bundles)
    first = next(bundles, None)
    if first is None:
        raise ValueError("cannot average an empty list of bundles")
    # a copy even of float64 arrays: the sum is added into in place
    sums = {key: np.array(arr, dtype=np.float64) for key, arr in first.arrays.items()}
    del first
    count = 1
    for bundle in bundles:
        check_bundle(bundle, sums)
        for key, total in sums.items():
            total += bundle.arrays[key]
        count += 1
        del bundle  # dead before the next bundle is produced
    for total in sums.values():
        total /= count
    return WeightBundle(arrays=sums)


def _mean_for_all(uploads) -> list:
    """Every user is handed the one mean, in the dtype each array was
    uploaded in: a run's float32 mean is cast once, here, and every download
    message borrows it. A value beyond the float32 range becomes inf, which
    the encoder refuses, naming the user and the epoch."""
    uids, dtypes = [], {}

    def bundle_of(upload):
        uid, bundle = upload
        if not uids:
            dtypes.update((key, arr.dtype) for key, arr in bundle.arrays.items())
        uids.append(uid)
        return bundle

    # map, unlike a generator's loop variable, keeps no reference to the
    # upload it last returned
    mean = fedavg_aggregate(map(bundle_of, uploads))
    if any(arr.dtype != dtypes[key] for key, arr in mean.arrays.items()):
        with np.errstate(over="ignore"):
            mean = WeightBundle(arrays={key: arr.astype(dtypes[key])
                                        for key, arr in mean.arrays.items()})
    return [(uid, mean) for uid in uids]


def _match(uploads) -> list:
    # Matching needs every bundle at once. With a single connected user no
    # partner exists and the user simply trains supervised-only this round.
    uploads = list(uploads)
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


def apply_round(tag: str, uploads) -> list:
    """Turn an epoch's (user_id, bundle) uploads, an iterable consumed once
    in upload order, into [(user_id, bundle)] downloads in that order;
    baseline gives none but still drains the uploads."""
    row = ROUNDS[tag]
    if row is None:
        deque(uploads, maxlen=0)  # drains them, keeping none
        return []
    return row[0](uploads)
