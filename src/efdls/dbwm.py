"""Server-side weight matching.

Every federated epoch the server collects one hidden-layer bundle per
connected user, computes all pairwise squared L2 distances over the learnable
parameters, gives each user the index of its nearest other user (lowest index
wins ties), and dispatches a copy of that partner's bundle back. Matching is
not forced symmetric and many users may share one partner.

Distances come from a Gram screen followed by an exact recheck:

- **Gram screen.** G = B Bᵀ over the n connected bundles, accumulated in
  float64 one column chunk of one learnable array at a time, so the extra
  memory is one n x ``GRAM_CHUNK`` float64 block (4 MiB for 64 users) rather
  than an n x P stack. The upper triangle is mirrored, so the matrix is
  exactly symmetric. Each approximate distance is Gᵢᵢ + Gⱼⱼ − 2Gᵢⱼ.
- **Error bound.** A float64 sum of P products is off by at most γ_P times
  the sum of their magnitudes (γ_P ≈ P·ε/2), and by Cauchy–Schwarz that sum is
  at most (Gᵢᵢ + Gⱼⱼ)/2. The screen's distance is thus within about
  P·ε·(Gᵢᵢ + Gⱼⱼ) of the true one, and ``bundle_distance`` is within about as
  much again. ``4·(P + 4)·ε·(Gᵢᵢ + Gⱼⱼ)`` bounds the gap between the two with
  room for the handful of roundings outside the sums.
- **Exact recheck.** In each row, every entry whose lower bound is at or
  below the row's smallest upper bound could be the row's minimum; it is
  recomputed with ``bundle_distance`` (the same call, on the same operand
  order, that an all-pairs loop makes) and mirrored. Every other entry
  exceeds the rechecked minimum by construction, so each row's minimum and
  all entries tied with it hold exactly the loop's values, and ``np.argmin``
  picks the loop's partner, lowest index first. Unselected entries keep the
  screen's value, which agrees with the loop's to about P·ε relative to the
  bundles' squared norms. Non-finite screen values fail every comparison and
  are rechecked too.

Each row rechecks at least its own minimum, so a round costs about n exact
distances instead of n(n−1)/2: 53 of 2,016 pairs in each 64-user round of the
`match_many` benchmark. Rows whose candidates lie within the bound of one
another recheck more; if every bundle were identical the recheck would cost
what the loop did.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .extractor import WeightBundle
from .nncore import ShapeError


class InsufficientUsersError(ValueError):
    """Matching needs at least two uploaded bundles; with one, no partner exists."""


@dataclass
class WeightTable:
    """Uploads of one epoch: ordered (user_id, bundle) pairs. Rebuilt from
    scratch every epoch."""

    entries: list
    epoch: int = 0

    def __len__(self) -> int:
        return len(self.entries)

    def user_ids(self) -> list:
        return [uid for uid, _ in self.entries]

    def bundles(self) -> list:
        return [b for _, b in self.entries]


@dataclass
class DistanceMatrix:
    """Symmetric pairwise squared distances; the diagonal is undefined and
    stored as NaN."""

    values: np.ndarray


@dataclass
class MatchAssignment:
    """ids[i] is the table index of user i's partner (never i itself)."""

    ids: list


def bundle_distance(a: WeightBundle, b: WeightBundle) -> float:
    """Squared L2 distance over learnable parameters only; running statistics
    are carried in bundles but never measured. Accumulates in float64."""
    if not a.same_shapes(b):
        raise ShapeError("cannot measure distance between bundles of different shapes")
    total = 0.0
    for key, av in a.learnable_items():
        diff = av.astype(np.float64, copy=False) - b.arrays[key].astype(np.float64, copy=False)
        total += float(np.sum(diff * diff))
    return total


GRAM_CHUNK = 8192


def _gram_matrix(bundles: list) -> np.ndarray:
    """Exactly symmetric float64 Gram matrix of the bundles' learnable
    parameters."""
    n = len(bundles)
    gram = np.zeros((n, n))
    for key, arr in bundles[0].learnable_items():
        flats = [b.arrays[key].reshape(-1) for b in bundles]
        for start in range(0, arr.size, GRAM_CHUNK):
            block = np.stack([f[start:start + GRAM_CHUNK] for f in flats], dtype=np.float64)
            gram += block @ block.T
    return np.triu(gram) + np.triu(gram, 1).T


def pairwise_distances(table: WeightTable) -> DistanceMatrix:
    """All-pairs distances: a Gram screen, then an exact ``bundle_distance``
    for every entry that could be its row's minimum (see the module notes)."""
    n = len(table)
    if n < 2:
        raise InsufficientUsersError(
            f"pairwise matching needs at least 2 uploaded bundles, got {n}"
        )
    bundles = table.bundles()
    for i, b in enumerate(bundles[1:], start=1):
        if not bundles[0].same_shapes(b):
            raise ShapeError(
                f"cannot measure distance between bundles of different shapes "
                f"(table entries 0 and {i})"
            )
    gram = _gram_matrix(bundles)
    diag = np.diag(gram)
    norms = diag[:, None] + diag[None, :]
    values = norms - 2.0 * gram
    np.fill_diagonal(values, np.nan)
    p = bundles[0].num_learnable_params()
    slack = (4 * (p + 4) * np.finfo(np.float64).eps) * norms
    upper = values + slack
    np.fill_diagonal(upper, np.inf)
    # negated so NaN (non-finite bundles) counts as a possible minimum
    maybe_min = ~(values - slack > upper.min(axis=1, keepdims=True))
    for i, j in zip(*np.nonzero(np.triu(maybe_min | maybe_min.T, 1))):
        values[i, j] = values[j, i] = bundle_distance(bundles[i], bundles[j])
    return DistanceMatrix(values)


def match_partners(d: DistanceMatrix) -> MatchAssignment:
    """Row-wise argmin over the off-diagonal entries; ties break to the
    lowest index."""
    values = d.values.copy()
    if values.shape[0] < 2:
        raise InsufficientUsersError("matching needs at least 2 users")
    np.fill_diagonal(values, np.inf)
    return MatchAssignment(np.argmin(values, axis=1).tolist())


def dispatch_matched(table: WeightTable, assignment: MatchAssignment) -> list:
    """Per user, an independent copy of the partner's bundle:
    returns [(user_id, partner_bundle_copy), ...] in table order."""
    if len(assignment.ids) != len(table):
        raise ValueError(
            f"assignment covers {len(assignment.ids)} users, table has {len(table)}"
        )
    out = []
    bundles = table.bundles()
    for i, (uid, _) in enumerate(table.entries):
        j = assignment.ids[i]
        out.append((uid, bundles[j].copy(epoch_tag=table.epoch)))
    return out


def match_table(table: WeightTable) -> list:
    """Full pipeline: distances -> argmin -> dispatched copies."""
    return dispatch_matched(table, match_partners(pairwise_distances(table)))
