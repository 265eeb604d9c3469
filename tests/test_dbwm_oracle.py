"""The Gram-screened distance matrix against the all-pairs loop it replaced.

``loop_pairwise_distances`` is that loop, kept as the oracle: one
``bundle_distance`` per unordered pair, mirrored. The screened matrix must
pick the same partner in every row, hold bit-identical values at the picked
entries, stay exactly symmetric with a NaN diagonal, and keep every other
entry within the screen's error bound.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_bundle
from efdls import dbwm, extractor
from efdls.dbwm import bundle_distance, match_partners, pairwise_distances
from efdls.extractor import WeightBundle
from efdls.nncore import ShapeError

EPS = np.finfo(np.float64).eps


def loop_pairwise_distances(bundles: list) -> np.ndarray:
    """All-pairs distances; each unordered pair computed once and mirrored."""
    n = len(bundles)
    values = np.full((n, n), np.nan)
    for i in range(n):
        for j in range(i + 1, n):
            d = bundle_distance(bundles[i], bundles[j])
            values[i, j] = d
            values[j, i] = d
    return values


def loop_argmin(values: np.ndarray) -> list:
    """Each row's nearest other index, lowest index first on ties."""
    n = values.shape[0]
    return [min((j for j in range(n) if j != i), key=lambda j: (values[i, j], j))
            for i in range(n)]


def nudged(bundle: WeightBundle, key: str, index: int, shift: float = 0.0,
           ulps: int = 0) -> WeightBundle:
    """Copy of ``bundle`` with one entry moved by ``shift``, then by ``ulps``
    units in the last place."""
    out = bundle.copy()
    flat = out.arrays[key].reshape(-1)
    flat[index] += shift
    for _ in range(abs(ulps)):
        flat[index] = np.nextafter(flat[index], np.inf if ulps > 0 else -np.inf)
    return out


def squared_norm(bundle: WeightBundle) -> float:
    return sum(float(np.sum(v.astype(np.float64) ** 2)) for _, v in bundle.learnable_items())


def assert_matches_loop(bundles: list) -> tuple:
    """Check the screened matrix against the oracle; returns both."""
    n = len(bundles)
    got = pairwise_distances(bundles)
    want = loop_pairwise_distances(bundles)

    off = ~np.eye(n, dtype=bool)
    assert np.isnan(np.diag(got)).all()
    assert not np.isnan(got[off]).any()
    assert np.array_equal(got, got.T, equal_nan=True)

    ids = match_partners(got)
    assert ids == loop_argmin(want)
    rows = np.arange(n)
    assert np.array_equal(got[rows, ids].view(np.int64), want[rows, ids].view(np.int64))

    p = bundles[0].num_learnable_params()
    norms = np.array([squared_norm(b) for b in bundles])
    bound = 4 * (p + 4) * EPS * (norms[:, None] + norms[None, :])
    assert (np.abs(got - want)[off] <= bound[off]).all()
    return got, want


@st.composite
def near_tie_bundles(draw):
    """Mini bundles with a planted near-tie plus random extras.

    Bundles 1 and 2 copy bundle 0 with one entry shifted by the same amount,
    then one of them moved by a few ulps, so row 0's two candidates differ by
    far less than the Gram screen can resolve. Extras are fresh bundles, exact
    duplicates or ulp-perturbed near-duplicates of earlier ones. The order is
    shuffled so ties land at every index position."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    base = random_bundle(rng)
    keys = [k for k, _ in base.learnable_items()]

    def entry():
        key = draw(st.sampled_from(keys))
        return key, draw(st.integers(0, base.arrays[key].size - 1))

    shift = draw(st.sampled_from([1.0, 1e-3, 1e-6]))
    bundles = [base,
               nudged(base, *entry(), shift=shift),
               nudged(base, *entry(), shift=shift, ulps=draw(st.integers(-3, 3)))]
    for _ in range(draw(st.integers(0, 4))):
        src = bundles[draw(st.integers(0, len(bundles) - 1))]
        kind = draw(st.sampled_from(["fresh", "duplicate", "near_duplicate"]))
        if kind == "fresh":
            bundles.append(random_bundle(rng))
        elif kind == "duplicate":
            bundles.append(src.copy())
        else:
            bundles.append(nudged(src, *entry(), ulps=draw(st.integers(1, 4))))
    return draw(st.permutations(bundles))


class TestAgainstLoopOracle:
    @given(bundles=near_tie_bundles())
    @settings(max_examples=60, deadline=None)
    def test_near_ties_and_duplicates_match_loop(self, bundles):
        assert_matches_loop(bundles)

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 12),
           copies=st.integers(0, 4))
    @settings(max_examples=40, deadline=None)
    def test_exact_duplicates_match_loop(self, seed, n, copies):
        rng = np.random.default_rng(seed)
        bundles = [random_bundle(rng) for _ in range(n)]
        for _ in range(copies):
            src, dst = rng.integers(0, n, size=2)
            bundles[dst] = bundles[src].copy()
        got, want = assert_matches_loop(bundles)
        # a duplicate's partner sits at exactly zero
        assert np.array_equal(got == 0.0, want == 0.0)

    def test_float32_bundles_match_loop(self):
        rng = np.random.default_rng(20)
        base = random_bundle(rng)
        bundles = [base, nudged(base, "conv2.kernel", 5, shift=1e-3),
                   nudged(base, "dense.bias", 1, shift=1e-3, ulps=1), random_bundle(rng)]
        assert_matches_loop([WeightBundle({k: v.astype(np.float32) for k, v in b.arrays.items()})
                             for b in bundles])

    def test_paper_width_planted_near_tie(self, monkeypatch):
        base = extractor.extract_hidden_weights(extractor.FeatureExtractor(num_classes=2, seed=0))
        assert base.num_learnable_params() == 281_344
        # users 1..7 move the same entry of user 0 by one step plus 7..1
        # ulps: row 0's true nearest is the last user, all seven sit far
        # inside the screen's resolution of one another, and each of them is
        # nearer to the others than to user 0, so only row 0 can ask for the
        # (0, k) rechecks
        bundles = [base] + [nudged(base, "conv2.kernel", 1000, shift=3e-3, ulps=8 - k)
                            for k in range(1, 8)]
        position = {id(b): i for i, b in enumerate(bundles)}
        rechecked = set()

        def recording(a, b):
            rechecked.add((position[id(a)], position[id(b)]))
            return bundle_distance(a, b)

        monkeypatch.setattr(dbwm, "bundle_distance", recording)
        _, want = assert_matches_loop(bundles)
        resolution = 4 * base.num_learnable_params() * EPS * 2 * squared_norm(base)
        assert np.nanmax(want[0]) - np.nanmin(want[0]) < resolution
        assert loop_argmin(want)[0] == 7
        assert {(0, k) for k in range(1, 8)} <= rechecked


class TestScreenCost:
    def test_well_separated_rows_recheck_only_their_minimum(self, monkeypatch):
        calls = []

        def counting(a, b):
            calls.append(1)
            return bundle_distance(a, b)

        monkeypatch.setattr(dbwm, "bundle_distance", counting)
        rng = np.random.default_rng(21)
        n = 16
        bundles = [random_bundle(rng) for _ in range(n)]
        pairwise_distances(bundles)
        assert 1 <= len(calls) <= n

    def test_shape_mismatch_raises_before_any_distance(self, monkeypatch):
        def forbidden(a, b):
            raise AssertionError("distance measured before the shape check")

        monkeypatch.setattr(dbwm, "bundle_distance", forbidden)
        rng = np.random.default_rng(22)
        bundles = [random_bundle(rng) for _ in range(3)]
        bundles.append(WeightBundle(arrays={"dense.weight": np.zeros((2, 1))}))
        with pytest.raises(ShapeError):
            pairwise_distances(bundles)
