import numpy as np
import pytest

from conftest import random_bundle
from efdls import dbwm
from efdls.dbwm import (
    InsufficientUsersError, bundle_distance,
    dispatch_matched, match_partners, pairwise_distances,
)
from efdls.extractor import FeatureExtractor, WeightBundle, borrow_hidden_weights
from efdls.nncore import ShapeError


def scalar_bundle(value: float) -> WeightBundle:
    return WeightBundle(arrays={"dense.weight": np.array([[float(value)]])})


def flat_l2_oracle(a: WeightBundle, b: WeightBundle) -> float:
    """Flatten everything learnable and take the squared norm of the diff."""
    av = np.concatenate([v.ravel() for _, v in a.learnable_items()])
    bv = np.concatenate([v.ravel() for _, v in b.learnable_items()])
    return float(np.linalg.norm(av - bv) ** 2)


def brute_force_matrix(bundles) -> np.ndarray:
    n = len(bundles)
    m = np.full((n, n), np.nan)
    for i in range(n):
        for j in range(n):
            if i != j:
                m[i, j] = flat_l2_oracle(bundles[i], bundles[j])
    return m


def exhaustive_argmin(matrix: np.ndarray) -> list:
    n = matrix.shape[0]
    out = []
    for i in range(n):
        best_j, best_d = None, None
        for j in range(n):
            if j == i:
                continue
            d = matrix[i, j]
            if best_d is None or d < best_d:
                best_j, best_d = j, d
        out.append(best_j)
    return out


def scalars(values) -> list:
    return [scalar_bundle(v) for v in values]


class TestBundleDistance:
    def test_self_distance_zero(self):
        rng = np.random.default_rng(0)
        b = random_bundle(rng)
        assert bundle_distance(b, b.copy()) == 0.0

    def test_scalar_pair(self):
        assert bundle_distance(scalar_bundle(3), scalar_bundle(5)) == pytest.approx(4.0)

    def test_matches_flattened_norm_oracle(self):
        rng = np.random.default_rng(1)
        a, b = random_bundle(rng), random_bundle(rng)
        assert bundle_distance(a, b) == pytest.approx(flat_l2_oracle(a, b), rel=1e-6)

    def test_running_stats_excluded(self):
        rng = np.random.default_rng(2)
        a = random_bundle(rng)
        b = a.copy()
        for key in b.arrays:
            if key.endswith(("running_mean", "running_var")):
                b.arrays[key][...] = rng.standard_normal(b.arrays[key].shape)
        assert bundle_distance(a, b) == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            bundle_distance(scalar_bundle(1), WeightBundle(arrays={"dense.weight": np.zeros((2, 1))}))

    def test_reordering_both_bundles_consistently_preserves_distance(self):
        rng = np.random.default_rng(3)
        a, b = random_bundle(rng), random_bundle(rng)
        perm = rng.permutation(a.arrays["dense.weight"].size)

        def permuted(bundle):
            out = bundle.copy()
            w = out.arrays["dense.weight"]
            out.arrays["dense.weight"] = w.ravel()[perm].reshape(w.shape)
            return out

        assert bundle_distance(permuted(a), permuted(b)) == pytest.approx(
            bundle_distance(a, b), rel=1e-12)

    def test_constant_shift_against_duplicates_adds_c2_times_count(self):
        # when every other bundle equals the pre-shift one, the cross term
        # vanishes and each distance grows by exactly c^2 * P
        rng = np.random.default_rng(4)
        base = random_bundle(rng)
        c = 0.37
        shifted = base.copy()
        for _, arr in shifted.learnable_items():
            arr += c
        p = base.num_learnable_params()
        expected = c * c * p
        scale = max(1.0, expected)
        for _ in range(3):
            other = base.copy()
            assert abs(bundle_distance(shifted, other) - bundle_distance(base, other)
                       - expected) <= 1e-6 * scale


def widened_expression_distance(a: WeightBundle, b: WeightBundle) -> float:
    """``bundle_distance`` as its plain expressions: each array widened to
    float64, then a fresh difference and a fresh product."""
    total = 0.0
    for key, av in a.learnable_items():
        diff = av.astype(np.float64, copy=False) - b.arrays[key].astype(np.float64, copy=False)
        total += float(np.sum(diff * diff))
    return total


@pytest.mark.parametrize("paper_width", [False, True], ids=["mini", "paper"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_one_pass_difference_equals_the_widened_expression_bit_for_bit(dtype, paper_width):
    # the difference is taken in float64 in one pass and squared in place:
    # each value is the widened expression's, summed in the same order
    if paper_width:
        a, b = (borrow_hidden_weights(FeatureExtractor(3, seed=s, dtype=dtype)) for s in (1, 2))
    else:
        rng = np.random.default_rng(7)
        a, b = (WeightBundle(arrays={k: v.astype(dtype) for k, v in random_bundle(rng).arrays.items()})
                for _ in range(2))
    for first, second in ((a, b), (b, a), (a, a)):
        assert bundle_distance(first, second) == widened_expression_distance(first, second)


class TestPairwiseDistances:
    def test_two_identical_bundles(self):
        rng = np.random.default_rng(5)
        b = random_bundle(rng)
        d = pairwise_distances([b, b.copy()])
        assert d[0, 1] == 0.0 and d[1, 0] == 0.0
        assert np.isnan(d[0, 0]) and np.isnan(d[1, 1])

    def test_scalar_example_matrix(self):
        d = pairwise_distances(scalars([0.0, 1.0, 10.0]))
        expected = np.array([[np.nan, 1.0, 100.0],
                             [1.0, np.nan, 81.0],
                             [100.0, 81.0, np.nan]])
        np.testing.assert_allclose(d, expected, equal_nan=True)

    def test_six_random_bundles_match_brute_force(self):
        rng = np.random.default_rng(6)
        bundles = [random_bundle(rng) for _ in range(6)]
        got = pairwise_distances(bundles)
        want = brute_force_matrix(bundles)
        np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
        mask = ~np.isnan(want)
        np.testing.assert_allclose(got[mask], want[mask], rtol=1e-12)

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(7)
        bundles = [random_bundle(rng) for _ in range(5)]
        d = pairwise_distances(bundles)
        for i in range(5):
            for j in range(i + 1, 5):
                assert d[i, j] == d[j, i]

    def test_single_user_is_insufficient(self):
        with pytest.raises(InsufficientUsersError):
            pairwise_distances(scalars([1.0]))


class TestMatchPartners:
    def test_two_users_mutual(self):
        ids = match_partners(pairwise_distances(scalars([2.0, 9.0])))
        assert ids == [1, 0]

    def test_scalar_example_assignment(self):
        ids = match_partners(pairwise_distances(scalars([0.0, 1.0, 10.0])))
        assert ids == [1, 0, 1]

    def test_never_self(self):
        rng = np.random.default_rng(8)
        for n in (2, 5, 9):
            bundles = [random_bundle(rng) for _ in range(n)]
            ids = match_partners(pairwise_distances(bundles))
            assert all(ids[i] != i for i in range(n))

    def test_matches_exhaustive_oracle_with_duplicate_ties(self):
        rng = np.random.default_rng(9)
        for trial in range(10):
            bundles = [random_bundle(rng) for _ in range(8)]
            bundles[3] = bundles[1].copy()  # duplicated pair forces ties
            bundles[6] = bundles[1].copy()
            d = pairwise_distances(bundles)
            got = match_partners(d)
            assert got == exhaustive_argmin(d)

    def test_tie_breaks_to_lowest_index(self):
        # users 1 and 2 both sit at distance 0 from user 0
        rng = np.random.default_rng(10)
        b = random_bundle(rng)
        ids = match_partners(pairwise_distances([b, b.copy(), b.copy()]))
        assert ids[0] == 1

    def test_certificate_of_optimality(self):
        rng = np.random.default_rng(11)
        for n in (2, 7, 16):
            bundles = [random_bundle(rng) for _ in range(n)]
            d = pairwise_distances(bundles)
            ids = match_partners(d)
            for i in range(n):
                for j in range(n):
                    if j != i:
                        assert d[i, ids[i]] <= d[i, j]


class TestDispatch:
    def test_two_users_swap(self):
        rng = np.random.default_rng(12)
        b0, b1 = random_bundle(rng), random_bundle(rng)
        out = dict(dbwm.match_table([(10, b0), (20, b1)]))
        assert np.array_equal(out[10].arrays["dense.weight"], b1.arrays["dense.weight"])
        assert np.array_equal(out[20].arrays["dense.weight"], b0.arrays["dense.weight"])

    def test_many_to_one_shares_the_partners_uploaded_bundle(self):
        uploaded = scalars([0.0, 1.0, 10.0])
        got = dict(dispatch_matched(list(enumerate(uploaded)), [1, 0, 1]))
        assert got[0].arrays["dense.weight"][0, 0] == 1.0
        assert got[2].arrays["dense.weight"][0, 0] == 1.0
        assert got[0] is uploaded[1] and got[2] is uploaded[1] and got[1] is uploaded[0]

    def test_inconsistent_assignment_rejected(self):
        with pytest.raises(ValueError):
            dispatch_matched(list(enumerate(scalars([1.0, 2.0]))), [1])

    def test_pipeline_is_pure_function_of_table(self):
        rng = np.random.default_rng(14)
        bundles = [random_bundle(rng) for _ in range(5)]
        uploads = list(enumerate(bundles))
        out1 = dbwm.match_table(uploads)
        out2 = dbwm.match_table(uploads)
        assert [uid for uid, _ in out1] == [uid for uid, _ in out2]
        for (_, a), (_, b) in zip(out1, out2):
            for k in a.arrays:
                assert np.array_equal(a.arrays[k], b.arrays[k])
