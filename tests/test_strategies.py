import weakref

import numpy as np
import pytest

from conftest import random_bundle
from efdls import dbwm, strategies
from efdls.extractor import IncompatibleBundleError, WeightBundle
from efdls.federation import FederationConfig, encode_weight_message
from efdls.strategies import ROUNDS, STRATEGY_TAGS, apply_round, fedavg_aggregate


def scalar_bundle(value: float) -> WeightBundle:
    return WeightBundle(arrays={"dense.weight": np.array([[float(value)]])})


def typed_bundle(rng: np.random.Generator, dtype) -> WeightBundle:
    return WeightBundle(arrays={k: v.astype(dtype) for k, v in random_bundle(rng).arrays.items()})


def stacked_mean(bundles: list) -> dict:
    """The mean as one reduction over the stacked float64 bundles."""
    return {key: np.stack([b.arrays[key].astype(np.float64) for b in bundles]).mean(axis=0)
            for key in bundles[0].arrays}


BUNDLE_COUNTS = [1, 2, 7, 8, 16, 33]


class TestStrategyKind:
    def test_known_tags(self):
        assert STRATEGY_TAGS == ("baseline", "fedavg", "fkd", "efdls")
        assert ROUNDS["baseline"] is None
        assert ROUNDS["efdls"] is not None

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            FederationConfig(n_tot=2, datasets=[("s", "synthetic")], strategy="fedprox")


class TestFedavgAggregate:
    def test_single_bundle_is_itself(self):
        rng = np.random.default_rng(0)
        b = random_bundle(rng)
        mean = fedavg_aggregate([b])
        for k in b.arrays:
            np.testing.assert_array_equal(mean.arrays[k], b.arrays[k])

    def test_scalar_pair(self):
        mean = fedavg_aggregate([scalar_bundle(1), scalar_bundle(3)])
        assert mean.arrays["dense.weight"][0, 0] == 2.0

    def test_matches_elementwise_mean_oracle(self):
        rng = np.random.default_rng(1)
        bundles = [random_bundle(rng) for _ in range(5)]
        mean = fedavg_aggregate(bundles)
        for k in bundles[0].arrays:
            expected = sum(b.arrays[k] for b in bundles) / 5.0
            np.testing.assert_allclose(mean.arrays[k], expected, atol=1e-7)

    @pytest.mark.parametrize("stream", [False, True])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("count", BUNDLE_COUNTS)
    def test_running_sum_is_the_stacked_mean_bit_for_bit(self, count, dtype, stream):
        rng = np.random.default_rng(count)
        bundles = [typed_bundle(rng, dtype) for _ in range(count)]
        assert all(arr.size > 1 for arr in bundles[0].arrays.values())
        before = [{k: v.copy() for k, v in b.arrays.items()} for b in bundles]
        mean = fedavg_aggregate(iter(bundles) if stream else bundles)
        expected = stacked_mean(bundles)
        assert mean.arrays.keys() == expected.keys()
        for key, arr in expected.items():
            assert mean.arrays[key].dtype == np.float64
            assert np.array_equal(mean.arrays[key], arr), key
        # the sum never aliases an input, not even a lone float64 bundle
        for bundle, arrays in zip(bundles, before):
            for key, arr in arrays.items():
                assert bundle.arrays[key].dtype == dtype
                assert np.array_equal(bundle.arrays[key], arr), key
                assert not np.shares_memory(bundle.arrays[key], mean.arrays[key])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("count", BUNDLE_COUNTS)
    def test_one_element_array_within_its_ulp_bound(self, count, dtype):
        """From 8 rows on, numpy sums a one-element array's stack pairwise,
        so the running sum may differ from it in the last bits. Each sum errs
        by under (count - 1) * count half-ulps of the largest magnitude, so
        the two means differ by under 2 * count ulps of it."""
        rng = np.random.default_rng(100 + count)
        values = rng.standard_normal(count) * 10.0 ** rng.uniform(-3, 3, count)
        bundles = [WeightBundle(arrays={"dense.bias": np.array([v], dtype=dtype)})
                   for v in values]
        mean = fedavg_aggregate(bundles).arrays["dense.bias"]
        expected = stacked_mean(bundles)["dense.bias"]
        bound = 2 * count * np.spacing(np.abs(values.astype(dtype)).max().astype(np.float64))
        assert abs(mean[0] - expected[0]) <= bound

    def test_includes_running_stats(self):
        rng = np.random.default_rng(2)
        bundles = [random_bundle(rng) for _ in range(3)]
        mean = fedavg_aggregate(bundles)
        key = "bn1.running_mean"
        expected = sum(b.arrays[key] for b in bundles) / 3.0
        np.testing.assert_allclose(mean.arrays[key], expected, atol=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        bundles = [random_bundle(rng) for _ in range(4)]
        m1 = fedavg_aggregate(bundles)
        m2 = fedavg_aggregate(bundles[::-1])
        for k in m1.arrays:
            np.testing.assert_allclose(m1.arrays[k], m2.arrays[k], atol=1e-12)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            fedavg_aggregate([])

    @pytest.mark.parametrize("lacking", [0, 1])
    def test_bundle_missing_a_block_rejected(self, lacking):
        rng = np.random.default_rng(5)
        bundles = [random_bundle(rng) for _ in range(2)]
        del bundles[lacking].arrays["conv2.bias"]
        with pytest.raises(IncompatibleBundleError, match=r"conv2\.bias"):
            fedavg_aggregate(bundles)

    def test_reshaped_block_rejected(self):
        rng = np.random.default_rng(6)
        bundles = [random_bundle(rng) for _ in range(3)]
        bundles[2].arrays["dense.weight"] = bundles[2].arrays["dense.weight"].reshape(1, -1)
        with pytest.raises(IncompatibleBundleError, match="'dense.weight' has shape"):
            fedavg_aggregate(bundles)


class TestApplyRound:
    def test_baseline_produces_no_instructions(self):
        rng = np.random.default_rng(4)
        uploads = list(enumerate([random_bundle(rng) for _ in range(3)]))
        assert apply_round("baseline", uploads) == []

    def test_fkd_identical_bundles_mean_is_that_bundle(self):
        rng = np.random.default_rng(5)
        b = random_bundle(rng)
        uploads = list(enumerate([b.copy(), b.copy(), b.copy()]))
        downloads = apply_round("fkd", uploads)
        assert len(downloads) == 3
        assert ROUNDS["fkd"][1] == "load_teacher"
        for _, bundle in downloads:
            for k in b.arrays:
                np.testing.assert_allclose(bundle.arrays[k], b.arrays[k], atol=1e-12)

    def test_fedavg_targets_students_with_identical_mean(self):
        rng = np.random.default_rng(6)
        uploads = list(enumerate([random_bundle(rng) for _ in range(4)]))
        downloads = apply_round("fedavg", uploads)
        assert ROUNDS["fedavg"][1] == "load_student"
        ref = downloads[0][1]
        for _, bundle in downloads[1:]:
            for k in ref.arrays:
                assert np.array_equal(bundle.arrays[k], ref.arrays[k])

    def test_efdls_two_users_matches_dbwm_swap(self):
        rng = np.random.default_rng(7)
        b0, b1 = random_bundle(rng), random_bundle(rng)
        uploads = list(enumerate([b0, b1]))
        downloads = dict(apply_round("efdls", uploads))
        expected = dict(dbwm.match_table(uploads))
        assert set(downloads) == {0, 1}
        assert ROUNDS["efdls"][1] == "load_teacher"
        for uid, bundle in downloads.items():
            for k in bundle.arrays:
                assert np.array_equal(bundle.arrays[k], expected[uid].arrays[k])

    def test_efdls_user_i_receives_table_entry_of_its_partner(self):
        rng = np.random.default_rng(8)
        bundles = [random_bundle(rng) for _ in range(5)]
        ids = dbwm.match_partners(dbwm.pairwise_distances(bundles))
        for uid, bundle in apply_round("efdls", list(enumerate(bundles))):
            partner = ids[uid]
            for k in bundle.arrays:
                assert np.array_equal(bundle.arrays[k], bundles[partner].arrays[k])

    def test_efdls_single_user_round_is_skipped(self):
        rng = np.random.default_rng(9)
        assert apply_round("efdls", [(0, random_bundle(rng))]) == []

    @pytest.mark.parametrize("tag", ["fedavg", "fkd"])
    def test_every_user_is_handed_the_one_mean(self, tag, monkeypatch):
        rng = np.random.default_rng(10)
        uploads = list(enumerate([random_bundle(rng) for _ in range(3)]))
        means = []

        def aggregate(bundles):
            means.append(fedavg_aggregate(bundles))
            return means[-1]

        monkeypatch.setattr(strategies, "fedavg_aggregate", aggregate)
        downloads = apply_round(tag, uploads)
        assert [uid for uid, _ in downloads] == [0, 1, 2]
        assert len(means) == 1
        assert all(bundle is means[0] for _, bundle in downloads)

    @pytest.mark.parametrize("tag", ["fedavg", "fkd"])
    def test_a_float32_round_hands_everyone_one_float32_mean(self, tag):
        rng = np.random.default_rng(13)
        uploads = [(uid, WeightBundle({k: v.astype(np.float32)
                                       for k, v in random_bundle(rng).arrays.items()}))
                   for uid in range(3)]
        mean = fedavg_aggregate(bundle for _, bundle in uploads)
        downloads = apply_round(tag, uploads)
        shared = downloads[0][1]
        assert all(bundle is shared for _, bundle in downloads)
        for key, arr in shared.arrays.items():
            assert mean.arrays[key].dtype == np.float64
            assert arr.dtype == np.float32
            assert arr.tobytes() == mean.arrays[key].astype(np.float32).tobytes(), key
        # the frame is the one the float64 mean encodes to
        assert bytes(encode_weight_message(shared, 2, 1)) == \
            bytes(encode_weight_message(mean, 2, 1))

    @pytest.mark.parametrize("tag,held", [("fedavg", False), ("fkd", False), ("efdls", True),
                                          ("baseline", False)])
    def test_uploads_are_consumed_once_and_held_only_by_matching(self, tag, held):
        rng = np.random.default_rng(12)
        refs = []

        def fresh():
            bundle = random_bundle(rng)
            refs.append(weakref.ref(bundle))
            return bundle

        def uploads():
            for uid in range(4):
                alive = [ref() is not None for ref in refs]
                assert alive == [held] * uid, (uid, alive)
                yield uid, fresh()

        stream = uploads()
        downloads = apply_round(tag, stream)
        assert len(refs) == 4
        assert next(stream, None) is None
        assert [uid for uid, _ in downloads] == ([] if tag == "baseline" else [0, 1, 2, 3])

    def test_efdls_hands_over_the_uploaded_bundles(self):
        rng = np.random.default_rng(11)
        bundles = [random_bundle(rng) for _ in range(5)]
        ids = dbwm.match_partners(dbwm.pairwise_distances(bundles))
        downloads = apply_round("efdls", list(enumerate(bundles)))
        assert [uid for uid, _ in downloads] == list(range(5))
        assert all(bundle is bundles[ids[uid]] for uid, bundle in downloads)
