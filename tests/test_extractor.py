import re

import numpy as np
import pytest

from conftest import MINI_BLOCKS, MINI_HIDDEN, mini_model
from efdls import extractor, fbst, nncore
from efdls.extractor import (
    BUNDLE_KEYS, FeatureExtractor, IncompatibleBundleError, extract_hidden_weights,
    load_hidden_weights,
)


class TestForward:
    def test_probs_are_distributions(self):
        m = mini_model(num_classes=4, seed=1)
        trace = m.forward(np.random.default_rng(0).standard_normal((1, 1, 19)))
        np.testing.assert_allclose(trace.probs.sum(axis=1), 1.0, atol=1e-6)
        assert (trace.probs >= 0).all()

    def test_zero_input_uniform_probs(self):
        # all-zero input and zero classifier bias: the classifier sees the
        # same hidden vector for symmetric reasons, so logits are equal per row
        m = mini_model(num_classes=5, seed=2)
        m.classifier.bias[:] = 0.0
        m.classifier.weight[:] = 0.0
        trace = m.forward(np.zeros((2, 1, 10)))
        np.testing.assert_allclose(trace.probs, 0.2, atol=1e-12)

    def test_fixed_seed_fixed_input_bitwise_identical(self):
        x = np.random.default_rng(3).standard_normal((2, 1, 15))
        t1 = mini_model(seed=42).forward(x, training=True)
        t2 = mini_model(seed=42).forward(x, training=True)
        for field in ("o1", "o2", "o3", "o4", "logits", "probs"):
            assert np.array_equal(getattr(t1, field), getattr(t2, field))

    def test_trace_shapes(self):
        m = mini_model(num_classes=3, seed=4)
        trace = m.forward(np.zeros((2, 1, 12)))
        assert trace.o1.shape == (2, MINI_BLOCKS[0][1], 12)
        assert trace.o2.shape == (2, MINI_BLOCKS[1][1], 12)
        assert trace.o3.shape == (2, MINI_BLOCKS[2][1], 12)
        assert trace.o4.shape == (2, MINI_HIDDEN)
        assert trace.logits.shape == (2, 3)

    def test_bad_input_shape(self):
        with pytest.raises(nncore.ShapeError):
            mini_model().forward(np.zeros((2, 2, 12)))

    @pytest.mark.parametrize("shape", [(2, 12), (2, 1, 0)])
    def test_input_of_another_rank_or_empty_length_rejected(self, shape):
        with pytest.raises(nncore.ShapeError):
            mini_model().forward(np.zeros(shape))

    @pytest.mark.parametrize("blocks,hidden_dim,message", [
        (((3, 4), (3, 4)), 4, "blocks must hold 3"),
        (((3, 4), (3, 4), (3, 4), (3, 4)), 4, "blocks must hold 3"),
        (((3, 4), (2, 4), (3, 4)), 4, "odd kernel width >= 1 and >= 1 channels, got [2, 4]"),
        (((3, 4), (-1, 4), (3, 4)), 4, "odd kernel width >= 1 and >= 1 channels, got [-1, 4]"),
        (((3, 4), (3, 0), (3, 4)), 4, "odd kernel width >= 1 and >= 1 channels, got [3, 0]"),
        (((3, 4), (3, 4), (3, 4)), 0, "hidden_dim must be >= 1, got 0"),
    ])
    def test_unbuildable_layout_rejected(self, blocks, hidden_dim, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            FeatureExtractor(num_classes=2, blocks=blocks, hidden_dim=hidden_dim)

    def test_nonfinite_activation_names_block(self):
        m = mini_model(seed=5)
        m.convs[1].kernel[:] = 1e308
        x = np.random.default_rng(1).standard_normal((1, 1, 8))
        with pytest.raises(nncore.NumericError, match="block 2"):
            m.forward(x, training=True)


class TestWeightBundles:
    def test_extract_is_deep_copy(self):
        m = mini_model(seed=6)
        bundle = extract_hidden_weights(m)
        before = {k: v.copy() for k, v in bundle.arrays.items()}
        m.convs[0].kernel += 1.0
        m.hidden.weight += 1.0
        for k in bundle.arrays:
            assert np.array_equal(bundle.arrays[k], before[k])

    def test_extract_twice_equal(self):
        m = mini_model(seed=7)
        b1, b2 = extract_hidden_weights(m), extract_hidden_weights(m)
        for k in b1.arrays:
            assert np.array_equal(b1.arrays[k], b2.arrays[k])

    def test_parameter_count_matches_hand_count(self):
        # mini arch: conv1 3*1*3+3, conv2 4*3*3+4, conv3 3*4*3+3, three BN
        # pairs (3+3, 4+4, 3+3), dense 3*3+3
        expected = (9 + 3) + (36 + 4) + (36 + 3) + 6 + 8 + 6 + (9 + 3)
        bundle = extract_hidden_weights(mini_model(seed=8))
        assert bundle.num_learnable_params() == expected

    def test_default_architecture_parameter_count(self):
        # (9,128)/(5,256)/(3,128) conv stack + 128-wide dense:
        # 128*1*9+128 + 2*128 + 256*128*5+256 + 2*256 + 128*256*3+128 + 2*128
        # + 128*128+128 = 281344
        bundle = extract_hidden_weights(FeatureExtractor(num_classes=2, seed=0))
        assert bundle.num_learnable_params() == 281344

    def test_bundle_key_order_is_canonical(self):
        bundle = extract_hidden_weights(mini_model(seed=9))
        assert tuple(bundle.arrays.keys()) == BUNDLE_KEYS

    def test_load_extract_round_trip_bitwise(self):
        src = mini_model(seed=10)
        dst = mini_model(seed=11)
        load_hidden_weights(dst, extract_hidden_weights(src))
        for key, arr in extract_hidden_weights(dst).arrays.items():
            assert np.array_equal(arr, extract_hidden_weights(src).arrays[key])

    def test_load_into_different_num_classes(self):
        src = mini_model(num_classes=2, seed=12)
        dst = mini_model(num_classes=7, seed=13)
        cls_before = dst.classifier.weight.copy()
        load_hidden_weights(dst, extract_hidden_weights(src))
        assert np.array_equal(dst.classifier.weight, cls_before)

    def test_loaded_model_reproduces_hidden_trace(self):
        src = mini_model(num_classes=2, seed=14)
        dst = mini_model(num_classes=5, seed=15)
        load_hidden_weights(dst, extract_hidden_weights(src))
        x = np.random.default_rng(16).standard_normal((3, 1, 21))
        ts = src.forward(x, training=True, update_running=False)
        td = dst.forward(x, training=True, update_running=False)
        for field in ("o1", "o2", "o3", "o4"):
            assert np.array_equal(getattr(ts, field), getattr(td, field))

    def test_incompatible_bundle_rejected(self):
        wide = FeatureExtractor(num_classes=2, blocks=((3, 5), (3, 5), (3, 5)),
                                hidden_dim=5, seed=17)
        with pytest.raises(IncompatibleBundleError):
            load_hidden_weights(mini_model(), extract_hidden_weights(wide))

    def test_hidden_shapes_invariant_to_length_and_classes(self):
        a = FeatureExtractor(num_classes=2, seed=18)
        b = FeatureExtractor(num_classes=39, seed=19)
        ba, bb = extract_hidden_weights(a), extract_hidden_weights(b)
        assert {k: v.shape for k, v in ba.arrays.items()} == \
            {k: v.shape for k, v in bb.arrays.items()}
        # and the same models run on very different series lengths
        a.forward(np.zeros((1, 1, 24)))
        b.forward(np.zeros((1, 1, 1024)))


class TestBackwardComposition:
    def test_zero_upstream_gives_zero_grads(self):
        m = mini_model(seed=20)
        x = np.random.default_rng(21).standard_normal((2, 1, 9))
        trace, cache = m.forward(x, training=True, want_cache=True)
        grads = m.backward(cache, {"logits": np.zeros_like(trace.logits)})
        assert all(np.allclose(g, 0.0) for g in grads.values())

    def test_single_dense_layer_closed_form(self):
        # squared-error through one dense layer: grad_W = 2 (pred - y)^T x
        rng = np.random.default_rng(22)
        layer = nncore.DenseLayer(rng.standard_normal((2, 3)), np.zeros(2))
        x = rng.standard_normal((4, 3))
        y = rng.standard_normal((4, 2))
        pred = nncore.dense_forward(x, layer)
        _, g_w, _ = nncore.dense_backward(2.0 * (pred - y), layer, x)
        np.testing.assert_allclose(g_w, 2.0 * (pred - y).T @ x, atol=1e-12)

    def test_backward_without_forward_raises(self):
        with pytest.raises(nncore.GradientStateError):
            mini_model().backward(None, {})

    def test_unknown_injection_point_rejected(self):
        m = mini_model(seed=23)
        _, cache = m.forward(np.zeros((1, 1, 8)), training=True, want_cache=True)
        with pytest.raises(ValueError, match="injection"):
            m.backward(cache, {"nonsense": np.zeros(1)})

    def test_full_extractor_gradcheck(self):
        rng = np.random.default_rng(24)
        m = mini_model(num_classes=3, seed=25)
        x = rng.standard_normal((3, 1, 14))
        labels = rng.integers(0, 3, size=3)
        err = nncore.finite_diff_gradcheck(m, x, fbst.SupervisedLoss(labels), epsilon=1e-5)
        assert err < 1e-4

    def test_inference_mode_backward_matches_finite_differences(self):
        # frozen-statistics path: parameters still get exact gradients
        m = mini_model(num_classes=3, seed=50)
        rng = np.random.default_rng(51)
        m.forward(rng.standard_normal((16, 1, 14)), training=True)  # shape the stats
        x = rng.standard_normal((3, 1, 14))
        labels = rng.integers(0, 3, size=3)
        trace, cache = m.forward(x, training=False, want_cache=True)
        analytic = m.backward(cache, {"logits": fbst.sup_loss_logit_grad(trace.probs, labels)})
        worst = 0.0
        for name, p in m.parameters().items():
            flat = p.reshape(-1)
            ga = analytic[name].reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + 1e-6
                plus = fbst.sup_loss(m.forward(x, training=False).probs, labels)
                flat[i] = orig - 1e-6
                minus = fbst.sup_loss(m.forward(x, training=False).probs, labels)
                flat[i] = orig
                fd = (plus - minus) / 2e-6
                worst = max(worst, abs(fd - ga[i]) / max(abs(fd), abs(ga[i]), 1e-5))
        assert worst < 1e-4


class TestPredict:
    def test_confident_row(self):
        m = mini_model(num_classes=2, seed=26)
        m.classifier.weight[:] = 0.0
        m.classifier.bias[:] = np.array([2.0, 0.0])
        preds = m.predict(np.random.default_rng(27).standard_normal((3, 1, 8)))
        assert np.array_equal(preds, [0, 0, 0])

    def test_tie_breaks_to_lowest_index(self):
        m = mini_model(num_classes=2, seed=28)
        m.classifier.weight[:] = 0.0
        m.classifier.bias[:] = 0.0  # exact 0.5 / 0.5 everywhere
        preds = m.predict(np.random.default_rng(29).standard_normal((4, 1, 8)))
        assert np.array_equal(preds, [0, 0, 0, 0])

    def test_matches_argmax_oracle(self):
        m = mini_model(num_classes=4, seed=30)
        x = np.random.default_rng(31).standard_normal((5, 1, 12))
        probs = m.forward(x).probs
        expected = [int(max(range(4), key=lambda c: probs[b, c])) for b in range(5)]
        assert np.array_equal(m.predict(x), expected)


class TestHiddenArrays:
    def test_keys_are_bundle_keys_in_order(self):
        assert tuple(extractor.hidden_arrays(mini_model(seed=50))) == BUNDLE_KEYS

    def test_writes_through_views_change_the_model(self):
        m = mini_model(seed=51)
        arrays = extractor.hidden_arrays(m)
        arrays["conv2.kernel"][0, 0, 0] = 7.0
        arrays["bn3.running_var"][1] = 5.0
        arrays["dense.bias"][:] = -1.0
        assert m.convs[1].kernel[0, 0, 0] == 7.0
        assert m.bns[2].running_var[1] == 5.0
        assert (m.hidden.bias == -1.0).all()

    def test_sees_running_stats_rebound_by_training(self):
        m = mini_model(seed=52)
        before = extractor.hidden_arrays(m)["bn1.running_mean"]
        m.forward(np.random.default_rng(53).standard_normal((4, 1, 9)), training=True)
        after = extractor.hidden_arrays(m)["bn1.running_mean"]
        assert after is m.bns[0].running_mean
        assert after is not before

    def test_parameters_are_learnable_bundle_keys_then_classifier(self):
        m = mini_model(seed=54)
        expected = [k for k in BUNDLE_KEYS if extractor.is_learnable_key(k)]
        assert list(m.parameters()) == expected + ["classifier.weight", "classifier.bias"]
        hidden = extractor.hidden_arrays(m)
        for key in expected:
            assert m.parameters()[key] is hidden[key]
