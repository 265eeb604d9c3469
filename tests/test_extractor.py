import re
import threading
import weakref

import numpy as np
import pytest

from conftest import MINI_BLOCKS, MINI_HIDDEN, mini_model, model_arrays
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

    def test_each_hidden_gradient_is_dead_once_its_block_backward_starts(self, monkeypatch):
        # the backward owns its output_grads: o1's and o2's gradients are
        # popped and dropped once added, before that block's ReLU backward;
        # o3's takes the pool gradient and is block 3's incoming gradient
        m = mini_model(num_classes=3, seed=30)
        rng = np.random.default_rng(31)
        trace, cache = m.forward(rng.standard_normal((4, 1, 10)), training=True, want_cache=True)
        fields = extractor.ForwardTrace.HIDDEN_FIELDS
        output_grads = {f: rng.standard_normal(getattr(trace, f).shape) for f in fields}
        output_grads["logits"] = rng.standard_normal(trace.logits.shape)
        refs = {f: weakref.ref(output_grads[f]) for f in fields}
        real = nncore.relu_backward
        alive = []

        def relu_backward(gout, out, **kwargs):
            alive.append([f for f in fields if refs[f]() is not None and refs[f]() is not gout])
            return real(gout, out, **kwargs)

        monkeypatch.setattr(nncore, "relu_backward", relu_backward)
        m.backward(cache, output_grads)
        assert alive == [["o1", "o2"], ["o1"], []]  # blocks 3, 2, 1
        assert list(output_grads) == ["logits"]

    @pytest.mark.parametrize("literal", [False, True])
    @pytest.mark.parametrize("distill", [False, True])
    def test_returns_exactly_the_parameter_keys_in_order(self, distill, literal):
        rng = np.random.default_rng(26)
        m = mini_model(num_classes=3, seed=27, bn_paper_literal=literal)
        x = rng.standard_normal((4, 1, 10))
        labels = rng.integers(0, 3, size=4)
        loss = fbst.SupervisedLoss(labels)
        if distill:
            teacher = mini_model(num_classes=3, seed=28, bn_paper_literal=literal)
            loss = fbst.DistillationLoss(teacher.forward(x, training=True), labels,
                                         epsilon=0.9)
        trace, cache = m.forward(x, training=True, want_cache=True)
        grads = m.backward(cache, loss.output_grads(trace))
        assert list(grads) == list(m.parameters())

    @pytest.mark.parametrize("literal", [False, True])
    @pytest.mark.parametrize("distill", [False, True])
    def test_full_extractor_gradcheck(self, distill, literal):
        rng = np.random.default_rng(24)
        m = mini_model(num_classes=3, seed=25, bn_paper_literal=literal)
        x = rng.standard_normal((3, 1, 14))
        labels = rng.integers(0, 3, size=3)
        loss = fbst.SupervisedLoss(labels)
        if distill:
            # an independently seeded teacher: every KD injection is non-zero
            teacher = mini_model(num_classes=3, seed=29, bn_paper_literal=literal)
            loss = fbst.DistillationLoss(teacher.forward(x, training=True), labels,
                                         epsilon=0.9)
        err = nncore.finite_diff_gradcheck(m, x, loss, epsilon=1e-5)
        assert err < 1e-4

    def test_literal_float32_step_on_a_constant_channel_has_finite_gradients(self):
        # one series of length 1: every batch-norm channel is constant, its
        # summed squared deviation 0, and the float32 step must stay finite
        m = mini_model(num_classes=3, seed=66, bn_paper_literal=True, dtype=np.float32)
        x = np.full((1, 1, 1), 0.7, dtype=np.float32)
        trace, cache = m.forward(x, training=True, want_cache=True)
        grads = m.backward(cache, fbst.SupervisedLoss(np.array([1])).output_grads(trace))
        assert all(np.isfinite(g).all() for g in grads.values())
        params = m.parameters()
        nncore.adam_step(params, grads, nncore.AdamState.for_params(params))
        assert all(np.isfinite(p).all() for p in params.values())

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


# Which of a student step's activations are alive as each backward op starts:
# o_i is block i's output and c_i the array its batch-norm cache holds (xhat,
# in either form). A ReLU gradient is written over its incoming gradient, so
# o_i dies with its ReLU backward, and a training-mode batch-norm input
# gradient over xhat, so xhat lives on as the gradient until the conv
# backward after it has run.
STANDARD_LIVENESS = [
    ("relu", "o1 o2 o3 c1 c2 c3"), ("bn", "o1 o2 c1 c2 c3"), ("conv", "o1 o2 c1 c2 c3"),
    ("relu", "o1 o2 c1 c2"), ("bn", "o1 c1 c2"), ("conv", "o1 c1 c2"),
    ("relu", "o1 c1"), ("bn", "c1"), ("conv", "c1"), ("end", ""),
]
# an inference-mode cache is read, not written: it dies with its op
FRESH_GRADIENT_LIVENESS = [
    ("relu", "o1 o2 o3 c1 c2 c3"), ("bn", "o1 o2 c1 c2 c3"), ("conv", "o1 o2 c1 c2"),
    ("relu", "o1 o2 c1 c2"), ("bn", "o1 c1 c2"), ("conv", "o1 c1"),
    ("relu", "o1 c1"), ("bn", "c1"), ("conv", ""), ("end", ""),
]


class LivenessRecorder:
    """Wraps the student forward and the backward ops, so that each thread's
    backward records which of its step's activations are alive as each op
    starts. ``backwards`` collects one record per backward, from any
    thread."""

    def __init__(self, monkeypatch):
        self.backwards = []
        self.local = threading.local()
        real_forward, real_backward = FeatureExtractor.forward, FeatureExtractor.backward
        recorder = self

        def forward(model, x, *args, **kwargs):
            result = real_forward(model, x, *args, **kwargs)
            if kwargs.get("want_cache"):
                trace, cache = result
                refs = {f"o{i}": weakref.ref(getattr(trace, f"o{i}")) for i in (1, 2, 3)}
                refs.update({f"c{i}": weakref.ref(bn_cache[1])
                             for i, bn_cache in enumerate(cache["bn"], start=1)})
                recorder.local.refs = refs
            return result

        def backward(model, cache, output_grads):
            self.local.seen = []
            grads = real_backward(model, cache, output_grads)
            self.record("end")
            self.backwards.append(self.local.seen)
            return grads

        monkeypatch.setattr(FeatureExtractor, "forward", forward)
        monkeypatch.setattr(FeatureExtractor, "backward", backward)
        for op, name in (("relu", "relu_backward"), ("bn", "batchnorm_backward"),
                         ("bn", "batchnorm_inference_backward"), ("conv", "conv1d_backward")):
            monkeypatch.setattr(nncore, name, self.recording(op, getattr(nncore, name)))

    def record(self, op):
        alive = [name for name, ref in self.local.refs.items() if ref() is not None]
        self.local.seen.append((op, " ".join(alive)))

    def recording(self, op, real):
        def wrapped(*args, **kwargs):
            self.record(op)
            return real(*args, **kwargs)
        return wrapped


class TestConsumedCache:
    """The backward consumes what its forward cached: each activation dies
    at its last reader, and nothing is read through the trace afterwards."""

    @pytest.mark.parametrize("training,literal,expected", [
        (True, False, STANDARD_LIVENESS),
        (True, True, STANDARD_LIVENESS),
        (False, False, FRESH_GRADIENT_LIVENESS),
    ], ids=["standard", "literal", "inference"])
    def test_each_activation_dies_at_its_last_reader(self, monkeypatch, training, literal,
                                                     expected):
        recorder = LivenessRecorder(monkeypatch)
        m = mini_model(num_classes=3, seed=60, bn_paper_literal=literal)
        rng = np.random.default_rng(61)
        trace, cache = m.forward(rng.standard_normal((4, 1, 10)), training=training,
                                 update_running=False, want_cache=True)
        labels = rng.integers(0, 3, size=4)
        m.backward(cache, fbst.SupervisedLoss(labels).output_grads(trace))
        assert recorder.backwards == [expected]
        assert all(getattr(trace, f) is None for f in extractor.ForwardTrace.HIDDEN_FIELDS)
        assert trace.probs is not None and trace.logits is not None

    @pytest.mark.parametrize("training,want_cache", [(True, True), (True, False),
                                                     (False, False)],
                             ids=["student", "teacher", "inference"])
    def test_each_block_output_is_written_over_its_conv_output(self, monkeypatch, training,
                                                                want_cache):
        # batch norm writes over the conv output it normalizes, and the
        # ReLU rectifies that in place
        conv_outs = []
        real = nncore.conv1d_forward

        def conv1d_forward(*args, **kwargs):
            conv_outs.append(real(*args, **kwargs))
            return conv_outs[-1]

        monkeypatch.setattr(nncore, "conv1d_forward", conv1d_forward)
        result = mini_model(num_classes=3, seed=64).forward(
            np.random.default_rng(65).standard_normal((4, 1, 10)), training=training,
            update_running=False, want_cache=want_cache)
        trace = result[0] if want_cache else result
        assert len(conv_outs) == 3
        assert all(out is z for out, z in zip((trace.o1, trace.o2, trace.o3), conv_outs))

    def test_a_cache_serves_one_backward(self):
        m = mini_model(num_classes=3, seed=62)
        trace, cache = m.forward(np.ones((2, 1, 8)), training=True, want_cache=True)
        grads = {"logits": np.zeros_like(trace.logits)}
        m.backward(cache, dict(grads))
        with pytest.raises(nncore.GradientStateError):
            m.backward(cache, dict(grads))

    @pytest.mark.parametrize("workers", [1, 3])
    def test_every_training_step_of_a_run_drops_each_activation_at_its_last_reader(
            self, monkeypatch, workers):
        from efdls.federation import Federation, FederationConfig

        recorder = LivenessRecorder(monkeypatch)
        config = FederationConfig(
            n_tot=3, datasets=[(f"w{i}", "synthetic") for i in range(3)], fles=2, seed=63,
            strategy="efdls", batch_size=8, lr=1e-3, blocks=MINI_BLOCKS,
            hidden_dim=MINI_HIDDEN, workers=workers)
        Federation(config).run()
        # 3 users x 2 epochs x 3 batches of their 20 rows
        assert len(recorder.backwards) == 18
        assert all(steps == STANDARD_LIVENESS for steps in recorder.backwards)


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

    def test_rows_beyond_one_forward_match_the_argmax_oracle(self, monkeypatch):
        # two rows of length 12 per forward: spans of 2, 2 and 1 rows
        monkeypatch.setattr(extractor, "PREDICT_POSITIONS", 24)
        m = mini_model(num_classes=4, seed=30)
        x = np.random.default_rng(31).standard_normal((5, 1, 12))
        assert np.array_equal(m.predict(x), np.argmax(m.forward(x).probs, axis=1))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_zero_rows_give_an_empty_integer_array(self, dtype):
        preds = mini_model(seed=32).predict(np.zeros((0, 1, 12), dtype=dtype))
        assert preds.shape == (0,)
        assert np.issubdtype(preds.dtype, np.integer)


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



class TestCloneModel:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_clone_with_a_bundle_holds_the_bundle_and_the_models_classifier(self, dtype):
        model = mini_model(seed=61, dtype=dtype)
        bundle = extract_hidden_weights(mini_model(seed=62))
        clone = extractor.clone_model(model, bundle)
        held = model_arrays(model)
        cloned = model_arrays(clone)
        for key, arr in cloned.items():
            want = bundle.arrays[key].astype(dtype) if key in bundle.arrays else held[key]
            assert arr.dtype == dtype and arr.tobytes() == want.tobytes(), key
            for other in held.values():
                assert not np.shares_memory(arr, other), key
            # a hidden array is the bundle's own, read-only, unless it is cast
            for other_key, other in bundle.arrays.items():
                kept = other_key == key and other.dtype == dtype
                assert np.shares_memory(arr, other) == kept, (key, other_key)
            assert arr.flags.writeable == (key not in bundle.arrays), key

    def test_clone_with_a_misshapen_bundle_is_refused(self):
        model = mini_model(seed=63)
        bundle = extract_hidden_weights(model)
        bundle.arrays["dense.bias"] = np.zeros(MINI_HIDDEN + 1)
        with pytest.raises(IncompatibleBundleError):
            extractor.clone_model(model, bundle)

class TestInitDraws:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("num_classes", [2, 3, 10])
    @pytest.mark.parametrize("seed", [0, 1, 2024])
    def test_every_parameter_is_a_uniform_draw_cast_to_dtype(self, seed, num_classes, dtype):
        rng = np.random.default_rng(seed)

        def draw(fan_in, size):
            bound = 1.0 / np.sqrt(fan_in)
            return rng.uniform(-bound, bound, size=size).astype(dtype)

        expected = {}
        c_in = 1
        for i, (k, c_out) in enumerate(extractor.DEFAULT_BLOCKS, start=1):
            expected[f"conv{i}.kernel"] = draw(c_in * k, (c_out, c_in, k))
            expected[f"conv{i}.bias"] = draw(c_in * k, c_out)
            expected[f"bn{i}.alpha"] = np.ones(c_out, dtype=dtype)
            expected[f"bn{i}.beta"] = np.zeros(c_out, dtype=dtype)
            expected[f"bn{i}.running_mean"] = np.zeros(c_out, dtype=dtype)
            expected[f"bn{i}.running_var"] = np.ones(c_out, dtype=dtype)
            c_in = c_out
        hidden = extractor.DEFAULT_HIDDEN_DIM
        expected["dense.weight"] = draw(c_in, (hidden, c_in))
        expected["dense.bias"] = draw(c_in, hidden)
        expected["classifier.weight"] = draw(hidden, (num_classes, hidden))
        expected["classifier.bias"] = draw(hidden, num_classes)

        model = FeatureExtractor(num_classes, seed=seed, dtype=dtype)
        arrays = model_arrays(model)
        assert sorted(arrays) == sorted(expected)
        for key, arr in arrays.items():
            assert arr.dtype == dtype and arr.flags.c_contiguous, key
            assert arr.shape == expected[key].shape, key
            assert arr.tobytes() == expected[key].tobytes(), key
