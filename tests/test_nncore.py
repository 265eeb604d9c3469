import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efdls import nncore
from efdls.nncore import (
    AdamState, BatchNormLayer, ConvLayer, DenseLayer, NumericError, ShapeError,
    adam_step, batchnorm_backward, batchnorm_forward, conv1d_backward, conv1d_forward,
    dense_backward, dense_forward, global_avg_pool, global_avg_pool_backward,
    init_batchnorm, relu_backward, relu_forward, softmax,
)


def naive_conv1d(x, kernel, bias):
    """Direct sliding-window reference, independent of the vectorized path."""
    b, c_in, length = x.shape
    c_out, _, k = kernel.shape
    pad = (k - 1) // 2
    xp = np.zeros((b, c_in, length + 2 * pad))
    xp[:, :, pad:pad + length] = x
    out = np.zeros((b, c_out, length))
    for bi in range(b):
        for o in range(c_out):
            for t in range(length):
                acc = 0.0
                for c in range(c_in):
                    for kk in range(k):
                        acc += kernel[o, c, kk] * xp[bi, c, t + kk]
                out[bi, o, t] = acc + bias[o]
    return out


class TestConv1d:
    def test_zero_kernel_outputs_bias(self):
        layer = ConvLayer(np.zeros((2, 1, 3)), np.array([4.0, -1.0]))
        out = conv1d_forward(np.random.default_rng(0).standard_normal((2, 1, 5)), layer)
        assert np.array_equal(out[:, 0, :], np.full((2, 5), 4.0))
        assert np.array_equal(out[:, 1, :], np.full((2, 5), -1.0))

    def test_identity_kernel(self):
        layer = ConvLayer(np.ones((1, 1, 1)), np.zeros(1))
        x = np.random.default_rng(1).standard_normal((3, 1, 7))
        assert np.array_equal(conv1d_forward(x, layer), x)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 1, 8))
        layer = ConvLayer(rng.standard_normal((4, 1, 3)), rng.standard_normal(4))
        expected = naive_conv1d(x, layer.kernel, layer.bias)
        np.testing.assert_allclose(conv1d_forward(x, layer), expected, atol=1e-6)

    def test_multichannel_matches_naive_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((3, 4, 11))
        layer = ConvLayer(rng.standard_normal((2, 4, 5)), rng.standard_normal(2))
        np.testing.assert_allclose(conv1d_forward(x, layer),
                                   naive_conv1d(x, layer.kernel, layer.bias), atol=1e-9)

    def test_channel_mismatch_names_axes(self):
        layer = ConvLayer(np.zeros((2, 3, 3)), np.zeros(2))
        with pytest.raises(ShapeError, match="channel"):
            conv1d_forward(np.zeros((1, 2, 5)), layer)

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError, match="odd"):
            ConvLayer(np.zeros((1, 1, 4)), np.zeros(1))

    @given(k=st.sampled_from([1, 3, 5, 7, 9]), length=st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_same_padding_preserves_length(self, k, length):
        rng = np.random.default_rng(k * 100 + length)
        layer = ConvLayer(rng.standard_normal((2, 1, k)), rng.standard_normal(2))
        out = conv1d_forward(rng.standard_normal((1, 1, length)), layer)
        assert out.shape == (1, 2, length)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 3, 9))
        layer = ConvLayer(rng.standard_normal((2, 3, 5)), rng.standard_normal(2))
        gout = rng.standard_normal((2, 2, 9))
        out, cache = conv1d_forward(x, layer, want_cache=True)
        g_in, g_k, g_b = conv1d_backward(gout, layer, cache)
        eps = 1e-6
        for target, grad in ((layer.kernel, g_k), (layer.bias, g_b), (x, g_in)):
            flat = target.reshape(-1)
            gflat = grad.reshape(-1)
            for i in range(0, flat.size, max(1, flat.size // 10)):
                orig = flat[i]
                flat[i] = orig + eps
                plus = float(np.sum(conv1d_forward(x, layer) * gout))
                flat[i] = orig - eps
                minus = float(np.sum(conv1d_forward(x, layer) * gout))
                flat[i] = orig
                fd = (plus - minus) / (2 * eps)
                assert abs(fd - gflat[i]) < 1e-6 * max(1.0, abs(fd))


class TestBlocks:
    """``_blocks`` is the one rule for walking items through a budget: the
    conv column blocks, the row-product blocks, the init draws, predict's
    rows and the Gram screen's columns."""

    @given(count=st.integers(0, 400), item_size=st.integers(0, 5000),
           budget=st.integers(1, 1 << 16))
    @settings(max_examples=300, deadline=None)
    def test_spans_cover_the_items_in_order_each_as_many_as_fit(self, count, item_size, budget):
        spans = nncore._blocks(count, item_size, budget)
        if count == 0:
            assert spans == [(0, 0)]
            return
        assert spans[0][0] == 0 and spans[-1][1] == count
        assert all(hi == lo for (_, hi), (lo, _) in zip(spans, spans[1:]))
        for lo, hi in spans:
            assert hi > lo
            # within the budget, unless a single item alone exceeds it
            assert (hi - lo) * item_size <= budget or hi - lo == 1
        if item_size > 0:
            # every span but the last takes as many items as fit
            assert all((hi - lo + 1) * item_size > budget for lo, hi in spans[:-1])


class TestBatchNorm:
    def test_constant_batch_maps_to_beta(self):
        layer = init_batchnorm(1)
        layer.beta[:] = 3.5
        out = batchnorm_forward(np.full((4, 1, 2), 7.0), layer, training=True)
        np.testing.assert_allclose(out, 3.5, atol=1e-6)

    def test_zero_scale_maps_to_beta(self):
        layer = init_batchnorm(2)
        layer.alpha[:] = 0.0
        layer.beta[:] = np.array([1.0, -2.0])
        x = np.random.default_rng(5).standard_normal((3, 2, 4))
        out = batchnorm_forward(x, layer, training=True)
        np.testing.assert_allclose(out[:, 0, :], 1.0)
        np.testing.assert_allclose(out[:, 1, :], -2.0)

    def test_scalar_oracle_batch_123(self):
        layer = init_batchnorm(1)
        x = np.array([1.0, 2.0, 3.0]).reshape(3, 1, 1)
        out = batchnorm_forward(x, layer, training=True)
        var = np.mean((x - 2.0) ** 2)
        expected = (x - 2.0) / np.sqrt(var + nncore.BN_ZETA)
        np.testing.assert_allclose(out, expected, atol=1e-9)
        np.testing.assert_allclose(out.ravel(), [-1.2247, 0.0, 1.2247], atol=1e-3)

    def test_literal_form_matches_printed_definition(self):
        layer = init_batchnorm(1, literal_form=True)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((5, 1, 3))
        out = batchnorm_forward(x, layer, training=True)
        mu = x.mean()
        delta = np.sqrt(np.sum((x - mu) ** 2))
        np.testing.assert_allclose(out, (x - mu) / (delta + nncore.BN_ZETA), atol=1e-12)

    def test_training_normalizes_per_channel(self):
        layer = init_batchnorm(3)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((8, 3, 16)) * 4.0 + 2.0
        out = batchnorm_forward(x, layer, training=True)
        means = out.mean(axis=(0, 2))
        stds = out.std(axis=(0, 2))
        assert np.all(np.abs(means - layer.beta) < 1e-5)
        assert np.all(np.abs(stds - 1.0) < 1e-3)

    def test_running_stats_used_in_inference(self):
        layer = init_batchnorm(1)
        rng = np.random.default_rng(8)
        for _ in range(300):
            batchnorm_forward(rng.standard_normal((16, 1, 8)) * 2.0 + 5.0, layer, training=True)
        assert abs(layer.running_mean[0] - 5.0) < 0.2
        assert abs(layer.running_var[0] - 4.0) < 0.6
        out = batchnorm_forward(np.full((1, 1, 1), 5.0), layer, training=False)
        assert abs(out[0, 0, 0]) < 0.1

    def test_empty_batch_rejected(self):
        with pytest.raises(ShapeError, match="empty"):
            batchnorm_forward(np.zeros((0, 1, 4)), init_batchnorm(1), training=True)

    def test_nonfinite_statistics_rejected(self):
        x = np.full((2, 1, 2), np.inf)
        with pytest.raises(NumericError):
            batchnorm_forward(x, init_batchnorm(1), training=True)

    def test_inference_backward_matches_finite_differences(self):
        rng = np.random.default_rng(40)
        layer = init_batchnorm(2)
        layer.alpha[:] = rng.uniform(0.5, 1.5, 2)
        layer.beta[:] = rng.standard_normal(2)
        layer.running_mean = rng.standard_normal(2)
        layer.running_var = rng.uniform(0.5, 2.0, 2)
        x = rng.standard_normal((3, 2, 5))
        gout = rng.standard_normal((3, 2, 5))
        _, cache = batchnorm_forward(x, layer, training=False, want_cache=True)
        g_in, g_a, g_b = nncore.batchnorm_inference_backward(gout, layer, cache)
        eps = 1e-6
        for target, grad in ((x, g_in), (layer.alpha, g_a), (layer.beta, g_b)):
            flat, gflat = target.reshape(-1), np.asarray(grad).reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                plus = float(np.sum(batchnorm_forward(x, layer, training=False) * gout))
                flat[i] = orig - eps
                minus = float(np.sum(batchnorm_forward(x, layer, training=False) * gout))
                flat[i] = orig
                fd = (plus - minus) / (2 * eps)
                assert abs(fd - gflat[i]) < 2e-5 * max(1.0, abs(fd))

    @pytest.mark.parametrize("literal", [False, True])
    def test_backward_matches_finite_differences(self, literal):
        rng = np.random.default_rng(9 + literal)
        layer = init_batchnorm(2, literal_form=literal)
        layer.alpha[:] = rng.uniform(0.5, 1.5, 2)
        layer.beta[:] = rng.standard_normal(2)
        x = rng.standard_normal((3, 2, 5))
        gout = rng.standard_normal((3, 2, 5))
        out, cache = batchnorm_forward(x, layer, training=True, update_running=False,
                                       want_cache=True)
        g_in, g_a, g_b = batchnorm_backward(gout, layer, cache)
        eps = 1e-6
        for target, grad in ((x, g_in), (layer.alpha, g_a), (layer.beta, g_b)):
            flat = target.reshape(-1)
            gflat = np.asarray(grad).reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                plus = float(np.sum(batchnorm_forward(x, layer, training=True,
                                                      update_running=False) * gout))
                flat[i] = orig - eps
                minus = float(np.sum(batchnorm_forward(x, layer, training=True,
                                                       update_running=False) * gout))
                flat[i] = orig
                fd = (plus - minus) / (2 * eps)
                assert abs(fd - gflat[i]) < 2e-5 * max(1.0, abs(fd))


class TestElementwiseAndPooling:
    def test_relu_all_negative(self):
        assert np.array_equal(relu_forward(-np.ones((2, 2))), np.zeros((2, 2)))

    def test_relu_all_positive(self):
        x = np.abs(np.random.default_rng(10).standard_normal((3, 4))) + 0.1
        assert np.array_equal(relu_forward(x), x)

    def test_relu_matches_elementwise_oracle(self):
        x = np.random.default_rng(11).standard_normal((4, 5))
        expected = np.array([[v if v > 0 else 0.0 for v in row] for row in x])
        assert np.array_equal(relu_forward(x), expected)

    def test_relu_backward_masks(self):
        x = np.array([[-1.0, 2.0, 0.0]])
        out = relu_forward(x)
        g = relu_backward(np.ones_like(x), out)
        assert np.array_equal(g, [[0.0, 1.0, 0.0]])

    def test_gap_constant(self):
        assert np.allclose(global_avg_pool(np.full((2, 3, 5), 4.25)), 4.25)

    def test_gap_pair(self):
        x = np.array([0.0, 2.0]).reshape(1, 1, 2)
        assert global_avg_pool(x)[0, 0] == 1.0

    def test_gap_matches_mean_oracle(self):
        x = np.random.default_rng(12).standard_normal((3, 4, 7))
        expected = np.array([[x[b, c].sum() / 7 for c in range(4)] for b in range(3)])
        np.testing.assert_allclose(global_avg_pool(x), expected, atol=1e-7)

    def test_gap_empty_length_rejected(self):
        with pytest.raises(ShapeError, match="length"):
            global_avg_pool(np.zeros((1, 2, 0)))

    def test_gap_backward_spreads_evenly(self):
        g = global_avg_pool_backward(np.array([[3.0]]), 4)
        assert np.allclose(g, 0.75)


class TestDense:
    def test_identity(self):
        layer = DenseLayer(np.eye(3), np.zeros(3))
        x = np.random.default_rng(13).standard_normal((2, 3))
        assert np.array_equal(dense_forward(x, layer), x)

    def test_zero_weight_bias_rows(self):
        layer = DenseLayer(np.zeros((2, 3)), np.array([5.0, -1.0]))
        out = dense_forward(np.ones((4, 3)), layer)
        assert np.array_equal(out, np.tile([5.0, -1.0], (4, 1)))

    def test_matches_matmul_oracle(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((3, 5))
        layer = DenseLayer(rng.standard_normal((4, 5)), rng.standard_normal(4))
        expected = np.array([[x[b] @ layer.weight[o] + layer.bias[o]
                              for o in range(4)] for b in range(3)])
        np.testing.assert_allclose(dense_forward(x, layer), expected, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError, match="feature"):
            dense_forward(np.zeros((1, 3)), DenseLayer(np.zeros((2, 4)), np.zeros(2)))

    def test_backward_closed_form(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((3, 4))
        layer = DenseLayer(rng.standard_normal((2, 4)), rng.standard_normal(2))
        gout = rng.standard_normal((3, 2))
        g_in, g_w, g_b = dense_backward(gout, layer, x)
        np.testing.assert_allclose(g_w, gout.T @ x, atol=1e-12)
        np.testing.assert_allclose(g_b, gout.sum(axis=0), atol=1e-12)
        np.testing.assert_allclose(g_in, gout @ layer.weight, atol=1e-12)


class TestSoftmax:
    def test_rows_normalized(self):
        p = softmax(np.random.default_rng(16).standard_normal((5, 4)) * 10)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        assert (p >= 0).all()

    def test_shift_invariance(self):
        z = np.random.default_rng(17).standard_normal((3, 4))
        np.testing.assert_allclose(softmax(z), softmax(z + 123.456), atol=1e-6)


class TestAdam:
    def test_zero_grad_zero_decay_is_fixed_point(self):
        rng = np.random.default_rng(18)
        params = {"w": rng.standard_normal((3, 3))}
        before = {k: v.copy() for k, v in params.items()}
        state = AdamState.for_params(params, lr=1e-2, weight_decay=0.0)
        for _ in range(5):
            adam_step(params, {"w": np.zeros((3, 3))}, state)
        assert np.array_equal(params["w"], before["w"])
        assert state.step_count == 5

    def test_first_step_magnitude_is_lr(self):
        params = {"w": np.array([1.0])}
        state = AdamState.for_params(params, lr=1e-3, weight_decay=0.0)
        adam_step(params, {"w": np.array([7.0])}, state)
        delta = params["w"][0] - 1.0
        assert delta < 0  # opposite the gradient sign
        assert abs(abs(delta) - 1e-3) < 1e-6

    def test_three_step_scalar_trace_oracle(self):
        # Hand-stepped reference in plain Python floats.
        lr, b1, b2, eps_ = 0.1, 0.9, 0.999, 1e-8
        w_ref, m, v = 2.0, 0.0, 0.0
        trace = []
        for t in range(1, 4):
            g = 2.0 * (w_ref - 0.5)  # d/dw (w - 0.5)^2
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1 ** t)
            v_hat = v / (1 - b2 ** t)
            w_ref = w_ref - lr * m_hat / (v_hat ** 0.5 + eps_)
            trace.append(w_ref)

        params = {"w": np.array([2.0])}
        state = AdamState.for_params(params, lr=lr, weight_decay=0.0)
        for t in range(3):
            g = 2.0 * (params["w"] - 0.5)
            adam_step(params, {"w": g}, state)
            assert abs(params["w"][0] - trace[t]) < 1e-10

    def test_weight_decay_enters_gradient(self):
        params = {"w": np.array([4.0])}
        state = AdamState.for_params(params, lr=1e-3, weight_decay=0.5)
        adam_step(params, {"w": np.array([0.0])}, state)
        # effective first gradient = 0 + 0.5 * 4 = 2 > 0, so w decreases by ~lr
        assert params["w"][0] < 4.0

    def test_nonfinite_gradient_names_group(self):
        params = {"good": np.zeros(2), "bad": np.zeros(2)}
        state = AdamState.for_params(params)
        with pytest.raises(NumericError, match="bad"):
            adam_step(params, {"good": np.zeros(2), "bad": np.array([np.nan, 0.0])}, state)

    @pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
    def test_finite_gradient_that_overflows_names_group(self, weight_decay):
        # 1e20 is finite in float32, but its square is not
        params = {"good": np.zeros(2, dtype=np.float32), "bad": np.zeros(2, dtype=np.float32)}
        state = AdamState.for_params(params, weight_decay=weight_decay)
        grads = {"good": np.ones(2, dtype=np.float32),
                 "bad": np.array([1e20, 0.0], dtype=np.float32)}
        with pytest.raises(NumericError, match="Adam step overflowed for parameter group 'bad'"):
            adam_step(params, grads, state)


class _LinearModel:
    """Minimal model satisfying the gradcheck protocol: y = sum(W @ x)."""

    def __init__(self, seed=0):
        rng = np.random.default_rng(seed)
        self.weight = rng.standard_normal((3, 4))

    def parameters(self):
        return {"weight": self.weight}

    def forward(self, x, training=False, update_running=None, want_cache=False):
        out = x @ self.weight.T
        if want_cache:
            return out, x
        return out

    def backward(self, cache, output_grads):
        return {"weight": output_grads["out"].T @ cache}


class _AffineModel(_LinearModel):
    """Two parameter arrays of different sizes: y = x @ W.T + b."""

    def __init__(self, seed=0):
        super().__init__(seed)
        self.bias = np.random.default_rng([seed, 1]).standard_normal(3)

    def parameters(self):
        return {"weight": self.weight, "bias": self.bias}

    def forward(self, x, training=False, update_running=None, want_cache=False):
        out = x @ self.weight.T + self.bias
        if want_cache:
            return out, x
        return out

    def backward(self, cache, output_grads):
        g = output_grads["out"]
        return {"weight": g.T @ cache, "bias": g.sum(axis=0)}


class _LinearLoss:
    def __init__(self, coeffs):
        self.coeffs = coeffs

    def value(self, out):
        return float(np.sum(out * self.coeffs))

    def output_grads(self, out):
        return {"out": self.coeffs}


class _ProbeRecordingLoss(_LinearLoss):
    """A linear loss that records, at each ``value`` call, the parameter
    entries that differ from their values when it was built."""

    def __init__(self, coeffs, model):
        super().__init__(coeffs)
        self.model = model
        self.start = {name: p.copy() for name, p in model.parameters().items()}
        self.probes = []

    def value(self, out):
        self.probes.append([(name, int(i)) for name, p in self.model.parameters().items()
                            for i in np.flatnonzero(p != self.start[name])])
        return super().value(out)


class _NaNWhenPerturbedLoss(_LinearLoss):
    """A linear loss whose value is NaN while one weight entry is moved off
    its starting value."""

    def __init__(self, coeffs, model, entry):
        super().__init__(coeffs)
        self.model, self.entry = model, entry
        self.start = model.weight[entry]

    def value(self, out):
        if self.model.weight[self.entry] != self.start:
            return float("nan")
        return super().value(out)


def _linear_case(seed):
    """A linear model, an input and loss coefficients from three seeds."""
    model = _LinearModel(seed=seed)
    x = np.random.default_rng(seed + 1).standard_normal((5, 4))
    coeffs = np.random.default_rng(seed + 2).standard_normal((5, 3))
    return model, x, coeffs


class TestGradCheck:
    def test_linear_model_is_exact(self):
        model = _LinearModel(seed=19)
        x = np.random.default_rng(20).standard_normal((5, 4))
        loss = _LinearLoss(np.random.default_rng(21).standard_normal((5, 3)))
        err = nncore.finite_diff_gradcheck(model, x, loss, epsilon=1e-6)
        assert err < 1e-8

    def test_corrupted_gradient_detected(self, monkeypatch):
        model, x, coeffs = _linear_case(22)
        backward = model.backward

        def corrupted_backward(cache, output_grads):
            grads = backward(cache, output_grads)
            grads["weight"][0, 0] += 0.3
            return grads

        monkeypatch.setattr(model, "backward", corrupted_backward)
        assert nncore.finite_diff_gradcheck(model, x, _LinearLoss(coeffs), epsilon=1e-6) > 1e-2

    @pytest.mark.parametrize("entry", [(0, 0), (2, 3)])
    def test_nan_analytic_gradient_fails_the_check(self, entry, monkeypatch):
        model = _LinearModel(seed=25)
        x = np.random.default_rng(26).standard_normal((5, 4))
        loss = _LinearLoss(np.random.default_rng(27).standard_normal((5, 3)))
        backward = model.backward

        def nan_backward(cache, output_grads):
            grads = backward(cache, output_grads)
            grads["weight"][entry] = np.nan
            return grads

        monkeypatch.setattr(model, "backward", nan_backward)
        err = nncore.finite_diff_gradcheck(model, x, loss, epsilon=1e-6)
        assert not err < 1e-4

    def test_nan_loss_fails_the_check(self):
        model, x, coeffs = _linear_case(30)
        loss = _LinearLoss(coeffs)
        loss.value = lambda out: float("nan")
        assert np.isnan(nncore.finite_diff_gradcheck(model, x, loss, epsilon=1e-6))

    @pytest.mark.parametrize("entry", [(0, 0), (2, 3)])
    def test_loss_nan_at_one_perturbed_entry_fails_the_check(self, entry):
        model, x, coeffs = _linear_case(33)
        loss = _NaNWhenPerturbedLoss(coeffs, model, entry)
        assert np.isnan(nncore.finite_diff_gradcheck(model, x, loss, epsilon=1e-6))
        assert model.weight[entry] == loss.start

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_each_larger_array_is_probed_at_exactly_k_entries(self, k):
        # weight has 12 entries and bias 3: with k < 3 both are sampled, with
        # k = 5 only weight is; an exact gradient needs no refinement, so
        # each probed entry costs one +epsilon and one -epsilon value call
        model = _AffineModel(seed=36)
        x = np.random.default_rng(37).standard_normal((5, 4))
        loss = _ProbeRecordingLoss(np.random.default_rng(38).standard_normal((5, 3)), model)
        err = nncore.finite_diff_gradcheck(model, x, loss, epsilon=1e-6,
                                           max_entries_per_param=k,
                                           rng=np.random.default_rng(39))
        assert err < 1e-8
        probed = {"weight": min(k, 12), "bias": min(k, 3)}
        assert len(loss.probes) == 2 * sum(probed.values())
        assert all(len(moved) == 1 for moved in loss.probes)
        for name, count in probed.items():
            entries = [i for ((n, i),) in loss.probes if n == name]
            assert len(entries) == 2 * count
            assert len(set(entries)) == count

    def test_invalid_epsilon_rejected(self):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            nncore.finite_diff_gradcheck(_LinearModel(), np.zeros((1, 4)),
                                         _LinearLoss(np.zeros((1, 3))), epsilon=0.0)


class TestBatchNormRank:
    @pytest.mark.parametrize("shape", [(4, 2), (4, 2, 3, 1), (2,)])
    @pytest.mark.parametrize("training", [True, False])
    def test_forward_rejects_non_3d_input(self, shape, training):
        with pytest.raises(ShapeError, match=r"\[batch, channel, length\]"):
            batchnorm_forward(np.ones(shape), init_batchnorm(2), training=training)

    @pytest.mark.parametrize("training", [True, False])
    def test_backward_rejects_non_3d_gradient(self, training):
        layer = init_batchnorm(2)
        x = np.random.default_rng(60).standard_normal((4, 2, 3))
        _, cache = batchnorm_forward(x, layer, training=training, update_running=False,
                                     want_cache=True)
        backward = batchnorm_backward if training else nncore.batchnorm_inference_backward
        with pytest.raises(ShapeError, match=r"\[batch, channel, length\]"):
            backward(np.ones((4, 2)), layer, cache)
