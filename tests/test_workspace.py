"""The per-thread scratch workspace behind the conv and batch-norm ops.

The ops build their temporaries in scratch but must stay correct: the conv
products and the batch-norm reductions are held to float64 textbook oracles
at stated relative bounds, ReLU, the pool gradient and Adam to their plain
numpy expressions bit for bit. They must store what they allocate in
[C, B, L] order and give the same bits whatever order their operands are
stored in, never hand out scratch memory, keep threads apart, and stop
allocating once the workspace has grown.
"""

import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from efdls import extractor, fbst, federation, metrics, nncore
from efdls.extractor import FeatureExtractor, ForwardTrace

PAPER_BLOCKS = ((9, 1, 128), (5, 128, 256), (3, 256, 128))  # (K, C_in, C_out)


def assert_bitwise(actual, expected):
    """Equal dtype, shape and bits, wherever each is stored."""
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def assert_cbl(a):
    """``a`` is a [B, C, L] view of an array stored in [C, B, L] order."""
    assert a.transpose(1, 0, 2).flags.c_contiguous


def obl_ordered(a):
    """The same [B, O, L] values stored in [O, B, L] memory order, the layout
    of every activation and gradient the network builds."""
    return np.ascontiguousarray(a.transpose(1, 0, 2)).transpose(1, 0, 2)


def textbook_conv(x, gout, layer):
    """Same-padding conv forward and backward in float64 from the operands'
    values, as direct sums over the kernel offsets: (out, g_input,
    g_kernel). Offset j of output position t reads input position
    t + j - (K - 1) // 2; positions outside the input read zero."""
    x, gout = x.astype(np.float64), gout.astype(np.float64)
    kernel = layer.kernel.astype(np.float64)
    k, length = kernel.shape[2], x.shape[2]
    out = np.zeros((x.shape[0], kernel.shape[0], length))
    out += layer.bias.astype(np.float64)[None, :, None]
    g_input, g_kernel = np.zeros_like(x), np.zeros_like(kernel)
    for j in range(k):
        shift = j - (k - 1) // 2
        lo, hi = max(-shift, 0), min(length - shift, length)
        if lo >= hi:
            continue
        window = x[:, :, lo + shift:hi + shift]
        out[:, :, lo:hi] += np.matmul(kernel[:, :, j], window)
        g_kernel[:, :, j] = np.tensordot(gout[:, :, lo:hi], window, axes=([0, 2], [0, 2]))
        g_input[:, :, lo + shift:hi + shift] += np.matmul(kernel[:, :, j].T, gout[:, :, lo:hi])
    return out, g_input, g_kernel


def relative_error(actual, reference):
    """Largest absolute difference over the reference's largest magnitude."""
    return float(np.max(np.abs(actual.astype(np.float64) - reference)) / np.max(np.abs(reference)))


# The conv results' largest relative error against the float64 textbook,
# in units of the compute dtype's machine epsilon. Measured at the paper
# blocks (batches 7, 16 and 32, lengths 1-4, 24 and 256): at most 8.2 in
# float32 and 8.2 in float64, over OpenBLAS's SkylakeX, Haswell and
# Sandybridge kernels.
CONV_EPS_BOUND = 16


def conv_case(k, c_in, c_out, batch, length, kernel_dtype=np.float64, seed=0, dtype=np.float64):
    """A conv layer with its kernel in ``kernel_dtype``, and input and
    upstream gradient in ``dtype``."""
    rng = np.random.default_rng(seed)
    layer = nncore.init_conv(c_out, c_in, k, rng, dtype=kernel_dtype)
    x = rng.standard_normal((batch, c_in, length)).astype(dtype, copy=False)
    gout = rng.standard_normal((batch, c_out, length)).astype(dtype, copy=False)
    return layer, x, gout


class TestTextbookConv:
    """The conv products against a float64 textbook conv, within
    CONV_EPS_BOUND machine epsilons of the compute dtype, relative to the
    textbook's largest magnitude. Each operand is passed in both memory
    orders, which must give the same bits: the network's [C, B, L] order
    and C order."""

    def check(self, layer, x_c, gout_c):
        dtype = np.result_type(layer.kernel, x_c, gout_c)
        bound = CONV_EPS_BOUND * np.finfo(dtype).eps
        want = (*textbook_conv(x_c, gout_c, layer), gout_c.astype(np.float64).sum(axis=(0, 2)))
        first = None
        for x in (obl_ordered(x_c), x_c):
            out, cache = nncore.conv1d_forward(x, layer, want_cache=True)
            assert cache is x
            assert_bitwise(nncore.conv1d_forward(x, layer), out)
            for gout in (obl_ordered(gout_c), gout_c):
                g_input, g_kernel, g_bias = nncore.conv1d_backward(gout, layer, x)
                got = (out, g_input, g_kernel, g_bias)
                if first is None:
                    first = got
                    errors = [relative_error(a, w) for a, w in zip(got, want)]
                    assert max(errors) < bound, errors
                for a, b in zip(got, first):
                    assert_bitwise(a, b)
                assert_cbl(out)
                assert_cbl(g_input)
                assert g_kernel.flags.c_contiguous
                skipped, g_kernel_only, _ = nncore.conv1d_backward(gout, layer, x,
                                                                   input_grad=False)
                assert skipped is None
                assert_bitwise(g_kernel_only, g_kernel)

    # float32 is a federation's compute dtype, float64 the gradient oracle's
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("length", [24, 256])
    @pytest.mark.parametrize("batch", [16, 32, 7])
    @pytest.mark.parametrize("k,c_in,c_out", PAPER_BLOCKS)
    def test_paper_blocks(self, k, c_in, c_out, batch, length, dtype):
        self.check(*conv_case(k, c_in, c_out, batch, length, kernel_dtype=dtype, dtype=dtype))

    # series no longer than the kernel's reach: an offset whose shift spans
    # the whole series reads only padding, and col2im skips it
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("length", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", [9, 5, 3])
    def test_short_series(self, k, length, dtype):
        self.check(*conv_case(k, 6, 10, 3, length, kernel_dtype=dtype, seed=length, dtype=dtype))

    # mixed operands compute in numpy's promotion: matmul widens the kernel exactly
    @pytest.mark.parametrize("k,c_in,c_out", PAPER_BLOCKS)
    def test_float32_kernel_float64_input(self, k, c_in, c_out):
        layer, x, gout = conv_case(k, c_in, c_out, 7, 24, kernel_dtype=np.float32, seed=1)
        self.check(layer, x, gout)
        assert nncore.conv1d_forward(x, layer).dtype == np.float64


def gemm_keeps_its_bits_across_widths(a, b, step, fresh_spans=False) -> bool:
    """Whether this BLAS kernel gives each column of ``a @ b`` the same bits
    when the product runs over ``step``-wide spans of ``b``'s columns: views
    of ``b``, as the input gradient reads its upstream rows, or, with
    ``fresh_spans``, contiguous copies, as the forward builds each block's
    im2col. It does on OpenBLAS's SkylakeX and Sandybridge kernels at the
    paper blocks' shapes, and not on its Haswell SGEMM, whose products at
    these shapes move within a few machine epsilons."""
    whole = a @ b
    spans = np.empty_like(whole)
    for lo in range(0, b.shape[1], step):
        span = b[:, lo:lo + step]
        np.matmul(a, span.copy() if fresh_spans else span, out=spans[:, lo:lo + step])
    return whole.tobytes() == spans.tobytes()


class TestColumnBlocks:
    """The conv products run over blocks of whole series. The bias gradient
    keeps the bits of one block over the whole batch. So do the output and
    the input gradient, which take each column's dot products whole, on a
    BLAS kernel whose products keep their bits across widths (probed with
    the same shapes and layouts), and within CONV_EPS_BOUND machine
    epsilons of them, relative to their largest magnitude, on any kernel.
    The kernel gradient, a sum of the blocks' products, stays within that
    bound."""

    def compare(self, monkeypatch, layer, x, gout, budget):
        def products():
            return (nncore.conv1d_forward(x, layer), *nncore.conv1d_backward(gout, layer, x))

        monkeypatch.setattr(nncore, "_COL_BLOCK_BYTES", budget)
        split = products()
        monkeypatch.setattr(nncore, "_COL_BLOCK_BYTES", 1 << 40)
        whole = products()
        bound = CONV_EPS_BOUND * np.finfo(split[0].dtype).eps
        assert_bitwise(split[3], whole[3])
        for got, want in zip(split[:3], whole[:3]):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert relative_error(got, want.astype(np.float64)) < bound
        return split, whole

    # at the module's budget, blocks 2 and 3 split a batch of 16 at length 256
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("k,c_in,c_out", PAPER_BLOCKS)
    def test_paper_blocks_at_length_256(self, monkeypatch, k, c_in, c_out, dtype):
        batch, length = 16, 256
        layer, x, gout = conv_case(k, c_in, c_out, batch, length, kernel_dtype=dtype,
                                   dtype=dtype)
        blocks = nncore._blocks(batch, c_in * k * length * np.dtype(dtype).itemsize,
                                nncore._COL_BLOCK_BYTES)
        assert (len(blocks) > 1) == (c_in > 1)
        split, whole = self.compare(monkeypatch, layer, obl_ordered(x), obl_ordered(gout),
                                    nncore._COL_BLOCK_BYTES)
        rng = np.random.default_rng(1)
        step = (blocks[0][1] - blocks[0][0]) * length
        weights = rng.standard_normal((c_out, c_in * k)).astype(dtype)
        columns = rng.standard_normal((c_in * k, batch * length)).astype(dtype)
        # kernel.T as conv1d_backward reads it: a transposed C-ordered copy
        taps = rng.standard_normal((c_out, k * c_in)).astype(dtype).T
        g_rows = rng.standard_normal((c_out, batch * length)).astype(dtype)
        if gemm_keeps_its_bits_across_widths(weights, columns, step, fresh_spans=True):
            assert_bitwise(split[0], whole[0])
        if gemm_keeps_its_bits_across_widths(taps, g_rows, step):
            assert_bitwise(split[1], whole[1])

    # a budget below one series' columns gives blocks of one series, which
    # the shortest series and the widest kernels reach past at both ends; at
    # these narrow blocks BLAS may take other kernels, so the bits can move,
    # and every result is held to the textbook conv
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("length", [1, 2, 5, 24])
    @pytest.mark.parametrize("k", [9, 5, 3])
    def test_blocks_of_one_series(self, monkeypatch, k, length, dtype):
        monkeypatch.setattr(nncore, "_COL_BLOCK_BYTES", 1)
        assert nncore._blocks(7, 6 * k * length, nncore._COL_BLOCK_BYTES) == \
            [(i, i + 1) for i in range(7)]
        TestTextbookConv().check(*conv_case(k, 6, 10, 7, length, kernel_dtype=dtype,
                                            seed=length, dtype=dtype))


def expression_batchnorm_forward(x, layer):
    """Training-mode batch norm as plain numpy expressions: (out, cache)."""
    axes = (0, 2)
    alpha, beta = layer.alpha[None, :, None], layer.beta[None, :, None]
    mu = x.mean(axis=axes)
    centered = x - mu[None, :, None]
    if layer.literal_form:
        delta = np.sqrt(np.sum(centered * centered, axis=axes))
        denom = delta + nncore.BN_ZETA
        return alpha * centered / denom[None, :, None] + beta, ("literal", centered, delta, denom)
    var = np.mean(centered * centered, axis=axes)
    inv = 1.0 / np.sqrt(var + nncore.BN_ZETA)
    xhat = centered * inv[None, :, None]
    return alpha * xhat + beta, ("standard", xhat, inv)


def expression_batchnorm_backward(gout, layer, cache):
    """(g_input, g_alpha) of training-mode batch norm as plain numpy
    expressions."""
    axes = (0, 2)

    def per_channel(v):
        return v[None, :, None]

    alpha = per_channel(layer.alpha)
    if cache[0] == "standard":
        _, xhat, inv = cache
        g_alpha = np.sum(gout * xhat, axis=axes)
        gh = gout * alpha
        mean_gh = gh.mean(axis=axes)
        mean_gh_xhat = np.mean(gh * xhat, axis=axes)
        return per_channel(inv) * (gh - per_channel(mean_gh)
                                   - xhat * per_channel(mean_gh_xhat)), g_alpha
    _, centered, delta, denom = cache
    s_gc = np.sum(gout * centered, axis=axes)
    delta_safe = np.maximum(delta, np.finfo(gout.dtype).tiny)
    return alpha * ((gout - per_channel(gout.mean(axis=axes))) / per_channel(denom)
                    - centered * per_channel(s_gc / (delta_safe * denom * denom))), s_gc / denom


def textbook_inference_batchnorm(x, gout, layer):
    """Inference batch norm of the layer's form in float64 from the inputs'
    values and the running statistics: (out, g_input, g_alpha, g_beta)."""
    axes = (0, 2)
    x, gout = x.astype(np.float64), gout.astype(np.float64)
    alpha = layer.alpha.astype(np.float64)[None, :, None]
    beta = layer.beta.astype(np.float64)[None, :, None]
    running_var = layer.running_var.astype(np.float64)
    if layer.literal_form:
        scale = 1.0 / (np.sqrt(running_var) + nncore.BN_ZETA)
    else:
        scale = 1.0 / np.sqrt(running_var + nncore.BN_ZETA)
    centered = x - layer.running_mean.astype(np.float64)[None, :, None]
    scale3 = scale[None, :, None]
    return (alpha * centered * scale3 + beta, gout * alpha * scale3,
            np.sum(gout * centered, axis=axes) * scale, np.sum(gout, axis=axes))


def textbook_batchnorm(x, gout, layer):
    """Training batch norm of the layer's form in float64 from the inputs'
    values: (out, g_input, g_alpha, g_beta)."""
    axes = (0, 2)
    x, gout = x.astype(np.float64), gout.astype(np.float64)
    alpha = layer.alpha.astype(np.float64)[None, :, None]
    beta = layer.beta.astype(np.float64)[None, :, None]
    n = x.shape[0] * x.shape[2]
    centered = x - x.mean(axis=axes)[None, :, None]
    g_beta = np.sum(gout, axis=axes)
    if layer.literal_form:
        delta = np.sqrt(np.sum(centered ** 2, axis=axes))[None, :, None]
        denom = delta + nncore.BN_ZETA
        s_gc = np.sum(gout * centered, axis=axes)[None, :, None]
        g_input = alpha * ((gout - g_beta[None, :, None] / n) / denom
                           - centered * s_gc / (delta * denom ** 2))
        return alpha * centered / denom + beta, g_input, (s_gc / denom)[0, :, 0], g_beta
    inv = 1.0 / np.sqrt(np.mean(centered ** 2, axis=axes) + nncore.BN_ZETA)
    xhat = centered * inv[None, :, None]
    g_alpha = np.sum(gout * xhat, axis=axes)
    g_mean = g_beta[None, :, None] / n
    g_input = alpha * inv[None, :, None] * (gout - g_mean - xhat * g_alpha[None, :, None] / n)
    return alpha * xhat + beta, g_input, g_alpha, g_beta


# Batch norm's largest relative error against the float64 textbook, in
# machine epsilons of the compute dtype: 8 is about 1e-6 in float32.
# Measured in training mode at [16, C, L] (C 128 and 256, L 24, 256 and
# 1024) and [3, 5, 7], over the output, the input gradient, g_alpha and
# g_beta: at most 1.8 in float32 and 2.2 in float64, with each row summed
# pairwise (at most 1.9 at [32, 128, 1500]); the plain expressions reached
# 2.9 and 1.7.
BN_EPS_BOUND = 8


class TestBatchNormOracle:
    """Batch norm of both forms, in training and inference mode, against a
    float64 textbook batch norm, within BN_EPS_BOUND machine epsilons of the
    compute dtype relative to the textbook's largest magnitude; in training
    mode beside the plain numpy expressions, which sum over the batch and
    length axes in another order and meet the same bound. The operands' two
    memory orders give the same bits, and what the op allocates is stored
    in [C, B, L] order."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape", [(16, c, n) for c in (128, 256) for n in (24, 256, 1024)]
                             + [(3, 5, 7)])
    @pytest.mark.parametrize("literal", [False, True])
    def test_training_forward_and_backward(self, literal, shape, dtype):
        rng = np.random.default_rng(7)
        x_c = (3.0 * rng.standard_normal(shape) + 1.0).astype(dtype)
        gout_c = rng.standard_normal(shape).astype(dtype)
        layer = bn_layer(shape[1], literal, dtype=dtype)
        bound = BN_EPS_BOUND * np.finfo(dtype).eps
        want = textbook_batchnorm(x_c, gout_c, layer)
        first = None
        for x, gout in ((obl_ordered(x_c), obl_ordered(gout_c)), (x_c, gout_c),
                        (obl_ordered(x_c), gout_c), (x_c, obl_ordered(gout_c))):
            out, cache = nncore.batchnorm_forward(x, layer, training=True, update_running=False,
                                                  want_cache=True)
            assert_bitwise(nncore.batchnorm_forward(x, layer, training=True,
                                                    update_running=False), out)
            got = (out, *nncore.batchnorm_backward(gout, layer, cache))
            if first is None:
                first = got
                errors = [relative_error(a, b) for a, b in zip(got, want)]
                assert max(errors) < bound, errors
            for a, b in zip(got, first):
                assert_bitwise(a, b)
            for a in (out, got[1], cache[1]):
                assert_cbl(a)
        # the plain expressions, the form before row reductions, meet the same bound
        expected_out, expected_cache = expression_batchnorm_forward(x_c, layer)
        expected_input, expected_alpha = expression_batchnorm_backward(gout_c, layer,
                                                                       expected_cache)
        errors = [relative_error(a, b) for a, b in
                  zip((expected_out, expected_input, expected_alpha), want)]
        assert max(errors) < bound, errors

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape", [(16, 128, 24), (16, 256, 1024), (3, 5, 7)])
    @pytest.mark.parametrize("literal", [False, True])
    def test_inference_forward_and_backward(self, literal, shape, dtype):
        rng = np.random.default_rng(8)
        x_c = (3.0 * rng.standard_normal(shape) + 1.0).astype(dtype)
        gout_c = rng.standard_normal(shape).astype(dtype)
        layer = bn_layer(shape[1], literal, dtype=dtype)
        layer.running_mean[:] = rng.uniform(0.5, 1.5, shape[1])
        layer.running_var[:] = rng.uniform(4.0, 14.0, shape[1])
        want = textbook_inference_batchnorm(x_c, gout_c, layer)
        first = None
        for x, gout in ((obl_ordered(x_c), obl_ordered(gout_c)), (x_c, gout_c),
                        (obl_ordered(x_c), gout_c), (x_c, obl_ordered(gout_c))):
            out, cache = nncore.batchnorm_forward(x, layer, training=False, want_cache=True)
            assert_bitwise(nncore.batchnorm_forward(x, layer, training=False), out)
            got = (out, *nncore.batchnorm_inference_backward(gout, layer, cache))
            if first is None:
                first = got
                errors = [relative_error(a, b) for a, b in zip(got, want)]
                assert max(errors) < BN_EPS_BOUND * np.finfo(dtype).eps, errors
            for a, b in zip(got, first):
                assert_bitwise(a, b)
            for a in (out, got[1], cache[1]):
                assert_cbl(a)


def arrays_in(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, ForwardTrace):
        for name in ("o1", "o2", "o3", "o4", "logits", "probs"):
            yield getattr(obj, name)
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from arrays_in(v)
    elif isinstance(obj, (tuple, list)):
        for v in obj:
            yield from arrays_in(v)


def assert_no_shared_memory(first, second, passed_in=()):
    """No array of ``first`` shares memory with one of ``second``. Arrays the
    caller passed in (``passed_in``), which a cache may hold by reference,
    are skipped; every array an op allocates is still checked."""
    def allocated(results):
        return [a for a in arrays_in(results) if not any(a is p for p in passed_in)]

    for a in allocated(first):
        for b in allocated(second):
            assert not np.shares_memory(a, b)


def bn_layer(c, literal, seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    layer = nncore.init_batchnorm(c, literal_form=literal, dtype=dtype)
    layer.alpha[:] = rng.uniform(0.5, 1.5, c)
    layer.beta[:] = rng.uniform(-1.0, 1.0, c)
    return layer


class TestNoAliasing:
    """Two consecutive calls hand back arrays that share no memory, so no
    result can be a view of scratch the next call overwrites."""

    def test_conv(self):
        layer, x, gout = conv_case(5, 8, 12, 6, 40)
        assert_no_shared_memory(nncore.conv1d_forward(x, layer), nncore.conv1d_forward(x, layer))
        first = nncore.conv1d_forward(x, layer, want_cache=True)
        second = nncore.conv1d_forward(x, layer, want_cache=True)
        assert_no_shared_memory(first, second, passed_in=(x,))
        assert_no_shared_memory(nncore.conv1d_backward(gout, layer, first[1]),
                                nncore.conv1d_backward(gout, layer, second[1]))

    @pytest.mark.parametrize("literal", [False, True])
    @pytest.mark.parametrize("training", [True, False])
    def test_batchnorm(self, literal, training):
        layer = bn_layer(12, literal)
        rng = np.random.default_rng(1)
        x = obl_ordered(rng.standard_normal((6, 12, 40)))
        gout = rng.standard_normal((6, 12, 40))
        kwargs = dict(training=training, update_running=False)
        assert_no_shared_memory(nncore.batchnorm_forward(x, layer, **kwargs),
                                nncore.batchnorm_forward(x, layer, **kwargs))
        first = nncore.batchnorm_forward(x, layer, want_cache=True, **kwargs)
        second = nncore.batchnorm_forward(x, layer, want_cache=True, **kwargs)
        assert_no_shared_memory(first, second)
        if training:
            assert_no_shared_memory(nncore.batchnorm_backward(gout, layer, first[1]),
                                    nncore.batchnorm_backward(gout, layer, second[1]))

    def test_relu(self):
        x = np.random.default_rng(2).standard_normal((6, 12, 40))
        assert_no_shared_memory(nncore.relu_forward(x), nncore.relu_forward(x))

    @pytest.mark.parametrize("training", [True, False])
    def test_extractor_forward_and_backward(self, training):
        model = FeatureExtractor(3, blocks=((5, 8), (3, 12), (3, 8)), hidden_dim=6, seed=3)
        x = np.random.default_rng(4).standard_normal((6, 1, 40))
        kwargs = dict(training=training, update_running=False)
        assert_no_shared_memory(model.forward(x, **kwargs), model.forward(x, **kwargs))
        trace1, cache1 = model.forward(x, want_cache=True, **kwargs)
        trace2, cache2 = model.forward(x, want_cache=True, **kwargs)
        assert_no_shared_memory((trace1, cache1), (trace2, cache2), passed_in=(x,))
        if training:
            loss = fbst.SupervisedLoss(np.array([0, 1, 2, 0, 1, 2]))
            assert_no_shared_memory(model.backward(cache1, loss.output_grads(trace1)),
                                    model.backward(cache2, loss.output_grads(trace2)))


def expression_adam_step(params, grads, state):
    """The Adam update as plain numpy expressions, each temporary fresh."""
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - nncore.ADAM_BETA1 ** t
    bc2 = 1.0 - nncore.ADAM_BETA2 ** t
    for name, p in params.items():
        g = grads[name]
        if state.weight_decay != 0.0:
            g = g + state.weight_decay * p
        m = state.first_moment[name]
        v = state.second_moment[name]
        m *= nncore.ADAM_BETA1
        m += (1.0 - nncore.ADAM_BETA1) * g
        v *= nncore.ADAM_BETA2
        v += (1.0 - nncore.ADAM_BETA2) * (g * g)
        m_hat = m / bc1
        v_hat = v / bc2
        p -= state.lr * m_hat / (np.sqrt(v_hat) + nncore.ADAM_EPS)


class TestAdamOracle:
    SHAPES = {"conv.kernel": (12, 8, 5), "conv.bias": (12,), "dense.weight": (6, 12),
              "scalar": ()}

    @pytest.mark.parametrize("param_dtype,grad_dtype", [
        (np.float64, np.float64), (np.float32, np.float32), (np.float32, np.float64)])
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-4])
    def test_steps_match_the_expressions(self, param_dtype, grad_dtype, weight_decay):
        rng = np.random.default_rng(5)
        params = {k: rng.standard_normal(s).astype(param_dtype) for k, s in self.SHAPES.items()}
        expected = {k: v.copy() for k, v in params.items()}
        kwargs = dict(lr=3e-3, weight_decay=weight_decay)
        state = nncore.AdamState.for_params(params, **kwargs)
        oracle = nncore.AdamState.for_params(expected, **kwargs)
        nncore.release_workspace()
        for _ in range(5):
            # large and tiny gradients, so the second moment spans many scales
            grads = {k: (rng.standard_normal(s) * 10.0 ** rng.integers(-6, 3, s)).astype(grad_dtype)
                     for k, s in self.SHAPES.items()}
            held = {k: v.copy() for k, v in grads.items()}
            nncore.adam_step(params, grads, state)
            expression_adam_step(expected, held, oracle)
            for k in params:
                assert_bitwise(params[k], expected[k])
                assert_bitwise(state.first_moment[k], oracle.first_moment[k])
                assert_bitwise(state.second_moment[k], oracle.second_moment[k])
                assert np.array_equal(grads[k], held[k])
            scratch = [buf for buf in nncore._WORKSPACE.buffers if buf is not None]
            assert len(scratch) == 2
            for buf in scratch:
                for arrays in (params, grads, state.first_moment, state.second_moment):
                    assert not any(np.shares_memory(buf, a) for a in arrays.values())
        assert state.step_count == oracle.step_count == 5

    def test_checks_keep_their_messages(self):
        params = {"w": np.zeros((2, 3))}
        state = nncore.AdamState.for_params(params)
        with pytest.raises(nncore.ShapeError, match="gradient for 'w' has shape"):
            nncore.adam_step(params, {"w": np.zeros((3, 2))}, state)
        with pytest.raises(nncore.NumericError, match="non-finite gradient for parameter group 'w'"):
            nncore.adam_step(params, {"w": np.full((2, 3), np.nan)}, state)
        assert np.array_equal(params["w"], np.zeros((2, 3)))


def train_user(seed):
    """Two federated epochs of local training with a loaded teacher; returns
    the loss reports and the student's hidden arrays."""
    rng = np.random.default_rng(seed)
    blocks = ((5, 16), (3, 32), (3, 16))
    student = FeatureExtractor(3, blocks=blocks, hidden_dim=8, seed=seed)
    pair = fbst.FBSTPair(student)
    pair.load_teacher(extractor.extract_hidden_weights(
        FeatureExtractor(3, blocks=blocks, hidden_dim=8, seed=seed + 100)))
    x = rng.standard_normal((40, 1, 96))
    y = rng.integers(0, 3, 40)
    adam = nncore.AdamState.for_params(student.parameters(), lr=3e-3)
    config = fbst.FBSTConfig(batch_size=8)
    reports = [fbst.local_train_epoch(pair, x, y, config, k, adam, rng) for k in (2, 3)]
    return reports, extractor.hidden_arrays(student)


def test_concurrent_threads_match_sequential_runs():
    sequential = [train_user(seed) for seed in (0, 1)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        concurrent = list(pool.map(train_user, (0, 1)))
    for (reports, arrays), (reports_seq, arrays_seq) in zip(concurrent, sequential):
        assert reports == reports_seq
        for key in arrays_seq:
            assert arrays[key].tobytes() == arrays_seq[key].tobytes()


# Traced peak of a two-batch paper-width epoch (student forward and backward
# plus a teacher forward per batch) once the workspace has grown: about
# 49.2 MiB in float64 and 24.7 MiB in float32. A step holds each
# activation-sized array once: batch norm takes two reductions and writes
# one output array each way, the KD differences and then gradients take the
# teacher trace's arrays, the pool gradient is added
# into o3's, and the backward drops each hidden-stage gradient once it is
# added. Building the pool gradient as an array of its own peaked at about
# 52.3 MiB (float64) and 26.2 MiB (float32); building batch norm's squares and
# backward products in scratch, the KD difference fresh and the KD gradients
# beside the teacher's trace at about 73 MiB and 37 MiB; keeping the previous
# batch alive through the next forward at about 91 MiB. For one batch,
# earlier forms peaked at about 103 MiB caching a padded copy of every conv
# input and a ReLU mask, and at about 143 MiB building every temporary
# fresh, as plain numpy expressions do.
PAPER_BATCH_PEAK_BUDGET = {np.float64: 50 * 2**20, np.float32: 25 * 2**20}


def paper_width_pair(dtype=np.float64):
    """A paper-width student in ``dtype`` with a teacher loaded, its Adam
    state and a two-batch training set at length 256."""
    rng = np.random.default_rng(0)
    student = FeatureExtractor(3, seed=1, dtype=dtype)
    pair = fbst.FBSTPair(student)
    pair.load_teacher(extractor.extract_hidden_weights(student))
    x = rng.standard_normal((32, 1, 256))
    y = rng.integers(0, 3, 32)
    adam = nncore.AdamState.for_params(student.parameters(), lr=1e-3)
    return pair, x, y, adam, rng


def traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_paper_width_batch_allocation_budget(dtype):
    pair, x, y, adam, rng = paper_width_pair(dtype)
    config = fbst.FBSTConfig(batch_size=16)

    def epoch():
        fbst.local_train_epoch(pair, x, y, config, 2, adam, rng)

    nncore.release_workspace()
    epoch()  # grows the workspace
    assert traced_peak(epoch) < PAPER_BATCH_PEAK_BUDGET[dtype]
    grown = nncore.workspace_nbytes()
    assert grown > 0
    epoch()
    assert nncore.workspace_nbytes() == grown
    nncore.release_workspace()


def test_paper_width_predict_stays_within_a_training_step():
    # 32 rows at length 256 are two forwards of 16 rows, as in training
    pair, x, y, adam, rng = paper_width_pair()
    fbst.local_train_epoch(pair, x[:16], y[:16], fbst.FBSTConfig(batch_size=16), 2, adam, rng)
    grown = nncore.workspace_nbytes()
    assert traced_peak(lambda: pair.student.predict(x)) < PAPER_BATCH_PEAK_BUDGET[np.float64]
    assert nncore.workspace_nbytes() == grown


def test_paper_width_step_scratch_is_two_named_arrays():
    # The first buffer is block 2's column matrix, [128*5, 3*256] for the
    # three series of its float64 blocks, the largest request: block 3's,
    # [256*3, 2*256] for two series, is smaller. The second holds Adam's
    # per-group terms, the largest conv2's kernel, [256, 128, 5], which also
    # bounds the kernel gradient's partial products; batch norm's row
    # products and the KD loss's squares take blocks of _DOT_BLOCK_BYTES.
    pair, x, y, adam, rng = paper_width_pair()
    itemsize = np.dtype(np.float64).itemsize
    nncore.release_workspace()
    fbst.local_train_epoch(pair, x[:16], y[:16], fbst.FBSTConfig(batch_size=16), 2, adam, rng)
    assert [buf.nbytes for buf in nncore._WORKSPACE.buffers] == [
        128 * 5 * 3 * 256 * itemsize, 256 * 128 * 5 * itemsize]
    nncore.release_workspace()


@pytest.mark.parametrize("length", [256, 1024, 1500])
def test_paper_width_workspace_is_bounded_by_one_column_block(length):
    # A float32 step with a teacher, then a predict: each buffer stays within
    # one column block, or one series' block-3 im2col, [256*3, L], where that
    # is larger. At length 1,024 the series takes 3 MiB, within the block,
    # and the whole batch's would take 48 MiB; at 1,500 the series alone
    # takes 4.4 MiB.
    rng = np.random.default_rng(0)
    student = FeatureExtractor(3, seed=1, dtype=np.float32)
    pair = fbst.FBSTPair(student)
    pair.load_teacher(extractor.extract_hidden_weights(student))
    x = rng.standard_normal((16, 1, length))
    adam = nncore.AdamState.for_params(student.parameters(), lr=1e-3)
    nncore.release_workspace()
    fbst.local_train_epoch(pair, x, rng.integers(0, 3, 16), fbst.FBSTConfig(batch_size=16), 2,
                           adam, rng)
    student.predict(x)
    sizes = [buf.nbytes for buf in nncore._WORKSPACE.buffers]
    assert max(sizes) <= max(nncore._COL_BLOCK_BYTES, 256 * 3 * length * 4), sizes
    nncore.release_workspace()


def test_evaluation_gives_the_workspace_back():
    config = federation.FederationConfig(
        n_tot=2, datasets=[("wavesA", "synthetic"), ("wavesB", "synthetic")], fles=2,
        seed=4, strategy="efdls", batch_size=8, lr=1e-3, blocks=((3, 4), (3, 6), (3, 4)),
        hidden_dim=4, workers=1)
    first, _ = federation.Federation(config).run()
    assert nncore.workspace_nbytes() == 0
    second, _ = federation.Federation(config).run()
    assert nncore.workspace_nbytes() == 0
    assert metrics.summary_dict(second) == metrics.summary_dict(first)
    assert second.table.values.tobytes() == first.table.values.tobytes()


def paper_activation(rng, channels, dtype, layout, scale=1.0, shift=0.0):
    """A paper-width [16, C, 256] activation, C-ordered or [C, B, L]-ordered."""
    a = (scale * rng.standard_normal((16, channels, 256)) + shift).astype(dtype)
    return obl_ordered(a) if layout == "obl" else a


class TestInPlaceForms:
    """Each form that writes over a dead array equals the fresh form bit for
    bit at paper shapes, with operands in either memory order. The fresh
    forms are the default arguments, and store their results in [C, B, L]
    order."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout", ["c", "obl"])
    @pytest.mark.parametrize("channels", [128, 256])
    @pytest.mark.parametrize("literal", [False, True])
    @pytest.mark.parametrize("mode", ["train-cache", "train", "inference"])
    def test_batchnorm_forward_over_its_input(self, mode, literal, channels, layout, dtype):
        rng = np.random.default_rng(channels)
        x = paper_activation(rng, channels, dtype, layout, scale=3.0, shift=1.0)
        layer = bn_layer(channels, literal, dtype=dtype)
        layer.running_var = rng.uniform(0.5, 2.0, channels).astype(dtype)
        kwargs = dict(training=mode != "inference", update_running=False,
                      want_cache=mode == "train-cache")
        fresh = nncore.batchnorm_forward(x, layer, **kwargs)
        dead = x.copy(order="K")
        written = nncore.batchnorm_forward(dead, layer, out=dead, **kwargs)
        if kwargs["want_cache"]:
            (fresh, fresh_cache), (written, cache) = fresh, written
            for got, want in zip(cache[1:], fresh_cache[1:]):
                assert_bitwise(np.asarray(got), np.asarray(want))
            assert_cbl(cache[1])
        assert written is dead
        assert_bitwise(written, fresh)
        assert_cbl(fresh)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("g_layout", ["c", "obl"])
    @pytest.mark.parametrize("x_layout", ["c", "obl"])
    @pytest.mark.parametrize("channels", [128, 256])
    def test_standard_batchnorm_backward_over_xhat(self, channels, x_layout, g_layout, dtype):
        rng = np.random.default_rng(channels + 1)
        x = paper_activation(rng, channels, dtype, x_layout, scale=3.0, shift=1.0)
        gout = paper_activation(rng, channels, dtype, g_layout)
        layer = bn_layer(channels, False, dtype=dtype)
        _, cache = nncore.batchnorm_forward(x, layer, training=True, update_running=False,
                                            want_cache=True)
        fresh = nncore.batchnorm_backward(gout, layer, cache)
        xhat = cache[1]
        consumed = nncore.batchnorm_backward(gout, layer, cache, consume=True)
        assert consumed[0] is xhat
        for got, want in zip(consumed, fresh):
            assert_bitwise(got, want)
        assert_cbl(fresh[0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("into", ["gout", "out"])
    @pytest.mark.parametrize("g_layout,o_layout", [("obl", "obl"), ("c", "obl"), ("c", "c")])
    def test_relu_backward_over_a_dead_array(self, g_layout, o_layout, into, dtype):
        rng = np.random.default_rng(3)
        gout = paper_activation(rng, 128, dtype, g_layout)
        out = nncore.relu_forward(paper_activation(rng, 128, dtype, o_layout))
        fresh = nncore.relu_backward(gout, out)
        target = {"gout": gout, "out": out}[into]
        written = nncore.relu_backward(gout, out, into=target)
        assert written is target
        assert_bitwise(written, fresh)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("length", [1, 24, 256, 1024])
    def test_pool_backward_divides_before_it_broadcasts(self, length, dtype):
        rng = np.random.default_rng(length)
        g = rng.standard_normal((16, 128)).astype(dtype)
        fresh = nncore.global_avg_pool_backward(g, length)
        assert_bitwise(fresh, np.repeat(g[:, :, None], length, axis=2) / length)
        assert_cbl(fresh)
        # folded into another gradient of the pooled activation (o3's KD
        # gradient), it adds the fresh form's values: addition commutes
        other = obl_ordered(rng.standard_normal((16, 128, length)).astype(dtype))
        expected = fresh + other
        folded = nncore.global_avg_pool_backward(g, length, add_to=other)
        assert folded is other
        assert_bitwise(folded, expected)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layout", ["c", "obl"])
@pytest.mark.parametrize("channels", [128, 256])
def test_literal_batchnorm_backward_over_its_centered_input(channels, layout, dtype):
    # the literal form's product of the centered input and its coefficient
    # is written over the consumed cache, and the gradients keep their bits
    rng = np.random.default_rng(channels + 2)
    x = paper_activation(rng, channels, dtype, layout, scale=3.0, shift=1.0)
    gout = paper_activation(rng, channels, dtype, layout)
    layer = bn_layer(channels, True, dtype=dtype)
    _, cache = nncore.batchnorm_forward(x, layer, training=True, update_running=False,
                                        want_cache=True)
    fresh = nncore.batchnorm_backward(gout, layer, cache)
    centered = cache[1].copy()
    consumed = nncore.batchnorm_backward(gout, layer, cache, consume=True)
    for got, want in zip(consumed, fresh):
        assert_bitwise(got, want)
    assert not np.array_equal(cache[1], centered)
    assert_cbl(consumed[0])
