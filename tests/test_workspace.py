"""The per-thread scratch workspace behind the conv and batch-norm ops.

The ops build their temporaries in scratch but must stay bit-identical to the
plain numpy expressions they replace (standard-form batch norm, which reduces
in another order, is held to a float64 textbook instead), never hand out
scratch memory, keep threads apart, and stop allocating once the workspace
has grown.
"""

import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from efdls import extractor, fbst, federation, metrics, nncore
from efdls.extractor import FeatureExtractor, ForwardTrace

PAPER_BLOCKS = ((9, 1, 128), (5, 128, 256), (3, 256, 128))  # (K, C_in, C_out)


def assert_bitwise(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.strides == expected.strides
    assert actual.tobytes() == expected.tobytes()


def einsum_conv_forward(x, layer):
    k = layer.kernel.shape[2]
    pad = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad)))
    out = np.einsum("bclk,ock->bol", sliding_window_view(xp, k, axis=2), layer.kernel,
                    optimize=True)
    out += layer.bias[None, :, None]
    return out


def einsum_conv_backward(gout, layer, x):
    """(g_input, g_kernel) as the einsum expressions compute them."""
    k = layer.kernel.shape[2]
    pad = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad)))
    g_kernel = np.einsum("bot,bctk->ock", gout, sliding_window_view(xp, k, axis=2),
                         optimize=True)
    gp = np.pad(gout, ((0, 0), (0, 0), (k - 1, k - 1)))
    g_padded = np.einsum("bosk,ock->bcs", sliding_window_view(gp, k, axis=2),
                         layer.kernel[:, :, ::-1], optimize=True)
    return g_padded[:, :, pad:pad + x.shape[2]], g_kernel


def obl_ordered(a):
    """The same [B, O, L] values stored in [O, B, L] memory order, the layout
    a conv output and everything computed elementwise from it has."""
    return np.ascontiguousarray(a.transpose(1, 0, 2)).transpose(1, 0, 2)


def conv_case(k, c_in, c_out, batch, length, kernel_dtype=np.float64, seed=0, dtype=np.float64):
    """A conv layer with its kernel in ``kernel_dtype``, and input and
    upstream gradient in ``dtype``."""
    rng = np.random.default_rng(seed)
    layer = nncore.init_conv(c_out, c_in, k, rng, dtype=kernel_dtype)
    x = rng.standard_normal((batch, c_in, length)).astype(dtype, copy=False)
    gout = rng.standard_normal((batch, c_out, length)).astype(dtype, copy=False)
    return layer, x, gout


class TestEinsumOracle:
    def check(self, layer, x_c, gout):
        # blocks 2 and 3 take the previous block's output, which is [O, B, L]-ordered
        for x in (x_c, obl_ordered(x_c)):
            expected = einsum_conv_forward(x, layer)
            out, cache = nncore.conv1d_forward(x, layer, want_cache=True)
            assert cache is x
            assert_bitwise(out, expected)
            assert_bitwise(nncore.conv1d_forward(x, layer), expected)
            for g in (gout, obl_ordered(gout)):
                e_input, e_kernel = einsum_conv_backward(g, layer, x)
                g_input, g_kernel, g_bias = nncore.conv1d_backward(g, layer, cache)
                assert_bitwise(g_input, e_input)
                assert_bitwise(g_kernel, e_kernel)
                np.testing.assert_array_equal(g_bias, g.sum(axis=(0, 2)))
                skipped, g_kernel_only, _ = nncore.conv1d_backward(g, layer, cache,
                                                                   input_grad=False)
                assert skipped is None
                assert_bitwise(g_kernel_only, e_kernel)

    # float32 is a federation's compute dtype, float64 the gradient oracle's
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("length", [24, 256])
    @pytest.mark.parametrize("batch", [16, 32, 7])
    @pytest.mark.parametrize("k,c_in,c_out", PAPER_BLOCKS)
    def test_paper_blocks(self, k, c_in, c_out, batch, length, dtype):
        self.check(*conv_case(k, c_in, c_out, batch, length, kernel_dtype=dtype, dtype=dtype))

    # mixed operands compute in numpy's promotion: matmul widens the kernel exactly
    @pytest.mark.parametrize("k,c_in,c_out", PAPER_BLOCKS)
    def test_float32_kernel_float64_input(self, k, c_in, c_out):
        layer, x, gout = conv_case(k, c_in, c_out, 7, 24, kernel_dtype=np.float32, seed=1)
        self.check(layer, x, gout)
        assert nncore.conv1d_forward(x, layer).dtype == np.float64


# shapes where ignoring one part of nncore._halve_input_grad's rule changes
# bits; TestEinsumOracle covers the halves at paper widths
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("k,c_in,c_out,batch,length", [
    (3, 8, 12, 16, 4096),  # halves of 8 * 4098 columns, 36 rows
    (5, 128, 256, 10, 256),  # 5 * 260 columns: one product
    (3, 128, 256, 4, 2),  # 2 * 4 columns, 768 rows: too small, one product
    (3, 8, 12, 2, 7),  # 1 * 9 columns: one product
])
def test_input_gradient_batch_halves_keep_the_bits(k, c_in, c_out, batch, length, dtype):
    try:
        TestEinsumOracle().check(*conv_case(k, c_in, c_out, batch, length,
                                            kernel_dtype=dtype, dtype=dtype))
    except AssertionError as exc:
        raise AssertionError(
            "conv1d_backward differs from the einsum oracle. The batch split rule in "
            "nncore._halve_input_grad keeps the bits only on a BLAS that tiles a product "
            "as the build it was measured on does (see its docstring); numpy.show_config() "
            "names this one") from exc


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


def textbook_batchnorm(x, gout, layer):
    """Standard-form training batch norm in float64 from the inputs' values:
    (out, g_input, g_alpha)."""
    axes = (0, 2)
    x, gout = x.astype(np.float64), gout.astype(np.float64)
    alpha = layer.alpha.astype(np.float64)[None, :, None]
    beta = layer.beta.astype(np.float64)[None, :, None]
    n = x.shape[0] * x.shape[2]
    centered = x - x.mean(axis=axes)[None, :, None]
    inv = 1.0 / np.sqrt(np.mean(centered ** 2, axis=axes) + nncore.BN_ZETA)
    xhat = centered * inv[None, :, None]
    g_alpha = np.sum(gout * xhat, axis=axes)
    g_mean = np.sum(gout, axis=axes)[None, :, None] / n
    g_input = alpha * inv[None, :, None] * (gout - g_mean - xhat * g_alpha[None, :, None] / n)
    return alpha * xhat + beta, g_input, g_alpha


def relative_error(actual, reference):
    """Largest absolute difference over the reference's largest magnitude."""
    return float(np.max(np.abs(actual.astype(np.float64) - reference)) / np.max(np.abs(reference)))


class TestBatchNormOracle:
    """The literal form equals its plain-expression form bit for bit, layouts
    included: its reductions sum in memory order, and a gradient's layout
    decides the conv backward's BLAS call. The standard form sums in another
    order than its plain expressions, so it is held to a float64 textbook
    batch norm instead, beside the plain expressions themselves."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape", [(16, 256, 64), (3, 5, 7)])
    @pytest.mark.parametrize("g_layout", ["c", "obl"])
    @pytest.mark.parametrize("x_layout", ["c", "obl"])
    def test_literal_training_forward_and_backward(self, x_layout, g_layout, shape, dtype):
        rng = np.random.default_rng(5)
        x = (3.0 * rng.standard_normal(shape) + 1.0).astype(dtype, copy=False)
        gout = rng.standard_normal(shape).astype(dtype, copy=False)
        x = obl_ordered(x) if x_layout == "obl" else x
        gout = obl_ordered(gout) if g_layout == "obl" else gout
        layer = bn_layer(shape[1], True, dtype=dtype)
        expected_out, expected_cache = expression_batchnorm_forward(x, layer)
        out, cache = nncore.batchnorm_forward(x, layer, training=True, update_running=False,
                                              want_cache=True)
        assert_bitwise(out, expected_out)
        assert_bitwise(nncore.batchnorm_forward(x, layer, training=True, update_running=False),
                       expected_out)
        for got, want in zip(cache[1:], expected_cache[1:]):
            assert_bitwise(got, want)
        g_input, g_alpha, _ = nncore.batchnorm_backward(gout, layer, cache)
        expected_input, expected_alpha = expression_batchnorm_backward(gout, layer, cache)
        assert_bitwise(g_input, expected_input)
        assert_bitwise(g_alpha, expected_alpha)

    @pytest.mark.parametrize("layout", ["c", "obl"])
    @pytest.mark.parametrize("length", [24, 256, 1024])
    @pytest.mark.parametrize("channels", [128, 256])
    def test_standard_form_against_a_float64_textbook(self, channels, length, layout):
        shape = (16, channels, length)
        rng = np.random.default_rng(7)
        x = (3.0 * rng.standard_normal(shape) + 1.0).astype(np.float32)
        gout = rng.standard_normal(shape).astype(np.float32)
        if layout == "obl":
            x, gout = obl_ordered(x), obl_ordered(gout)
        layer = bn_layer(channels, False, dtype=np.float32)
        want = textbook_batchnorm(x, gout, layer)
        out, cache = nncore.batchnorm_forward(x, layer, training=True, update_running=False,
                                              want_cache=True)
        g_input, g_alpha, _ = nncore.batchnorm_backward(gout, layer, cache)
        assert_bitwise(nncore.batchnorm_forward(x, layer, training=True, update_running=False),
                       out)
        # the input gradient is stored [C, B, L]-ordered, as a conv output is
        assert g_input.transpose(1, 0, 2).flags.c_contiguous
        errors = [relative_error(a, b) for a, b in zip((out, g_input, g_alpha), want)]
        assert max(errors) < 1e-6, errors
        # the plain expressions, the previous form, meet the same bound
        expected_out, expected_cache = expression_batchnorm_forward(x, layer)
        expected_input, expected_alpha = expression_batchnorm_backward(gout, layer,
                                                                       expected_cache)
        errors = [relative_error(a, b) for a, b in
                  zip((expected_out, expected_input, expected_alpha), want)]
        assert max(errors) < 1e-6, errors


def random_layout(rng, shape):
    """Random values of ``shape`` stored in a random axis order, with some
    axes reversed."""
    order = rng.permutation(len(shape))
    a = rng.standard_normal([shape[ax] for ax in order]).transpose(np.argsort(order))
    for ax in range(len(shape)):
        if rng.random() < 0.3:
            a = np.flip(a, ax)
    return a


def test_scratch_layout_is_numpys_fresh_layout():
    """Scratch for an elementwise result has the strides numpy gives a fresh
    result over the full operands, on every axis longer than 1 (a size-1
    axis's stride never moves an element)."""
    rng = np.random.default_rng(12)
    for _ in range(2000):
        shape = tuple(int(n) for n in rng.integers(1, 6, size=rng.integers(1, 5)))
        operands = [random_layout(rng, shape) for _ in range(rng.integers(1, 3))]
        fresh = operands[0] * operands[-1] if len(operands) == 2 else -operands[0]
        scratch = nncore.scratch_like("prod", np.float64, *operands)
        assert scratch.shape == shape
        assert [s for n, s in zip(shape, scratch.strides) if n > 1] == \
            [s for n, s in zip(shape, fresh.strides) if n > 1]


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
# 57.1 MiB in float64 and 28.6 MiB in float32. A step holds each
# activation-sized array once: batch norm takes two reductions and writes
# one output array each way, the KD difference lives in scratch, the KD
# gradients take the teacher trace's arrays, and the backward drops each
# hidden-stage gradient once it is added. Building batch norm's squares and
# backward products in scratch, the KD difference fresh and the KD gradients
# beside the teacher's trace peaked at about 73 MiB (float64) and 37 MiB
# (float32); keeping the previous batch alive through the next forward at
# about 91 MiB. For one batch, earlier forms peaked at about 103 MiB caching
# a padded copy of every conv input and a ReLU mask, and at about 143 MiB
# building every temporary fresh, as plain numpy expressions do.
PAPER_BATCH_PEAK_BUDGET = {np.float64: 58 * 2**20, np.float32: 29 * 2**20}


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
    # The first buffer is block 3's forward im2col, [256*3, 16*256], the
    # largest request: the block-2 input-gradient im2col, [256*5, 16*260],
    # is built over two halves of the batch. The second holds only conv2's flipped kernel, [128, 256*5],
    # and Adam's per-group terms, no larger: batch norm's gradients need no
    # scratch there, and a batch-norm input gradient reaches the conv
    # backward in the [C, B, L] order its product takes without a copy.
    pair, x, y, adam, rng = paper_width_pair()
    itemsize = np.dtype(np.float64).itemsize
    nncore.release_workspace()
    fbst.local_train_epoch(pair, x[:16], y[:16], fbst.FBSTConfig(batch_size=16), 2, adam, rng)
    assert [buf.nbytes for buf in nncore._WORKSPACE.buffers] == [
        256 * 3 * 16 * 256 * itemsize, 128 * 256 * 5 * itemsize]
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
    bit, layout included, at paper shapes in both memory orders. The fresh
    forms are the default arguments."""

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
        assert written is dead
        assert_bitwise(written, fresh)

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
        # xhat is overwritten only where it is stored as the fresh gradient is
        assert (consumed[0] is xhat) == (x_layout == "obl")
        for got, want in zip(consumed, fresh):
            assert_bitwise(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("g_layout,o_layout,into", [
        ("obl", "obl", "out"),  # blocks 1 and 2: conv input gradient, block output
        ("c", "obl", "gout"),  # block 3: pool gradient, block output (not the fresh order)
        ("c", "c", "out"), ("c", "c", "gout"), ("obl", "obl", "gout")])
    def test_relu_backward_over_a_dead_array(self, g_layout, o_layout, into, dtype):
        rng = np.random.default_rng(3)
        gout = paper_activation(rng, 128, dtype, g_layout)
        out = nncore.relu_forward(paper_activation(rng, 128, dtype, o_layout))
        fresh = nncore.relu_backward(gout, out)
        target = {"gout": gout, "out": out}[into]
        assert target.strides == fresh.strides
        written = nncore.relu_backward(gout, out, into=target)
        assert written is target
        assert_bitwise(written, fresh)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("length", [1, 24, 256, 1024])
    def test_pool_backward_divides_before_it_repeats(self, length, dtype):
        g = np.random.default_rng(length).standard_normal((16, 128)).astype(dtype)
        assert_bitwise(nncore.global_avg_pool_backward(g, length),
                       np.repeat(g[:, :, None], length, axis=2) / length)
