"""Numerical core: 1-D conv / batch-norm / dense layers with exact reverse-mode
gradients, the Adam optimizer, and a finite-difference gradient oracle.

Tensors are plain ``numpy.ndarray`` objects, with series data laid out as
``[batch, channel, length]``. Layers own their parameter arrays, forward
functions return fresh outputs, and backward functions turn an upstream
gradient into fresh parameter/input gradients. A backward takes what its
forward saw: the input for conv and dense, the output for ReLU, and for batch
norm the cache its forward derives under ``want_cache``. The caller holds
those arrays by reference, so nothing may write to them before the matching
backward has run.

Parameters are stored in the dtype they were given: a student's in float64,
a teacher's in the float32 of the bundle it downloaded. Each forward reads
its parameters in the dtype numpy promotes them and the input to
(``_compute_param``, the one place that decides it). Widening float32 to
float64 is exact, so float32 weights on float64 data compute the same bits
as float64 weights holding the same values, and a parameter already in the
compute dtype is read uncopied.

The one shared state is per-thread scratch. The conv and batch-norm ops build
their internal temporaries (im2col matrices, a transposed gradient copy, a
flipped kernel, centered values, squares and backward products), and Adam
its per-group terms, in the calling thread's workspace: two flat buffers, each
grown to the largest request and viewed at the shape and memory order the op
needs, until ``release_workspace`` gives them back. No scratch view outlives
the op that took it, and nothing an op returns or caches lives there, so
results never alias each other. The arithmetic is the one numpy's own
expressions perform, in the same order and memory layout, so the bits match;
numpy itself picks the layout of each elementwise temporary, from its result
on a two-wide corner of the operands. Each thread has its own workspace,
which makes the module safe to drive from parallel workers as long as each
worker owns its own layers.

``finite_diff_gradcheck`` is the one finite-difference oracle. It visits each
probed parameter entry once, compares its central-difference quotient with
the analytic gradient, and folds the entry's relative error into the worst
with ``np.maximum``, so a NaN from the loss or the gradient fails the check.
Its default step, refinement and denominator settings are the ``FD_*``
constants.

Settings no caller varies are constants: ``BN_ZETA`` and ``BN_MOMENTUM``,
which every user's network must share since a bundle carries neither, and
Adam's ``ADAM_BETA1``, ``ADAM_BETA2`` and ``ADAM_EPS``.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np


class ShapeError(ValueError):
    """Array dimensions are inconsistent with what an op requires."""


class NumericError(ArithmeticError):
    """A non-finite value appeared where the math requires finite numbers."""


class GradientStateError(RuntimeError):
    """A backward pass was requested without a matching cached forward."""


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------

@dataclass
class ConvLayer:
    """Same-padding 1-D convolution. Kernel is [C_out, C_in, K] with K odd."""

    kernel: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        if self.kernel.ndim != 3:
            raise ShapeError(f"conv kernel must be 3-D [C_out, C_in, K], got shape {self.kernel.shape}")
        k = self.kernel.shape[2]
        if k % 2 == 0:
            raise ShapeError(f"conv kernel width must be odd for symmetric same-padding, got K={k}")
        if self.bias.shape != (self.kernel.shape[0],):
            raise ShapeError(f"conv bias shape {self.bias.shape} does not match C_out={self.kernel.shape[0]}")


BN_ZETA = 1e-5
BN_MOMENTUM = 0.9


@dataclass
class BatchNormLayer:
    """Per-channel batch normalization over the batch and length axes.

    ``alpha`` scales and ``beta`` shifts the normalized value; ``BN_ZETA``
    keeps the denominator positive. Two normalization modes exist:

    * standard (default): divide by sqrt(population variance + BN_ZETA), and
      track running mean/variance with ``BN_MOMENTUM`` decay for inference.
    * literal: divide by (sqrt(summed squared deviations) + BN_ZETA). This
      form is batch-size dependent; it is kept behind a flag for fidelity
      experiments. Its tracked running statistic is the summed-squared
      deviation itself, so inference applies the same normalization the
      training mode used.
    """

    alpha: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    literal_form: bool = False


@dataclass
class DenseLayer:
    """Fully-connected layer: weight [D_out, D_in], bias [D_out]."""

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        if self.weight.ndim != 2:
            raise ShapeError(f"dense weight must be 2-D, got shape {self.weight.shape}")
        if self.bias.shape != (self.weight.shape[0],):
            raise ShapeError(f"dense bias shape {self.bias.shape} does not match D_out={self.weight.shape[0]}")


def init_conv(c_out: int, c_in: int, k: int, rng: np.random.Generator, dtype=np.float64) -> ConvLayer:
    """Uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)] with fan_in = C_in*K."""
    bound = 1.0 / np.sqrt(c_in * k)
    kernel = rng.uniform(-bound, bound, size=(c_out, c_in, k)).astype(dtype, copy=False)
    bias = rng.uniform(-bound, bound, size=c_out).astype(dtype, copy=False)
    return ConvLayer(kernel, bias)


def init_batchnorm(c: int, literal_form: bool = False, dtype=np.float64) -> BatchNormLayer:
    return BatchNormLayer(
        alpha=np.ones(c, dtype=dtype),
        beta=np.zeros(c, dtype=dtype),
        running_mean=np.zeros(c, dtype=dtype),
        running_var=np.ones(c, dtype=dtype),
        literal_form=literal_form,
    )


def init_dense(d_out: int, d_in: int, rng: np.random.Generator, dtype=np.float64) -> DenseLayer:
    bound = 1.0 / np.sqrt(d_in)
    weight = rng.uniform(-bound, bound, size=(d_out, d_in)).astype(dtype, copy=False)
    bias = rng.uniform(-bound, bound, size=d_out).astype(dtype, copy=False)
    return DenseLayer(weight, bias)


# ---------------------------------------------------------------------------
# Per-thread scratch
# ---------------------------------------------------------------------------

class _Workspace(threading.local):
    def __init__(self):
        self.buffers = [None, None]


_WORKSPACE = _Workspace()

# Each scratch role names one of the two buffers. Roles that share a buffer are
# never live at once: an op holds at most one array from each buffer at a time,
# and no scratch array outlives its op.
_BUFFER_OF = {
    "cols": 0, "centered": 0, "gh": 0, "adam_grad": 0,
    "gout_t": 1, "kernel_t": 1, "squares": 1, "prod": 1, "adam_term": 1,
}


def workspace_nbytes() -> int:
    """Bytes held by the calling thread's scratch buffers."""
    return sum(buf.nbytes for buf in _WORKSPACE.buffers if buf is not None)


def release_workspace() -> None:
    """Drop the calling thread's scratch buffers; the next op grows them anew."""
    _WORKSPACE.buffers = [None, None]


def _scratch(role: str, shape, dtype, order=None) -> np.ndarray:
    """The calling thread's buffer for ``role``, viewed as ``shape`` and
    ``dtype`` with its axes stored outermost-first in ``order`` (C order by
    default). The buffer grows to the largest request and keeps its stale
    contents."""
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    buffers = _WORKSPACE.buffers
    i = _BUFFER_OF[role]
    if buffers[i] is None or buffers[i].nbytes < nbytes:
        buffers[i] = None  # release the old buffer before allocating its successor
        buffers[i] = np.empty(nbytes, dtype=np.uint8)
    flat = buffers[i][:nbytes].view(dtype)
    if order is None:
        return flat.reshape(shape)
    stored = flat.reshape([shape[a] for a in order])
    return stored.transpose(sorted(range(len(order)), key=order.__getitem__))


def _scratch_like(role: str, dtype, *arrays) -> np.ndarray:
    """Scratch for an elementwise result over ``arrays`` (all of one shape),
    laid out as numpy lays out a fresh one. Numpy itself decides, on a
    two-wide corner of the one or two operands, which keeps every stride its
    axis sort reads; copysign raises no floating-point warning, whatever the
    values. Reductions sum in memory order, so this keeps their bits."""
    corner = (slice(2),) * arrays[0].ndim
    probe = np.copysign(arrays[0][corner], arrays[-1][corner])
    order = sorted(range(probe.ndim), key=lambda ax: -probe.strides[ax])
    return _scratch(role, arrays[0].shape, dtype, order)


def _scratch_copy(role: str, a: np.ndarray) -> np.ndarray:
    """A C-order copy of ``a`` in scratch."""
    out = _scratch(role, a.shape, a.dtype)
    np.copyto(out, a)
    return out


# ---------------------------------------------------------------------------
# Forward / backward ops
# ---------------------------------------------------------------------------

def _compute_param(param: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``param`` as a forward on input ``x`` computes with it: in the dtype
    numpy promotes the two to, which never narrows it. A float32 parameter on
    float64 input is widened exactly, so it computes what a float64 copy
    would; a parameter already in that dtype is returned as it is."""
    return param.astype(np.result_type(param, x), copy=False)


def _im2col(a: np.ndarray, k: int, pad: int) -> np.ndarray:
    """The [C*K, B*T] matrix of the width-k windows of [B, C, L] input
    zero-extended by ``pad`` at both ends of its length axis, with
    T = L + 2*pad - k + 1, ordered [C, K, B, T]: the copy einsum makes of
    the padded input's windows. It is written from ``a`` directly, window
    offset by window offset, so no padded copy is made: offset j of output
    position t reads a[..., t + j - pad], or zero outside the input."""
    b, c, n = a.shape
    t = n + 2 * pad - k + 1
    cols = _scratch("cols", (c, k, b, t), a.dtype)
    for j in range(k):
        lo = min(max(pad - j, 0), t)
        hi = max(min(n + pad - j, t), lo)
        cols[:, j, :, :lo] = 0
        cols[:, j, :, hi:] = 0
        cols[:, j, :, lo:hi] = a[:, :, lo + j - pad:hi + j - pad].transpose(1, 0, 2)
    return cols.reshape(c * k, b * t)


def _gout_matrix(gout: np.ndarray) -> np.ndarray:
    """Upstream gradient [B, O, L] as the [B*L, O] matrix einsum multiplies:
    a view when gout's memory is [O, B, L]-ordered, else a C-order copy. The
    two layouts take different BLAS transpose flags, which can change bits,
    so the choice is einsum's."""
    t = gout.transpose(0, 2, 1)
    b, n, o = t.shape
    if b == 1 or n == 1 or t.strides[0] == t.strides[1] * n:
        return t.reshape(b * n, o)
    return _scratch_copy("gout_t", t).reshape(b * n, o)


def conv1d_forward(x: np.ndarray, layer: ConvLayer, want_cache: bool = False):
    """Same-padding direct convolution of [B, C_in, L] -> [B, C_out, L].

    out[b, o, t] = sum_{c,k} kernel[o, c, k] * padded(x)[b, c, t + k] + bias[o]

    This is the product ``np.einsum("bclk,ock->bol", windows, kernel,
    optimize=True)`` runs: [C_out, C_in*K] @ [C_in*K, B*L], returned as a
    [B, C_out, L] view of the [C_out, B, L] result. The output is the only
    fresh allocation, beside the widened copy of a kernel stored narrower
    than its input. The backward takes ``x`` itself, whose windows it copies
    again, so nothing may write to ``x`` before that backward.
    ``want_cache`` returns ``(out, x)``. The library never passes it; it
    stays because the benchmark harness's operation-count test
    (``perfbench/tests``) calls the op that way.
    """
    _require_3d(x, "conv input")
    if x.shape[1] != layer.kernel.shape[1]:
        raise ShapeError(
            f"conv input channel axis has size {x.shape[1]} but kernel expects C_in={layer.kernel.shape[1]}"
        )
    if x.shape[2] < 1:
        raise ShapeError(f"conv input length axis must be >= 1, got {x.shape[2]}")
    b, c, length = x.shape
    o, _, k = layer.kernel.shape
    kernel = _compute_param(layer.kernel, x)
    # overflow here is converted into NumericError by the callers' finiteness checks
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.matmul(kernel.reshape(o, c * k), _im2col(x, k, (k - 1) // 2))
        out = out.reshape(o, b, length).transpose(1, 0, 2)
        out += _compute_param(layer.bias, x)[None, :, None]
    if want_cache:
        return out, x
    return out


def conv1d_backward(gout: np.ndarray, layer: ConvLayer, x: np.ndarray, input_grad: bool = True):
    """Gradients of the same-padding convolution, given the forward's input
    ``x``.

    Returns (g_input, g_kernel, g_bias); g_input is None when ``input_grad``
    is False. g_input is the correlation of the zero-extended upstream
    gradient with the length-reversed kernel. Both products are the ones
    einsum runs: g_kernel is [C_in*K, B*L] @ [B*L, C_out] viewed as
    [C_out, C_in, K], and g_input is [C_in, C_out*K] @ [C_out*K, B*(L+K-1)],
    viewed as [B, C_in, L+K-1] and sliced.

    The input-gradient im2col is [C_out*K, B*(L+K-1)]. Where C_out > C_in it
    is wider than the forward's, so where ``_halve_input_grad`` allows it is
    built, and its product run, over the two halves of the batch in turn,
    each writing its column block of the one [C_in, B*(L+K-1)] result.
    """
    o, c, k = layer.kernel.shape
    b, _, length = gout.shape
    pad = (k - 1) // 2
    with np.errstate(over="ignore", invalid="ignore"):
        g_kernel = np.matmul(_im2col(x, k, pad), _gout_matrix(gout))
        g_kernel = g_kernel.reshape(c, k, o).transpose(2, 0, 1)
        g_bias = gout.sum(axis=(0, 2))
        if not input_grad:
            return None, g_kernel, g_bias
        span = length + k - 1
        kflip = _scratch_copy("kernel_t", layer.kernel[:, :, ::-1].transpose(1, 0, 2))
        kflip = kflip.reshape(c, o * k)
        g_padded = np.empty((c, b * span), dtype=np.result_type(layer.kernel, gout))
        bounds = (0, b // 2, b) if _halve_input_grad(o, c, k, b, span) else (0, b)
        for lo, hi in zip(bounds, bounds[1:]):
            np.matmul(kflip, _im2col(gout[lo:hi], k, k - 1),
                      out=g_padded[:, lo * span:hi * span])
    g_padded = g_padded.reshape(c, b, span).transpose(1, 0, 2)
    g_input = g_padded[:, :, pad:pad + length]
    return g_input, g_kernel, g_bias


def _halve_input_grad(c_out: int, c_in: int, k: int, batch: int, span: int) -> bool:
    """Whether a conv's input-gradient product runs over the two halves of
    the batch: where C_out > C_in, so its im2col is wider than the forward's,
    the batch is even, each half is a multiple of 8 columns
    (``batch / 2 * span``) wide, and each half im2col holds at least 2**20
    values (8 MiB in float64).

    A GEMM may sum an output element in an order that depends on where its
    column falls in the product and on the product's size, so a split is
    free only where it keeps the bits. On the OpenBLAS build this was
    measured on (scipy-openblas 0.3.31 on x86-64, its SkylakeX, Haswell,
    Sandybridge and generic kernels, at 1 and 2 threads),
    two equal halves each a multiple of 8 columns wide gave every bit of the
    whole product, while unequal or unaligned parts often changed the last
    bits. Halves under about 10**6 multiply-adds can also change them, since
    OpenBLAS then runs its small-matrix kernels; the 2**20 floor keeps every
    half above that size, whatever C_in, and leaves short series unsplit,
    where the saving is small. Another BLAS, CPU or thread count may tile
    differently: ``TestEinsumOracle`` and
    ``test_input_gradient_batch_halves_keep_the_bits`` then fail."""
    half_cols = batch // 2 * span
    return (c_out > c_in and batch % 2 == 0 and half_cols % 8 == 0
            and c_out * k * half_cols >= 2**20)


_BN_REDUCE_AXES = (0, 2)


def _per_channel(v: np.ndarray) -> np.ndarray:
    """Broadcast a per-channel vector [C] against [B, C, L]."""
    return v[None, :, None]


def _require_3d(x: np.ndarray, what: str) -> None:
    if x.ndim != 3:
        raise ShapeError(f"{what} must be [batch, channel, length], got shape {x.shape}")


def batchnorm_forward(x: np.ndarray, layer: BatchNormLayer, training: bool,
                      update_running: bool | None = None, want_cache: bool = False):
    """Normalize per channel over the batch and length axes of [B, C, L]
    input. Training mode uses batch statistics (and by default folds them
    into the running statistics); inference mode uses the running statistics
    only. Temporaries that no cache keeps live in scratch.
    """
    _require_3d(x, "batchnorm input")
    if x.shape[0] < 1 and training:
        raise ShapeError("batchnorm training mode requires a non-empty batch")
    if update_running is None:
        update_running = training

    alpha = _per_channel(_compute_param(layer.alpha, x))
    beta = _per_channel(_compute_param(layer.beta, x))

    if training:
        # overflow here is converted into NumericError by the finiteness checks
        with np.errstate(over="ignore", invalid="ignore"):
            mu = x.mean(axis=_BN_REDUCE_AXES)
            if not np.isfinite(mu).all():
                raise NumericError("non-finite batch statistics in batchnorm")
            keep_centered = want_cache and layer.literal_form
            centered = np.subtract(x, _per_channel(mu), out=None if keep_centered
                                   else _scratch_like("centered", np.result_type(x, mu), x))
            squares = np.multiply(centered, centered,
                                  out=_scratch_like("squares", centered.dtype, centered))
            if layer.literal_form:
                sumsq = np.sum(squares, axis=_BN_REDUCE_AXES)
                delta = np.sqrt(sumsq)
                denom = delta + BN_ZETA
                out = alpha * centered / _per_channel(denom) + beta
                stat = sumsq
                cache = ("literal", centered, delta, denom)
            else:
                var = np.mean(squares, axis=_BN_REDUCE_AXES)
                inv = 1.0 / np.sqrt(var + BN_ZETA)
                # an uncached xhat takes the squares' place
                xhat = np.multiply(centered, _per_channel(inv),
                                   out=None if want_cache else squares)
                out = alpha * xhat + beta
                stat = var
                cache = ("standard", xhat, inv)
        if not np.isfinite(stat).all():
            raise NumericError("non-finite batch statistics in batchnorm")
        if update_running:
            m = BN_MOMENTUM
            layer.running_mean = m * _compute_param(layer.running_mean, x) + (1.0 - m) * mu
            layer.running_var = m * _compute_param(layer.running_var, x) + (1.0 - m) * stat
    else:
        # widened before any arithmetic: a float32 array plus the float BN_ZETA
        # would round in float32
        mu = _compute_param(layer.running_mean, x)
        running_var = _compute_param(layer.running_var, x)
        if layer.literal_form:
            denom = np.sqrt(running_var) + BN_ZETA
        else:
            denom = np.sqrt(running_var + BN_ZETA)
        scale = 1.0 / denom
        centered = np.subtract(x, _per_channel(mu), out=None if want_cache
                               else _scratch_like("centered", np.result_type(x, mu), x))
        out = alpha * centered * _per_channel(scale) + beta
        cache = ("inference", centered, scale)

    if want_cache:
        return out, cache
    return out


def batchnorm_backward(gout: np.ndarray, layer: BatchNormLayer, cache):
    """Gradients through training-mode batch normalization.

    Returns (g_input, g_alpha, g_beta). Both normalization modes are exact;
    the literal form uses

        dL/dx_k = alpha * [ (g_k - mean(g)) / D - c_k * sum(g*c) / (delta * D^2) ]

    with c the centered input, delta the root summed-squared deviation and
    D = delta + BN_ZETA. Every temporary but g_input lives in scratch.
    """
    if cache is None:
        raise GradientStateError("batchnorm_backward called without a cached forward")
    _require_3d(gout, "batchnorm upstream gradient")
    kind = cache[0]
    alpha = _per_channel(layer.alpha)
    g_beta = gout.sum(axis=_BN_REDUCE_AXES)
    if kind == "standard":
        _, xhat, inv = cache
        prod = _scratch_like("prod", np.result_type(gout, xhat), gout, xhat)
        g_alpha = np.sum(np.multiply(gout, xhat, out=prod), axis=_BN_REDUCE_AXES)
        gh = np.multiply(gout, alpha, out=_scratch_like("gh", np.result_type(gout, alpha), gout))
        mean_gh = gh.mean(axis=_BN_REDUCE_AXES)
        prod = _scratch_like("prod", np.result_type(gh, xhat), gh, xhat)
        mean_gh_xhat = np.mean(np.multiply(gh, xhat, out=prod), axis=_BN_REDUCE_AXES)
        prod = _scratch_like("prod", np.result_type(xhat, mean_gh_xhat), xhat)
        g_input = _per_channel(inv) * (gh - _per_channel(mean_gh)
                                       - np.multiply(xhat, _per_channel(mean_gh_xhat), out=prod))
    elif kind == "literal":
        _, centered, delta, denom = cache
        prod = _scratch_like("prod", np.result_type(gout, centered), gout, centered)
        s_gc = np.sum(np.multiply(gout, centered, out=prod), axis=_BN_REDUCE_AXES)
        g_alpha = s_gc / denom
        mean_g = gout.mean(axis=_BN_REDUCE_AXES)
        delta_safe = np.maximum(delta, np.finfo(gout.dtype).tiny)
        coef = s_gc / (delta_safe * denom * denom)
        prod = _scratch_like("prod", np.result_type(centered, coef), centered)
        g_input = alpha * ((gout - _per_channel(mean_g)) / _per_channel(denom)
                           - np.multiply(centered, _per_channel(coef), out=prod))
    else:
        raise GradientStateError("batchnorm_backward needs a training-mode cache")
    return g_input, g_alpha, g_beta


def batchnorm_inference_backward(gout: np.ndarray, layer: BatchNormLayer, cache):
    """Gradients through inference-mode batch normalization, where the
    running statistics are constants: out = alpha * (x - rm) * scale + beta.

    Returns (g_input, g_alpha, g_beta)."""
    kind, centered, scale = cache
    if kind != "inference":
        raise GradientStateError("inference backward needs an inference-mode cache")
    _require_3d(gout, "batchnorm upstream gradient")
    g_input = gout * _per_channel(layer.alpha * scale)
    g_alpha = np.sum(gout * centered * _per_channel(scale), axis=_BN_REDUCE_AXES)
    g_beta = gout.sum(axis=_BN_REDUCE_AXES)
    return g_input, g_alpha, g_beta


def relu_forward(x: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    """max(x, 0), written into ``out`` when given (``out=x`` rectifies in
    place). The backward takes this output, positive exactly where x is, so
    nothing may write to it before the backward."""
    return np.maximum(x, 0.0, out=out)


def relu_backward(gout: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Gradient through ReLU, given the forward's output."""
    return gout * (out > 0.0)


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    """Mean over the length axis: [B, C, L] -> [B, C]."""
    if x.ndim != 3:
        raise ShapeError(f"global_avg_pool expects [batch, channel, length], got shape {x.shape}")
    if x.shape[2] == 0:
        raise ShapeError("global_avg_pool requires a non-empty length axis")
    return x.mean(axis=2)


def global_avg_pool_backward(gout: np.ndarray, length: int) -> np.ndarray:
    return np.repeat(gout[:, :, None], length, axis=2) / length


def dense_forward(x: np.ndarray, layer: DenseLayer) -> np.ndarray:
    """[B, D_in] @ weight.T + bias -> [B, D_out]."""
    if x.ndim != 2:
        raise ShapeError(f"dense input must be 2-D [batch, features], got shape {x.shape}")
    if x.shape[1] != layer.weight.shape[1]:
        raise ShapeError(
            f"dense input feature axis has size {x.shape[1]} but weight expects D_in={layer.weight.shape[1]}"
        )
    return x @ _compute_param(layer.weight, x).T + _compute_param(layer.bias, x)[None, :]


def dense_backward(gout: np.ndarray, layer: DenseLayer, x: np.ndarray):
    """(g_input, g_weight, g_bias), given the forward's input ``x``."""
    g_weight = gout.T @ x
    g_bias = gout.sum(axis=0)
    g_input = gout @ layer.weight
    return g_input, g_weight, g_bias


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for stability."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Bias-corrected Adam with L2 regularization folded into the gradient.

    The L2 term (``weight_decay * param``) is added to each gradient before
    the moment updates, matching optimizer-side L2 rather than decoupled
    weight decay. The decays and the denominator's floor are ``ADAM_*``.
    """

    lr: float = 1e-4
    weight_decay: float = 1e-4
    step_count: int = 0
    first_moment: dict = field(default_factory=dict)
    second_moment: dict = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: dict, **kwargs) -> "AdamState":
        state = cls(**kwargs)
        for name, p in params.items():
            state.first_moment[name] = np.zeros_like(p)
            state.second_moment[name] = np.zeros_like(p)
        return state


def adam_step(params: dict, grads: dict, state: AdamState) -> None:
    """One in-place Adam update over a dict of named parameter arrays.

    Per group it performs the operations of the plain expressions

        g = g + weight_decay * p               (when weight_decay != 0)
        m *= ADAM_BETA1;  m += (1 - ADAM_BETA1) * g
        v *= ADAM_BETA2;  v += (1 - ADAM_BETA2) * (g * g)
        p -= lr * (m / bc1) / (sqrt(v / bc2) + ADAM_EPS)

    in the same order and dtypes, so the bits match, but builds every
    temporary in scratch: the decayed gradient and then the step's numerator
    in one buffer; the decay, the moment terms and then the denominator in
    the other.
    """
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ShapeError(f"gradient for '{name}' has shape {g.shape}, parameter has {p.shape}")
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient for parameter group '{name}'")
        if state.weight_decay != 0.0:
            decay = np.multiply(state.weight_decay, p,
                                out=_scratch("adam_term", p.shape, p.dtype))
            g = np.add(g, decay, out=_scratch("adam_grad", p.shape, np.result_type(g, decay)))
        m = state.first_moment[name]
        v = state.second_moment[name]
        term = _scratch("adam_term", p.shape, g.dtype)
        m *= ADAM_BETA1
        m += np.multiply(1.0 - ADAM_BETA1, g, out=term)
        v *= ADAM_BETA2
        v += np.multiply(1.0 - ADAM_BETA2, np.multiply(g, g, out=term), out=term)
        numerator = np.divide(m, bc1, out=_scratch("adam_grad", p.shape, m.dtype))
        np.multiply(state.lr, numerator, out=numerator)
        denominator = np.divide(v, bc2, out=_scratch("adam_term", p.shape, v.dtype))
        np.sqrt(denominator, out=denominator)
        denominator += ADAM_EPS
        p -= np.divide(numerator, denominator, out=numerator)


# ---------------------------------------------------------------------------
# Finite-difference oracle
# ---------------------------------------------------------------------------

# The oracle's fixed settings. FD_EPSILON is the default probe step, and an
# entry whose relative error is above FD_REFINE_THRESHOLD is re-probed at a
# tenth of the step, at most FD_REFINE_LEVELS times. FD_DENOM_FLOOR floors the denominator of the
# relative error: it absorbs central-difference noise (empirically up to
# ~2e-10 absolute for unit-scale losses at double precision after a deep-net
# forward) wherever the true gradient is at or near zero. A conv bias
# followed by batch norm is provably inert (the mean subtraction cancels it),
# and single kernel entries can sit below 1e-6, so both sides are noise there
# and a smaller floor would report spurious errors. Genuine defects above
# ~1e-9 absolute still register.
FD_EPSILON = 1e-5
FD_REFINE_LEVELS = 2
FD_REFINE_THRESHOLD = 1e-4
FD_DENOM_FLOOR = 1e-5


def finite_diff_gradcheck(model, x: np.ndarray, loss, epsilon: float = FD_EPSILON,
                          max_entries_per_param: int | None = None,
                          rng: np.random.Generator | None = None) -> float:
    """The max over probed parameter entries of |a - n| / max(|a|, |n|,
    FD_DENOM_FLOOR), where a is the model's analytic gradient of
    ``loss.value(model.forward(x))`` and n its central-difference quotient.

    ``model`` must expose ``parameters() -> dict[str, ndarray]`` (live views),
    ``forward(x, training=..., update_running=..., want_cache=...)`` and
    ``backward(cache, output_grads) -> dict``; ``loss`` must expose
    ``value(trace) -> float`` and ``output_grads(trace) -> dict`` naming the
    trace fields it feeds gradient into (e.g. ``{"logits": ..., "o1": ...}``).
    Forward passes run in training mode with running-statistic updates
    disabled, and every perturbed entry is restored, so the model is left
    untouched.

    Every entry is probed, unless ``max_entries_per_param`` is set: then an
    array larger than it is probed at that many entries, drawn without
    replacement from ``rng`` (seeded 0 when absent), which keeps wide
    production layers tractable. The probe is multi-scale: an entry that
    disagrees at ``epsilon`` is re-probed at smaller steps and keeps its
    best-agreeing quotient. A ReLU kink inside the base probe window shrinks
    away at smaller scales, while a wrong analytic gradient disagrees at
    every scale, so refinement cannot mask real defects. A NaN from the loss
    or the analytic gradient makes the result NaN, which no tolerance
    accepts.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")

    def relative_error(flat: np.ndarray, i: int, a, eps: float):
        orig = flat[i]
        flat[i] = orig + eps
        plus = loss.value(model.forward(x, training=True, update_running=False))
        flat[i] = orig - eps
        minus = loss.value(model.forward(x, training=True, update_running=False))
        flat[i] = orig
        n = (plus - minus) / (2.0 * eps)
        return np.abs(a - n) / np.maximum(np.maximum(np.abs(a), np.abs(n)), FD_DENOM_FLOOR)

    trace, cache = model.forward(x, training=True, update_running=False, want_cache=True)
    analytic = model.backward(cache, loss.output_grads(trace))
    worst = 0.0
    for name, p in model.parameters().items():
        flat, flat_a = p.reshape(-1), analytic[name].reshape(-1)
        entries = range(p.size)
        if max_entries_per_param is not None and p.size > max_entries_per_param:
            if rng is None:
                rng = np.random.default_rng(0)
            entries = rng.choice(p.size, size=max_entries_per_param, replace=False)
        for i in entries:
            eps = epsilon
            error = relative_error(flat, i, flat_a[i], eps)
            for _ in range(FD_REFINE_LEVELS):
                if error <= FD_REFINE_THRESHOLD:
                    break
                eps /= 10.0
                error = min(error, relative_error(flat, i, flat_a[i], eps))
            worst = np.maximum(worst, error)
    return float(worst)
