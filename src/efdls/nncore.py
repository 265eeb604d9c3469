"""Numerical core: 1-D conv / batch-norm / dense layers with exact reverse-mode
gradients, the Adam optimizer, and a finite-difference gradient oracle.

Tensors are plain ``numpy.ndarray`` objects in float64 (float32 is accepted),
with series data laid out as ``[batch, channel, length]``. Layers own their
parameter arrays, forward functions return fresh outputs, and backward
functions turn an upstream gradient into fresh parameter/input gradients.
A backward takes what its forward saw: the input for conv and dense, the
output for ReLU, and for batch norm the cache its forward derives under
``want_cache``. The caller holds those arrays by reference, so nothing may
write to them before the matching backward has run.

The one shared state is per-thread scratch. The conv and batch-norm ops build
their internal temporaries (im2col matrices, padded arrays, a transposed
gradient copy, centered values, squares and backward products) in the calling
thread's workspace: two flat buffers, each grown to the largest request and
viewed at the shape and memory order the op needs. No scratch view outlives
the op that took it, and nothing an op returns or caches lives there, so
results never alias each other. The arithmetic is the one numpy's own
expressions perform, in the same order and memory layout, so the bits match.
Each thread has its own workspace, which makes the module safe to drive from
parallel workers as long as each worker owns its own layers.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


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


@dataclass
class BatchNormLayer:
    """Per-channel batch normalization over the batch and length axes.

    ``alpha`` scales and ``beta`` shifts the normalized value; ``zeta`` keeps
    the denominator positive. Two normalization modes exist:

    * standard (default): divide by sqrt(population variance + zeta), and
      track running mean/variance with ``momentum`` decay for inference.
    * literal: divide by (sqrt(summed squared deviations) + zeta). This form
      is batch-size dependent; it is kept behind a flag for fidelity
      experiments. Its tracked running statistic is the summed-squared
      deviation itself, so inference applies the same normalization the
      training mode used.
    """

    alpha: np.ndarray
    beta: np.ndarray
    zeta: float = 1e-5
    momentum: float = 0.9
    running_mean: np.ndarray = None
    running_var: np.ndarray = None
    literal_form: bool = False

    def __post_init__(self):
        if self.zeta <= 0:
            raise ValueError(f"zeta must be positive, got {self.zeta}")
        if not 0.0 < self.momentum < 1.0:
            raise ValueError(f"momentum must be in (0,1), got {self.momentum}")
        c = self.alpha.shape[0]
        if self.running_mean is None:
            self.running_mean = np.zeros(c, dtype=self.alpha.dtype)
        if self.running_var is None:
            self.running_var = np.ones(c, dtype=self.alpha.dtype)


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


def init_batchnorm(c: int, zeta: float = 1e-5, momentum: float = 0.9,
                   literal_form: bool = False, dtype=np.float64) -> BatchNormLayer:
    return BatchNormLayer(
        alpha=np.ones(c, dtype=dtype),
        beta=np.zeros(c, dtype=dtype),
        zeta=zeta,
        momentum=momentum,
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
    "cols": 0, "centered": 0, "gh": 0,
    "pad": 1, "gout_t": 1, "kernel_t": 1, "squares": 1, "prod": 1,
}


def workspace_nbytes() -> int:
    """Bytes held by the calling thread's scratch buffers."""
    return sum(buf.nbytes for buf in _WORKSPACE.buffers if buf is not None)


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


def _elementwise_order(*arrays) -> list:
    """The axis order, outermost first, in which numpy lays out a fresh
    elementwise result over ``arrays`` (all of one shape; broadcast operands
    never decide it). This is numpy's stable sort of axes by stride, in which
    C order wins wherever the operands disagree. Reductions sum in memory
    order, so a scratch temporary must be laid out this way to keep bits."""
    shape = arrays[0].shape
    strides = [[0 if n == 1 else abs(s) for n, s in zip(shape, a.strides)] for a in arrays]
    perm = list(range(len(shape) - 1, -1, -1))  # innermost first
    for i0 in range(1, len(perm)):
        ax0 = perm[i0]
        pos = i0
        for i1 in range(i0 - 1, -1, -1):
            ax1 = perm[i1]
            decided = swap = False
            for st in strides:
                if st[ax0] and st[ax1]:
                    if st[ax1] <= st[ax0]:
                        swap = False
                    elif not decided:
                        swap = True
                    decided = True
            if decided:
                if not swap:
                    break
                pos = i1
        perm.insert(pos, perm.pop(i0))
    return perm[::-1]


def _scratch_like(role: str, dtype, *arrays) -> np.ndarray:
    """Scratch for an elementwise result over ``arrays``, laid out as numpy
    would lay out a fresh one."""
    return _scratch(role, arrays[0].shape, dtype, _elementwise_order(*arrays))


def _scratch_copy(role: str, a: np.ndarray) -> np.ndarray:
    """A C-order copy of ``a`` in scratch."""
    out = _scratch(role, a.shape, a.dtype)
    np.copyto(out, a)
    return out


# ---------------------------------------------------------------------------
# Forward / backward ops
# ---------------------------------------------------------------------------

def _pad_length(a: np.ndarray, pad: int) -> np.ndarray:
    """``a`` with ``pad`` zeros at both ends of its length axis, in scratch."""
    b, c, n = a.shape
    out = _scratch("pad", (b, c, n + 2 * pad), a.dtype)
    out[:, :, :pad] = 0
    out[:, :, pad + n:] = 0
    out[:, :, pad:pad + n] = a
    return out


def _im2col(padded: np.ndarray, k: int) -> np.ndarray:
    """The [C*K, B*T] matrix of the width-k windows of padded [B, C, T+K-1]
    input, ordered [C, K, B, T]: the copy einsum makes of them."""
    b, c, n = padded.shape
    windows = sliding_window_view(padded, k, axis=2)  # [B, C, T, K]
    return _scratch_copy("cols", windows.transpose(1, 3, 0, 2)).reshape(c * k, b * (n - k + 1))


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
    fresh allocation. The backward takes ``x`` itself, which it pads again,
    so nothing may write to ``x`` before that backward. ``want_cache``
    returns ``(out, x)``. The library never passes it; it stays because the
    benchmark harness's operation-count test (``perfbench/tests``) calls the
    op that way.
    """
    if x.ndim != 3:
        raise ShapeError(f"conv input must be [batch, channel, length], got shape {x.shape}")
    if x.shape[1] != layer.kernel.shape[1]:
        raise ShapeError(
            f"conv input channel axis has size {x.shape[1]} but kernel expects C_in={layer.kernel.shape[1]}"
        )
    if x.shape[2] < 1:
        raise ShapeError(f"conv input length axis must be >= 1, got {x.shape[2]}")
    b, c, length = x.shape
    o, _, k = layer.kernel.shape
    # overflow here is converted into NumericError by the callers' finiteness checks
    with np.errstate(over="ignore", invalid="ignore"):
        cols = _im2col(_pad_length(x, (k - 1) // 2), k)
        out = np.matmul(layer.kernel.reshape(o, c * k), cols)
        out = out.reshape(o, b, length).transpose(1, 0, 2)
        out += layer.bias[None, :, None]
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
    """
    o, c, k = layer.kernel.shape
    b, _, length = gout.shape
    pad = (k - 1) // 2
    with np.errstate(over="ignore", invalid="ignore"):
        # im2col copies the padded input out of the buffer _gout_matrix reuses
        g_kernel = np.matmul(_im2col(_pad_length(x, pad), k), _gout_matrix(gout))
        g_kernel = g_kernel.reshape(c, k, o).transpose(2, 0, 1)
        g_bias = gout.sum(axis=(0, 2))
        if not input_grad:
            return None, g_kernel, g_bias
        gcols = _im2col(_pad_length(gout, k - 1), k)
        kflip = _scratch_copy("kernel_t", layer.kernel[:, :, ::-1].transpose(1, 0, 2))
        g_padded = np.matmul(kflip.reshape(c, o * k), gcols)
    g_padded = g_padded.reshape(c, b, length + k - 1).transpose(1, 0, 2)
    g_input = g_padded[:, :, pad:pad + length]
    return g_input, g_kernel, g_bias


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

    alpha = _per_channel(layer.alpha)
    beta = _per_channel(layer.beta)

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
                denom = delta + layer.zeta
                out = alpha * centered / _per_channel(denom) + beta
                stat = sumsq
                cache = ("literal", centered, delta, denom)
            else:
                var = np.mean(squares, axis=_BN_REDUCE_AXES)
                inv = 1.0 / np.sqrt(var + layer.zeta)
                # an uncached xhat takes the squares' place
                xhat = np.multiply(centered, _per_channel(inv),
                                   out=None if want_cache else squares)
                out = alpha * xhat + beta
                stat = var
                cache = ("standard", xhat, inv)
        if not np.isfinite(stat).all():
            raise NumericError("non-finite batch statistics in batchnorm")
        if update_running:
            m = layer.momentum
            layer.running_mean = m * layer.running_mean + (1.0 - m) * mu
            layer.running_var = m * layer.running_var + (1.0 - m) * stat
    else:
        mu = layer.running_mean
        if layer.literal_form:
            denom = np.sqrt(layer.running_var) + layer.zeta
        else:
            denom = np.sqrt(layer.running_var + layer.zeta)
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
    D = delta + zeta. Every temporary but g_input lives in scratch.
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
    return x @ layer.weight.T + layer.bias[None, :]


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

@dataclass
class AdamState:
    """Bias-corrected Adam with L2 regularization folded into the gradient.

    The L2 term (``weight_decay * param``) is added to each gradient before
    the moment updates, matching optimizer-side L2 rather than decoupled
    weight decay.
    """

    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
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
    """One in-place Adam update over a dict of named parameter arrays."""
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - state.beta1 ** t
    bc2 = 1.0 - state.beta2 ** t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ShapeError(f"gradient for '{name}' has shape {g.shape}, parameter has {p.shape}")
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient for parameter group '{name}'")
        if state.weight_decay != 0.0:
            g = g + state.weight_decay * p
        m = state.first_moment[name]
        v = state.second_moment[name]
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        m_hat = m / bc1
        v_hat = v / bc2
        p -= state.lr * m_hat / (np.sqrt(v_hat) + state.eps)


# ---------------------------------------------------------------------------
# Finite-difference oracle
# ---------------------------------------------------------------------------

def _central_diff_entry(model, x, loss, param: np.ndarray, flat_index: int,
                        epsilon: float) -> float:
    flat = param.reshape(-1)
    orig = flat[flat_index]
    flat[flat_index] = orig + epsilon
    plus = loss.value(model.forward(x, training=True, update_running=False))
    flat[flat_index] = orig - epsilon
    minus = loss.value(model.forward(x, training=True, update_running=False))
    flat[flat_index] = orig
    return (plus - minus) / (2.0 * epsilon)


def finite_diff_grads(model, x: np.ndarray, loss, epsilon: float = 1e-5,
                      max_entries_per_param: int | None = None,
                      rng: np.random.Generator | None = None) -> dict:
    """Central-difference gradients of ``loss.value(model.forward(x))`` with
    respect to every model parameter.

    ``model`` must expose ``parameters() -> dict[str, ndarray]`` (live views)
    and ``forward(x, training=..., update_running=...)``; ``loss`` must expose
    ``value(trace) -> float``. Forward passes run in training mode with
    running-statistic updates disabled so the model is left untouched.

    With ``max_entries_per_param`` set, only a random subset of entries per
    tensor is probed (the rest are returned as NaN and should be masked by the
    caller); this keeps wide production layers tractable.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    out = {}
    for name, p in model.parameters().items():
        g = np.full_like(p, np.nan)
        flat_g = g.reshape(-1)
        idx = np.arange(p.size)
        if max_entries_per_param is not None and p.size > max_entries_per_param:
            if rng is None:
                rng = np.random.default_rng(0)
            idx = rng.choice(p.size, size=max_entries_per_param, replace=False)
        for i in idx:
            flat_g[i] = _central_diff_entry(model, x, loss, p, i, epsilon)
        out[name] = g
    return out


def max_relative_error(analytic: dict, numeric: dict, denom_floor: float = 1e-5) -> float:
    """max over all compared entries of |a - n| / max(|a|, |n|, denom_floor).

    The floor absorbs central-difference noise (empirically up to ~2e-10
    absolute for unit-scale losses at double precision after a deep-net
    forward), which matters wherever the true gradient is at or near zero:
    a conv bias followed by batch norm is provably inert (the mean
    subtraction cancels it), and individual kernel entries can sit below
    1e-6, so both sides are noise-dominated there and a smaller floor would
    report spurious errors. Genuine defects above ~1e-9 absolute still
    register. NaN entries in ``numeric`` (unsampled positions) are skipped.
    """
    worst = 0.0
    for name, a in analytic.items():
        n = numeric[name]
        mask = ~np.isnan(n)
        if not mask.any():
            continue
        av = a[mask]
        nv = n[mask]
        denom = np.maximum(np.maximum(np.abs(av), np.abs(nv)), denom_floor)
        worst = max(worst, float(np.max(np.abs(av - nv) / denom)))
    return worst


def finite_diff_gradcheck(model, x: np.ndarray, loss, epsilon: float = 1e-5,
                          max_entries_per_param: int | None = None,
                          rng: np.random.Generator | None = None,
                          refine_levels: int = 2, refine_threshold: float = 1e-4,
                          denom_floor: float = 1e-5) -> float:
    """Compare the model's analytic gradients against central differences and
    return the max relative error. ``loss`` additionally needs
    ``output_grads(trace) -> dict`` naming the trace fields it feeds gradient
    into (e.g. ``{"logits": ..., "o1": ...}``).

    The probe is multi-scale: entries disagreeing at the base epsilon are
    re-probed at epsilon/10 per refinement level and scored against their
    best-agreeing scale. A ReLU kink inside the base probe window shrinks
    away at smaller scales, while a genuinely wrong analytic gradient
    disagrees with the difference quotient at every scale, so refinement
    cannot mask real defects.
    """
    trace, cache = model.forward(x, training=True, update_running=False, want_cache=True)
    analytic = model.backward(cache, loss.output_grads(trace))
    numeric = finite_diff_grads(model, x, loss, epsilon=epsilon,
                                max_entries_per_param=max_entries_per_param, rng=rng)
    params = model.parameters()
    worst = 0.0
    for name, a in analytic.items():
        n = numeric[name]
        flat_a = a.reshape(-1)
        flat_n = n.reshape(-1)
        for i in range(flat_a.size):
            if np.isnan(flat_n[i]):
                continue
            av, nv = flat_a[i], flat_n[i]
            err = abs(av - nv) / max(abs(av), abs(nv), denom_floor)
            level = 0
            eps = epsilon
            while err > refine_threshold and level < refine_levels:
                eps /= 10.0
                level += 1
                refined = _central_diff_entry(model, x, loss, params[name], i, eps)
                refined_err = abs(av - refined) / max(abs(av), abs(refined), denom_floor)
                err = min(err, refined_err)
            worst = max(worst, err)
    return worst
