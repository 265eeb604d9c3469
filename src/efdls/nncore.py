"""Numerical core: 1-D conv / batch-norm / dense layers with exact reverse-mode
gradients, the Adam optimizer, and a finite-difference gradient oracle.

Tensors are plain ``numpy.ndarray`` objects. Series data has the shape
``[batch, channel, length]``, and every series-shaped array an op allocates
is stored in ``[C, B, L]`` memory order, the order the conv product writes:
a ``[B, C, L]`` view of per-channel rows. Per-channel reductions sum each
channel's contiguous ``[B*L]`` row, and the conv products multiply those
rows (im2col's windows in the forward and the kernel gradient, col2im's in
the input gradient), so an op handed an array stored in another order reads
a row-ordered copy and gives the same bits. Layers own their parameter arrays, forward
functions return fresh outputs, and backward functions turn an upstream
gradient into fresh parameter/input gradients. A backward takes what its
forward saw: the input for conv and dense, the output for ReLU, and for batch
norm the cache its forward derives under ``want_cache``. The caller holds
those arrays by reference, so nothing may write to them before the matching
backward has run.

Four ops can instead write their result over an array that dies as they
run, which the caller names: ``batchnorm_forward(out=...)`` (its input, dead
once centered), ``batchnorm_backward(consume=True)`` (the cached ``xhat``,
which becomes the input gradient), ``relu_backward(into=...)``
(its upstream gradient or the forward's output) and
``global_avg_pool_backward(add_to=...)`` (an upstream gradient of the pooled
input, which it adds into). The array must have the fresh result's dtype;
elementwise results do not depend on where they are stored, so every bit
matches the fresh forms, which are the defaults and the tests' bit oracles.

Parameters are stored in the dtype they were given: a federation's users in
float32, the wire's dtype, and the gradient oracle's networks in float64.
An op computes in its operands' dtype; a network casts its input to its own
dtype, so every operand of its ops shares that one dtype.

The one shared state is per-thread scratch. The conv and batch-norm ops build
their internal temporaries (the conv products' column matrices and the
kernel gradient's partial products, and the blocks of row products of the
batch-norm reductions), ``sum_squares`` its blocks of float64 squares, and
Adam its per-group terms, in the calling thread's workspace: two flat
buffers, each grown to the largest request and viewed at the shape the op
needs, until ``release_workspace`` gives them back.
A request is bounded by a constant until the smallest unit it blocks over
is larger. A column matrix holds a block of whole series within
``_COL_BLOCK_BYTES``, or one series if a single one is larger, so it is
bounded by ``max(_COL_BLOCK_BYTES, C_in*K*L*itemsize)`` and grows with
the series length only past that point (block 3's im2col, [768, L],
passes 4 MiB at L = 1,366 in float32 and 683 in float64). A
block of row products is bounded likewise by ``max(_DOT_BLOCK_BYTES, one
channel's [B*L] row)``, and Adam's terms by a parameter group's size. No
scratch view outlives the op that took it, and nothing an op returns or
caches lives there, so results never alias scratch or each other; the one
shared memory is an array a caller hands an op to write over, which then
holds the result. Each thread has its own workspace, which makes the module
safe to drive from parallel workers as long as each worker owns its own
layers.

The conv products are BLAS GEMMs and the batch-norm statistics and parameter
gradients row reductions, so they differ from plain numpy expressions
(einsum, sums over the batch and length axes) in the last bits, and from
one BLAS kernel to another; ``tests/test_workspace.py`` holds them to float64
textbook oracles at stated relative bounds. ReLU, the pool gradient and Adam
perform exactly the operations of their plain expressions.

``finite_diff_gradcheck`` is the one finite-difference oracle. It visits each
probed parameter entry once, compares its central-difference quotient with
the analytic gradient, and folds the entry's relative error into the worst
with ``np.maximum``, so a NaN from the loss or the gradient fails the check.
Its default step, refinement and denominator settings are the ``FD_*``
constants. A model's backward owns the ``output_grads`` it is given
(``FeatureExtractor.backward`` pops each hidden-stage gradient once it has
added it, and writes over them). The oracle evaluates the loss again after
the backward, so ``loss.output_grads`` must be pure: it may not write into
anything the loss reads, nor return an array the loss reads.

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

    Both forms run one code path; they differ only in the denominator
    (``_denominator``) and in one divisor of the backward.
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


# float64 draws per pass of _uniform: 128 KiB of scratch
UNIFORM_CHUNK = 16384


def _uniform(rng: np.random.Generator, bound: float, size, dtype) -> np.ndarray:
    """``rng.uniform(-bound, bound, size).astype(dtype)`` bit for bit: the same
    float64 draws from the same stream, scaled and shifted in float64 as
    ``uniform`` does. They are drawn UNIFORM_CHUNK at a time into one reused
    float64 chunk, and each sum is written straight into the ``dtype``
    array, so no float64 array of the full size exists."""
    low, high = -bound, bound
    out = np.empty(size, dtype=dtype)
    flat = out.reshape(-1)
    chunk = np.empty(min(flat.size, UNIFORM_CHUNK))
    for lo, hi in _blocks(flat.size, 1, UNIFORM_CHUNK):
        draws = rng.random(out=chunk[:hi - lo])
        draws *= high - low
        np.add(draws, low, out=flat[lo:hi])
    return out


def init_conv(c_out: int, c_in: int, k: int, rng: np.random.Generator, dtype=np.float64) -> ConvLayer:
    """Uniform init in [-1/sqrt(fan_in), +1/sqrt(fan_in)] with fan_in = C_in*K."""
    bound = 1.0 / np.sqrt(c_in * k)
    kernel = _uniform(rng, bound, (c_out, c_in, k), dtype)
    bias = _uniform(rng, bound, c_out, dtype)
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
    weight = _uniform(rng, bound, (d_out, d_in), dtype)
    bias = _uniform(rng, bound, d_out, dtype)
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
    "cols": 0, "adam_grad": 0,
    "prod": 1, "kernel_part": 1, "taps": 1, "adam_term": 1,
}

# Bytes of the column matrix a conv product takes at a time: im2col and
# col2im run over blocks of whole series whose [C_in*K, b*L] matrix fits
# here, so the workspace does not grow with the batch or the series length.
# A block holds at least one series, however long.
_COL_BLOCK_BYTES = 1 << 22


def workspace_nbytes() -> int:
    """Bytes held by the calling thread's scratch buffers."""
    return sum(buf.nbytes for buf in _WORKSPACE.buffers if buf is not None)


def release_workspace() -> None:
    """Drop the calling thread's scratch buffers; the next op grows them anew."""
    _WORKSPACE.buffers = [None, None]


def _scratch(role: str, shape, dtype) -> np.ndarray:
    """The calling thread's buffer for ``role``, viewed as a C-ordered
    ``shape`` of ``dtype``. The buffer grows to the largest request and
    keeps its stale contents."""
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    buffers = _WORKSPACE.buffers
    i = _BUFFER_OF[role]
    if buffers[i] is None or buffers[i].nbytes < nbytes:
        buffers[i] = None  # release the old buffer before allocating its successor
        buffers[i] = np.empty(nbytes, dtype=np.uint8)
    return buffers[i][:nbytes].view(dtype).reshape(shape)


# ---------------------------------------------------------------------------
# Forward / backward ops
# ---------------------------------------------------------------------------

def _activation(shape, dtype) -> np.ndarray:
    """A fresh, uninitialized [B, C, L] array stored in [C, B, L] order."""
    b, c, n = shape
    return np.empty((c, b, n), dtype=dtype).transpose(1, 0, 2)


def _rows(a: np.ndarray) -> np.ndarray:
    """A [B, C, L] array as the [C, B*L] matrix of its channels' rows, each
    row contiguous: a view of an array stored in [C, B, L] order (or of a
    span of its series), a copy of any other."""
    b, c, n = a.shape
    rows = a.transpose(1, 0, 2).reshape(c, b * n)
    if b * n > 1 and rows.strides[1] != rows.itemsize:
        return np.ascontiguousarray(rows)
    return rows


def _span(shift: int, n: int):
    """(lo, hi): the positions t of [0, n) whose t + shift also lies in
    [0, n). The span is empty (lo == hi) when |shift| >= n."""
    lo = min(max(-shift, 0), n)
    return lo, max(min(n - shift, n), lo)


def _im2col(a: np.ndarray, k: int) -> np.ndarray:
    """The [C*K, B*L] matrix of the width-k windows of [B, C, L] input
    zero-extended by (k - 1) // 2 at both ends of its length axis, ordered
    [C, K, B, L]: offset j of output position t reads a[..., t + j - pad],
    or zero outside the input. It is written from ``a``'s [C, B*L] rows
    directly, so no padded copy is made: each offset's rows are copied
    shifted along whole rows, then its positions whose window leaves their
    series are zeroed."""
    b, c, n = a.shape
    pad = (k - 1) // 2
    rows = _rows(a)
    cols = _scratch("cols", (c, k, b * n), a.dtype)
    per_series = cols.reshape(c, k, b, n)
    for j in range(k):
        lo, hi = _span(j - pad, b * n)
        cols[:, j, lo:hi] = rows[:, lo + j - pad:hi + j - pad]
        lo, hi = _span(j - pad, n)
        per_series[:, j, :, :lo] = 0
        per_series[:, j, :, hi:] = 0
    return cols.reshape(c * k, b * n)


def _blocks(count: int, item_size: int, budget: int) -> list:
    """(lo, hi) spans covering [0, count) in order, each as many items as fit
    in ``budget`` at ``item_size`` apiece, and at least one; an empty count
    is one empty span. Every op that bounds its scratch or its activations
    by a constant walks its items through these spans."""
    step = max(1, budget // max(1, item_size))
    return [(lo, min(lo + step, count)) for lo in range(0, max(count, 1), step)]


def conv1d_forward(x: np.ndarray, layer: ConvLayer, want_cache: bool = False):
    """Same-padding direct convolution of [B, C_in, L] -> [B, C_out, L].

    out[b, o, t] = sum_{c,k} kernel[o, c, k] * padded(x)[b, c, t + k] + bias[o]

    computed as the product [C_out, C_in*K] @ im2col(x) [C_in*K, B*L], whose
    [C_out, B, L] result is returned as a [B, C_out, L] view. The product
    runs over blocks of whole series (``_blocks``), each block's columns
    written into its span of the output, so the im2col scratch is bounded
    by _COL_BLOCK_BYTES. An output column is the same dot products
    whatever block it is in, so the blocks move no bits unless the BLAS
    kernel's products change with their width (OpenBLAS's Haswell SGEMM
    does, by a few epsilons). The output is the only fresh allocation. The
    backward takes ``x`` itself, whose windows it copies again, so nothing
    may write to ``x`` before that backward. ``want_cache`` returns
    ``(out, x)``. The library never passes it; it stays because the
    benchmark harness's operation-count test (``perfbench/tests``) calls the
    op that way.
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
    weights = layer.kernel.reshape(o, c * k)
    out = np.empty((o, b * length), dtype=np.result_type(weights, x))
    # overflow here is converted into NumericError by the callers' finiteness checks
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi in _blocks(b, c * k * length * x.dtype.itemsize, _COL_BLOCK_BYTES):
            np.matmul(weights, _im2col(x[lo:hi], k), out=out[:, lo * length:hi * length])
        out = out.reshape(o, b, length).transpose(1, 0, 2)
        out += layer.bias[None, :, None]
    if want_cache:
        return out, x
    return out


def conv1d_backward(gout: np.ndarray, layer: ConvLayer, x: np.ndarray, input_grad: bool = True):
    """Gradients of the same-padding convolution, given the forward's input
    ``x``.

    Returns (g_input, g_kernel, g_bias); g_input is None when ``input_grad``
    is False. With G the [C_out, B*L] rows of the upstream gradient, g_kernel
    is G @ im2col(x).T, a contiguous [C_out, C_in, K] array, and g_bias sums
    G's rows. The input gradient is im2col's adjoint, col2im (Chellapilla,
    Puri & Simard, 2006): the product kernel.T @ G, its rows ordered by
    window offset and then channel, is computed into the im2col scratch, so
    each offset's [C_in, B*L] rows are one contiguous run, and each
    offset's run is added back, shifted by the offset, into the centre
    offset's run, which is then copied into a [C, B, L]-ordered array. As
    in im2col, the shift runs along the whole run: an offset's values at the
    positions whose window leaves their series (or their channel's row) are
    zeroed first. An offset whose shift spans the whole series reads
    nothing and is skipped.

    Both products run over the forward's blocks of whole series, so the
    column matrices stay within _COL_BLOCK_BYTES, and the reordered kernel
    is a scratch copy. g_bias does not depend on the blocks, nor, as in the
    forward, do the input gradient's columns but through the BLAS kernel.
    g_kernel is the sum of the blocks' products, taken in order, each after
    the first computed in scratch, so it has the one product's bits only
    when a single block holds the batch.
    """
    o, c, k = layer.kernel.shape
    b, _, length = gout.shape
    pad = (k - 1) // 2
    g_rows = _rows(gout)
    dtype = np.result_type(layer.kernel, gout)
    blocks = _blocks(b, c * k * length * np.result_type(dtype, x).itemsize, _COL_BLOCK_BYTES)
    g_kernel = None
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi in blocks:
            g_block = g_rows[:, lo * length:hi * length]
            cols = _im2col(x[lo:hi], k)
            if g_kernel is None:
                g_kernel = np.matmul(g_block, cols.T)
            else:
                g_kernel += np.matmul(g_block, cols.T, out=_scratch(
                    "kernel_part", g_kernel.shape, g_kernel.dtype))
        g_kernel = g_kernel.reshape(o, c, k)
        g_bias = g_rows.sum(axis=1)
        if not input_grad:
            return None, g_kernel, g_bias
        # kernel.T with its rows ordered [K, C_in]: a [C_out, K, C_in] copy
        # viewed transposed, which BLAS reads as it reads kernel.T
        taps = _scratch("taps", (o, k, c), layer.kernel.dtype)
        np.copyto(taps, layer.kernel.transpose(0, 2, 1))
        taps = taps.reshape(o, k * c).T
        g_input = np.empty((c, b * length), dtype=dtype)
        for lo, hi in blocks:
            n = (hi - lo) * length
            cols = _scratch("cols", (k, c * n), dtype)
            np.matmul(taps, g_rows[:, lo * length:hi * length], out=cols.reshape(k * c, n))
            for j in range(k):
                jlo, jhi = _span(j - pad, length)
                if j == pad or jlo == jhi:
                    continue
                per_series = cols[j].reshape(c, hi - lo, length)
                per_series[:, :, :jlo] = 0
                per_series[:, :, jhi:] = 0
                jlo, jhi = _span(j - pad, c * n)
                cols[pad, jlo + j - pad:jhi + j - pad] += cols[j, jlo:jhi]
            g_input[:, lo * length:hi * length] = cols[pad].reshape(c, n)
    return g_input.reshape(c, b, length).transpose(1, 0, 2), g_kernel, g_bias


def _per_channel(v: np.ndarray) -> np.ndarray:
    """Broadcast a per-channel vector [C] against [B, C, L]."""
    return v[None, :, None]


def _require_3d(x: np.ndarray, what: str) -> None:
    if x.ndim != 3:
        raise ShapeError(f"{what} must be [batch, channel, length], got shape {x.shape}")


# Bytes of the row products _channel_dot forms at a time: a block that
# stays in cache between its product and its sum.
_DOT_BLOCK_BYTES = 1 << 18


def _channel_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-channel sum of ``a * b`` over [B, C, L] arrays: each channel's
    row product, summed pairwise along its contiguous row, so the rounding
    error grows with log(B*L). The products are formed in scratch a
    cache-sized block of rows at a time; a row's sum does not depend on
    the block it is in."""
    ra, rb = _rows(a), _rows(b)
    c, n = ra.shape
    dtype = np.result_type(ra, rb)
    sums = np.empty(c, dtype)
    for lo, hi in _blocks(c, n * dtype.itemsize, _DOT_BLOCK_BYTES):
        prod = np.multiply(ra[lo:hi], rb[lo:hi], out=_scratch("prod", (hi - lo, n), dtype))
        prod.sum(axis=1, out=sums[lo:hi])
    return sums


def sum_squares(a: np.ndarray) -> float:
    """The float64 sum of the squares of ``a``, an array with at least two
    axes, each value widened to float64 before it is squared. The squares
    are formed in scratch a cache-sized block of axis-1 entries (a [B, C, L]
    array's channels) at a time, each block summed pairwise and the block
    sums added in order."""
    rows = np.moveaxis(a, 1, 0)
    total = 0.0
    for lo, hi in _blocks(rows.shape[0], math.prod(rows.shape[1:]) * 8, _DOT_BLOCK_BYTES):
        block = _scratch("prod", (hi - lo, *rows.shape[1:]), np.float64)
        np.multiply(rows[lo:hi], rows[lo:hi], out=block, dtype=np.float64)
        total += float(block.sum())
    return total


def _denominator(layer: BatchNormLayer, stat: np.ndarray) -> np.ndarray:
    """The per-channel denominator D of the layer's form from its second
    statistic: sqrt(var + BN_ZETA) (standard) or sqrt(S) + BN_ZETA
    (literal, S the summed squared deviation)."""
    if layer.literal_form:
        return np.sqrt(stat) + BN_ZETA
    return np.sqrt(stat + BN_ZETA)


def batchnorm_forward(x: np.ndarray, layer: BatchNormLayer, training: bool,
                      update_running: bool | None = None, want_cache: bool = False, *,
                      out: np.ndarray | None = None):
    """Normalize per channel over the batch and length axes of [B, C, L]
    input. Training mode uses batch statistics (and by default folds them
    into the running statistics); inference mode uses the running statistics
    only. Temporaries that no cache keeps live in scratch.

    Training mode centers the input by its row means, takes the second
    statistic from one row reduction of the centered values with themselves
    (``_channel_dot``: the summed squared deviation S, divided by the n
    entries of a row into the variance in the standard form) and
    normalizes the centered values in place into ``xhat = centered / D``,
    D from ``_denominator``. A cached ``xhat`` is the only full-size array
    allocated besides the output. Without a cache the input is centered
    into the output itself, which is then normalized, scaled and shifted in
    place, so no other full-size array is made (unless the output's dtype
    is not the centered values', which then take a fresh array).

    The training cache also keeps the divisor of the backward's
    ``xhat * g_alpha`` term: n in the standard form, and delta / D in the
    literal one, with delta = sqrt(S) floored at the dtype's smallest
    normal number so a constant channel keeps finite gradients.

    The output is written into ``out`` when given, else into a fresh array.
    ``out=x`` is allowed, since ``x`` is dead once centered; the network
    passes it for the conv output it normalizes.
    """
    _require_3d(x, "batchnorm input")
    if x.shape[0] < 1 and training:
        raise ShapeError("batchnorm training mode requires a non-empty batch")
    if update_running is None:
        update_running = training

    alpha = _per_channel(layer.alpha)
    beta = _per_channel(layer.beta)

    def center(mu):
        nonlocal out
        dtype = np.result_type(x, mu)
        if not want_cache and out is None:
            out = _activation(x.shape, np.result_type(alpha, dtype))
        held = out if not want_cache and out.dtype == dtype else _activation(x.shape, dtype)
        return np.subtract(x, _per_channel(mu), out=held)

    if training:
        n = x.shape[0] * x.shape[2]
        # overflow here is converted into NumericError by the finiteness checks
        with np.errstate(over="ignore", invalid="ignore"):
            mu = _rows(x).mean(axis=1)
            if not np.isfinite(mu).all():
                raise NumericError("non-finite batch statistics in batchnorm")
            centered = center(mu)
            stat = _channel_dot(centered, centered)
            if not layer.literal_form:
                stat = stat / n
            inv = 1.0 / _denominator(layer, stat)
            xhat = np.multiply(centered, _per_channel(inv), out=centered)
            out = np.multiply(alpha, xhat, out=out)
            out += beta
        if not np.isfinite(stat).all():
            raise NumericError("non-finite batch statistics in batchnorm")
        divisor = n
        if layer.literal_form:
            divisor = np.maximum(np.sqrt(stat), np.finfo(stat.dtype).tiny) * inv
        cache = ("training", xhat, inv, divisor)
        if update_running:
            m = BN_MOMENTUM
            layer.running_mean = m * layer.running_mean + (1.0 - m) * mu
            layer.running_var = m * layer.running_var + (1.0 - m) * stat
    else:
        mu = layer.running_mean
        scale = 1.0 / _denominator(layer, layer.running_var)
        centered = center(mu)
        out = np.multiply(alpha, centered, out=out)
        out *= _per_channel(scale)
        out += beta
        cache = ("inference", centered, scale)

    if want_cache:
        return out, cache
    return out


def batchnorm_backward(gout: np.ndarray, layer: BatchNormLayer, cache, *,
                       consume: bool = False):
    """Gradients through training-mode batch normalization, exact in both
    forms.

    Returns (g_input, g_alpha, g_beta), with g_alpha = sum(g * xhat) and
    g_beta = sum(g) row reductions, and builds

        dL/dx = alpha * inv * (g - xhat * g_alpha / divisor - g_beta / n)

    in one output array, inv = 1 / D and the divisor from the cache: n in
    the standard form, delta / D in the literal one (its printed gradient
    with the centered input written as xhat * D). With ``consume`` that
    array is the cached ``xhat`` itself, overwritten once both reductions
    have read it, when its dtype is the result's; the cache is then spent
    and must not be used again. Every other temporary lives in scratch.
    """
    if cache is None:
        raise GradientStateError("batchnorm_backward called without a cached forward")
    _require_3d(gout, "batchnorm upstream gradient")
    if cache[0] != "training":
        raise GradientStateError("batchnorm_backward needs a training-mode cache")
    _, xhat, inv, divisor = cache
    n = gout.shape[0] * gout.shape[2]
    g_beta = _rows(gout).sum(axis=1)
    g_alpha = _channel_dot(gout, xhat)
    dtype = np.result_type(gout, xhat)
    g_input = xhat if consume and xhat.dtype == dtype else _activation(gout.shape, dtype)
    np.multiply(xhat, _per_channel(g_alpha / divisor), out=g_input)
    np.subtract(gout, g_input, out=g_input)
    g_input -= _per_channel(g_beta / n)
    g_input *= _per_channel(layer.alpha * inv)
    return g_input, g_alpha, g_beta


def batchnorm_inference_backward(gout: np.ndarray, layer: BatchNormLayer, cache):
    """Gradients through inference-mode batch normalization, where the
    running statistics are constants: out = alpha * (x - rm) * scale + beta.

    Returns (g_input, g_alpha, g_beta)."""
    kind, centered, scale = cache
    if kind != "inference":
        raise GradientStateError("inference backward needs an inference-mode cache")
    _require_3d(gout, "batchnorm upstream gradient")
    g_input = np.multiply(gout, _per_channel(layer.alpha * scale),
                          out=_activation(gout.shape, np.result_type(gout, layer.alpha, scale)))
    return g_input, _channel_dot(gout, centered) * scale, _rows(gout).sum(axis=1)


def relu_forward(x: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    """max(x, 0), written into ``out`` when given (``out=x`` rectifies in
    place). The backward takes this output, positive exactly where x is, so
    nothing may write to it before the backward."""
    return np.maximum(x, 0.0, out=out)


def relu_backward(gout: np.ndarray, out: np.ndarray, *,
                  into: np.ndarray | None = None) -> np.ndarray:
    """Gradient through ReLU, given the forward's output, written into
    ``into`` when given, else into a fresh array. ``into`` may be ``gout`` or
    ``out`` itself, whichever is dead afterwards."""
    return np.multiply(gout, out > 0.0, out=into)


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    """Mean over the length axis: [B, C, L] -> [B, C]."""
    if x.ndim != 3:
        raise ShapeError(f"global_avg_pool expects [batch, channel, length], got shape {x.shape}")
    if x.shape[2] == 0:
        raise ShapeError("global_avg_pool requires a non-empty length axis")
    return x.mean(axis=2)


def global_avg_pool_backward(gout: np.ndarray, length: int, *,
                             add_to: np.ndarray | None = None) -> np.ndarray:
    """[B, C] -> [B, C, L]: each mean's gradient, divided by ``length`` and
    broadcast along the length axis. It is added into ``add_to`` when given,
    another [B, C, L] gradient of the pooled input, which it returns;
    otherwise it is written into a fresh [C, B, L]-ordered array."""
    share = (gout / length)[:, :, None]
    if add_to is None:
        add_to = _activation((*gout.shape, length), share.dtype)
        add_to[...] = share
    else:
        add_to += share
    return add_to


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
    the other. A finite gradient can still overflow on the way, ``g * g``
    first (past about 1.8e19 in float32); that raises NumericError naming
    the parameter group.
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
        try:
            with np.errstate(over="raise", invalid="raise"):
                if state.weight_decay != 0.0:
                    decay = np.multiply(state.weight_decay, p,
                                        out=_scratch("adam_term", p.shape, p.dtype))
                    g = np.add(g, decay,
                               out=_scratch("adam_grad", p.shape, np.result_type(g, decay)))
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
        except FloatingPointError as exc:
            raise NumericError(f"Adam step overflowed for parameter group '{name}' "
                               f"({exc})") from exc


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
