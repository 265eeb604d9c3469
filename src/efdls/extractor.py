"""The feature-extractor network and its weight bundles.

Architecture (fixed topology, configurable widths): three conv blocks
(conv -> batch norm -> ReLU), a global average pool over time, a hidden dense
layer, then a classifier dense layer + softmax. The conv blocks, the pool and
the hidden dense layer form the "hidden layers"; only their parameters travel
between users, which keeps bundle shapes independent of both the series
length and the number of classes. Every consumer of a bundle checks its keys
and shapes with ``check_bundle``, which raises ``IncompatibleBundleError``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from . import nncore
from .nncore import NumericError, ShapeError

DEFAULT_BLOCKS = ((9, 128), (5, 256), (3, 128))
DEFAULT_HIDDEN_DIM = 128
# rows x length per forward in predict, 16 rows at length 256, so its
# activations follow the series positions a forward takes, not the row count
PREDICT_POSITIONS = 4096

# Canonical serialization/order for everything a bundle carries. Keys ending
# in running_mean/running_var are carried for the teacher's inference-mode
# forward but are not learnable and never enter weight distances.
BUNDLE_KEYS = tuple(
    f"{group}{i}.{leaf}"
    for i in (1, 2, 3)
    for group, leaf in (
        ("conv", "kernel"), ("conv", "bias"),
        ("bn", "alpha"), ("bn", "beta"),
        ("bn", "running_mean"), ("bn", "running_var"),
    )
) + ("dense.weight", "dense.bias")

RUNNING_STAT_SUFFIXES = ("running_mean", "running_var")


def is_learnable_key(key: str) -> bool:
    return not key.endswith(RUNNING_STAT_SUFFIXES)


@dataclass(frozen=True)
class WeightBundle:
    """One model's hidden-layer arrays, ``arrays`` mapping each BUNDLE_KEYS
    entry to an array.

    ``extract_hidden_weights`` makes a snapshot of owned copies. A bundle
    the federation round builds in-process is borrowed instead: read-only
    views of a model's arrays (``borrow_hidden_weights``) or of a message's
    payloads, valid until the epoch ends. ``copy()`` gives owned copies, to
    hold one longer.
    """

    arrays: dict

    def learnable_items(self):
        return [(k, v) for k, v in self.arrays.items() if is_learnable_key(k)]

    def num_learnable_params(self) -> int:
        return sum(v.size for _, v in self.learnable_items())

    def copy(self) -> "WeightBundle":
        return WeightBundle(arrays={k: v.copy() for k, v in self.arrays.items()})


@dataclass
class ForwardTrace:
    """Per-stage outputs of one forward pass: the three conv block outputs,
    the hidden dense output, and the classifier logits/probabilities. A
    backward through the trace's cache takes the hidden outputs, so they are
    None afterwards."""

    o1: np.ndarray | None
    o2: np.ndarray | None
    o3: np.ndarray | None
    o4: np.ndarray | None
    logits: np.ndarray
    probs: np.ndarray

    HIDDEN_FIELDS = ("o1", "o2", "o3", "o4")


def check_layout(blocks, hidden_dim: int) -> None:
    """Raise ValueError, naming the field at fault, unless ``blocks`` holds the
    three (kernel_width, channels) pairs BUNDLE_KEYS and ForwardTrace name,
    each with an odd width >= 1 and >= 1 channels, and ``hidden_dim`` >= 1."""
    if len(blocks) != 3:
        raise ValueError(f"blocks must hold 3 [kernel_width, channels] pairs, got {len(blocks)}")
    for k, c in blocks:
        if k < 1 or k % 2 == 0 or c < 1:
            raise ValueError(f"blocks: each needs an odd kernel width >= 1 and >= 1 channels, "
                             f"got {[k, c]}")
    if hidden_dim < 1:
        raise ValueError(f"hidden_dim must be >= 1, got {hidden_dim}")


class FeatureExtractor:
    """One user's classification network on [B, 1, L] input.

    ``blocks`` gives (kernel_width, channels) per conv block; widths are
    configurable so tests can run skinny instances, but every model in a
    federation must share them for weight bundles to be comparable.
    ``dtype`` is what every array stores and every forward computes in:
    float64 by default, as the gradient oracle needs, and the wire's float32
    for a federation's users.
    """

    def __init__(self, num_classes: int, blocks=DEFAULT_BLOCKS,
                 hidden_dim: int = DEFAULT_HIDDEN_DIM, bn_paper_literal: bool = False,
                 seed: int | None = 0, dtype=np.float64):
        if num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {num_classes}")
        check_layout(blocks, hidden_dim)
        rng = np.random.default_rng(seed)
        self.num_classes = num_classes
        self.hidden_dim = int(hidden_dim)
        self.dtype = dtype

        self.convs = []
        self.bns = []
        c_prev = 1
        for k, c_out in blocks:
            self.convs.append(nncore.init_conv(c_out, c_prev, k, rng, dtype=dtype))
            self.bns.append(nncore.init_batchnorm(c_out, literal_form=bn_paper_literal, dtype=dtype))
            c_prev = c_out
        self.hidden = nncore.init_dense(self.hidden_dim, c_prev, rng, dtype=dtype)
        self.classifier = nncore.init_dense(num_classes, self.hidden_dim, rng, dtype=dtype)

    # -- parameter access ---------------------------------------------------

    def parameters(self) -> dict:
        """Live views of every learnable array: the learnable hidden arrays in
        BUNDLE_KEYS order, then the classifier."""
        params = {k: v for k, v in hidden_arrays(self).items() if is_learnable_key(k)}
        params["classifier.weight"] = self.classifier.weight
        params["classifier.bias"] = self.classifier.bias
        return params

    # -- forward / backward -------------------------------------------------

    def forward(self, x: np.ndarray, training: bool = False,
                update_running: bool | None = None, want_cache: bool = False):
        """Run the network on [B, 1, L] input and return a ForwardTrace
        (optionally plus the cache needed for a backward pass). The input is
        cast once to the model's dtype, so every layer computes in it.
        Without ``want_cache`` no batch-norm cache is built. The cache holds
        the cast input, the trace, the pooled features, the three batch-norm
        caches and the training flag, all by reference, so nothing may write
        to them before the backward, which consumes them.

        Each block's batch norm writes its output over the conv output it
        normalizes, and its ReLU rectifies that in place, so a block makes
        one activation-sized array, plus the cached ``xhat`` in training."""
        x = x.astype(self.dtype, copy=False)
        h = x
        block_outs = []
        bn_caches = []
        for i, (conv, bn) in enumerate(zip(self.convs, self.bns), start=1):
            try:
                z = nncore.conv1d_forward(h, conv)
                zn = nncore.batchnorm_forward(z, bn, training=training,
                                              update_running=update_running,
                                              want_cache=want_cache, out=z)
            except NumericError as exc:
                raise NumericError(f"non-finite activations in conv block {i}: {exc}") from exc
            if want_cache:
                zn, bn_cache = zn
                bn_caches.append(bn_cache)
            h = nncore.relu_forward(zn, out=zn)
            if not np.isfinite(h).all():
                raise NumericError(f"non-finite activations in conv block {i}")
            block_outs.append(h)
        pooled = nncore.global_avg_pool(h)
        o4 = nncore.dense_forward(pooled, self.hidden)
        logits = nncore.dense_forward(o4, self.classifier)
        if not np.isfinite(logits).all():
            raise NumericError("non-finite activations in classifier")
        trace = ForwardTrace(o1=block_outs[0], o2=block_outs[1], o3=block_outs[2],
                             o4=o4, logits=logits, probs=nncore.softmax(logits))
        if want_cache:
            return trace, {"x": x, "trace": trace, "pooled": pooled, "bn": bn_caches,
                           "training": training}
        return trace

    def backward(self, cache: dict, output_grads: dict) -> dict:
        """Reverse-mode gradients for every learnable parameter.

        ``output_grads`` maps trace field names to upstream gradients; the
        supported injection points are "logits" plus any of
        ``ForwardTrace.HIDDEN_FIELDS``, which is exactly what a supervised +
        feature-matching loss needs. The gradients are keyed and ordered as
        ``parameters()``.

        The backward owns ``output_grads`` and its arrays: it pops each
        hidden-stage gradient once that gradient is added, so o3's and o2's
        are dead before the lower blocks' backward runs. The pool gradient is
        added into o3's, when there is one, and each lower one into the conv
        input gradient flowing down, which the conv backward builds by col2im.

        It consumes ``cache`` too, which serves one backward: it takes the
        trace's hidden outputs (the trace's fields are None afterwards, so
        nothing reads a gradient through them) and each block's batch-norm
        cache, and drops each array at its last reader. Each activation-sized
        gradient is written over an array that has just died: each ReLU
        gradient over its incoming gradient, and a standard-form batch-norm
        input gradient over its cached ``xhat``. Like every activation, each
        is stored in [C, B, L] order.
        """
        if cache is None or "trace" not in cache:
            raise nncore.GradientStateError("backward called without a cached forward")
        unknown = set(output_grads) - {"logits", *ForwardTrace.HIDDEN_FIELDS}
        if unknown:
            raise ValueError(f"unsupported gradient injection points: {sorted(unknown)}")
        *block_fields, dense_field = ForwardTrace.HIDDEN_FIELDS
        trace = cache.pop("trace")
        # block i reads its input from outs[i - 1] and its output from outs[i]
        outs = [cache.pop("x"), trace.o1, trace.o2, trace.o3]
        o4 = trace.o4
        for name in ForwardTrace.HIDDEN_FIELDS:
            setattr(trace, name, None)
        bn_caches = cache.pop("bn")
        g_logits = output_grads.get(
            "logits", np.zeros((trace.logits.shape[0], self.num_classes), dtype=self.dtype))
        g_o4, *classifier = nncore.dense_backward(g_logits, self.classifier, o4)
        del o4
        if dense_field in output_grads:
            g_o4 += output_grads.pop(dense_field)
        g_pooled, *dense = nncore.dense_backward(g_o4, self.hidden, cache.pop("pooled"))
        g = nncore.global_avg_pool_backward(g_pooled, outs[-1].shape[2],
                                            add_to=output_grads.pop(block_fields[-1], None))
        blocks = []
        for i in range(len(self.convs), 0, -1):
            if block_fields[i - 1] in output_grads:
                g += output_grads.pop(block_fields[i - 1])
            # o_i's last reader
            g = nncore.relu_backward(g, outs.pop(), into=g)
            if cache["training"]:
                g, *bn = nncore.batchnorm_backward(g, self.bns[i - 1], bn_caches.pop(),
                                                   consume=True)
            else:
                g, *bn = nncore.batchnorm_inference_backward(g, self.bns[i - 1], bn_caches.pop())
            # the input gradient of block 1 would flow into the data
            g, *conv = nncore.conv1d_backward(g, self.convs[i - 1], outs[-1],
                                              input_grad=i > 1)
            blocks = conv + bn + blocks
        return dict(zip(self.parameters(), blocks + dense + classifier, strict=True))

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Top-1 class index per row, ties broken toward the lowest index.

        Each forward takes ``PREDICT_POSITIONS // length`` rows, at least
        one, so its activations follow the series positions it takes, not
        the number of rows: at length 256 it takes a training batch's 16
        rows. (The conv scratch is bounded by ``nncore._COL_BLOCK_BYTES``
        whatever the rows.)"""
        preds = []
        for lo, hi in nncore._blocks(x.shape[0], x.shape[-1], PREDICT_POSITIONS):
            # each trace lives until the next forward returns: freeing it
            # sooner changes how glibc trims the heap, and raised peak RSS
            # (see CHANGES.md)
            trace = self.forward(x[lo:hi], training=False)
            preds.append(np.argmax(trace.probs, axis=1))
        return np.concatenate(preds)


def hidden_arrays(model: FeatureExtractor) -> dict:
    """Live views of the model's hidden-layer arrays (conv blocks, batch-norm
    running statistics included, and the hidden dense layer), keyed and
    ordered as BUNDLE_KEYS. This is the one place that names them; it is
    rebuilt on every call because a training-mode batch-norm forward
    rebinds the running-statistic arrays."""
    layers = {"dense": model.hidden}
    for i, (conv, bn) in enumerate(zip(model.convs, model.bns), start=1):
        layers[f"conv{i}"] = conv
        layers[f"bn{i}"] = bn
    arrays = {}
    for key in BUNDLE_KEYS:
        layer, leaf = key.split(".")
        arrays[key] = getattr(layers[layer], leaf)
    return arrays


def extract_hidden_weights(model: FeatureExtractor) -> WeightBundle:
    """Owned snapshot of the hidden layers (conv blocks + hidden dense, with
    BN running stats riding along): ``borrow_hidden_weights(model).copy()``.
    The classifier never leaves the user."""
    return borrow_hidden_weights(model).copy()


def borrow_hidden_weights(model: FeatureExtractor) -> WeightBundle:
    """Read-only views of the hidden layers, keyed as BUNDLE_KEYS: the
    model's live arrays, not copies. The bundle follows the model, so it
    holds these values only until the model trains or loads a bundle; take
    a ``copy()`` to keep them past that."""
    arrays = {}
    for key, arr in hidden_arrays(model).items():
        view = arr.view()
        view.flags.writeable = False
        arrays[key] = view
    return WeightBundle(arrays=arrays)


class IncompatibleBundleError(ShapeError):
    """A bundle's keys or array shapes do not match the ones it must share."""


def check_bundle(bundle: WeightBundle, reference: dict) -> None:
    """Raise IncompatibleBundleError unless the bundle carries exactly the
    keys of ``reference``, a dict of arrays (a model's ``hidden_arrays`` or
    another bundle's ``arrays``), each at its shape. This is the one schema
    check of every bundle consumer: the round, both loaders, the DBWM
    distances and the fedavg mean."""
    keys, wanted = bundle.arrays.keys(), reference.keys()
    if keys != wanted:
        raise IncompatibleBundleError(f"bundle keys do not match: missing {sorted(wanted - keys)}, "
                                      f"unexpected {sorted(keys - wanted)}")
    for key, ref in reference.items():
        if bundle.arrays[key].shape != ref.shape:
            raise IncompatibleBundleError(
                f"bundle array '{key}' has shape {bundle.arrays[key].shape}, "
                f"expected {ref.shape}"
            )


def load_hidden_weights(model: FeatureExtractor, bundle: WeightBundle) -> FeatureExtractor:
    """Overwrite the model's hidden layers with the bundle's values, copied
    into the model's own arrays and so cast to their dtype. Nothing is
    written unless the whole bundle fits. The classifier is untouched."""
    targets = hidden_arrays(model)
    check_bundle(bundle, targets)
    for key, dst in targets.items():
        np.copyto(dst, bundle.arrays[key])
    return model


def clone_model(model: FeatureExtractor, hidden: WeightBundle | None = None) -> FeatureExtractor:
    """Independent deep copy of the model.

    Given a bundle ``hidden``, the copy's hidden arrays are the bundle's own
    arrays instead, as read-only views: this is how a teacher is made from
    its student. Only an array whose dtype is not the model's is cast, into
    a read-only array of the clone's own. So the clone holds the bundle's
    values only while nothing writes to them, and clones made from one
    bundle share its memory. Nothing is built unless the whole bundle
    fits."""
    if hidden is None:
        return copy.deepcopy(model)
    targets = hidden_arrays(model)
    check_bundle(hidden, targets)
    # deepcopy takes an object found in its memo as that object's copy
    memo = {}
    for key, arr in targets.items():
        held = np.ascontiguousarray(hidden.arrays[key], dtype=arr.dtype).view()
        held.flags.writeable = False
        memo[id(arr)] = held
    return copy.deepcopy(model, memo)
