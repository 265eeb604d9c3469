"""The feature-extractor network and its weight bundles.

Architecture (fixed topology, configurable widths): three conv blocks
(conv -> batch norm -> ReLU), a global average pool over time, a hidden dense
layer, then a classifier dense layer + softmax. The conv blocks, the pool and
the hidden dense layer form the "hidden layers"; only their parameters travel
between users, which keeps bundle shapes independent of both the series
length and the number of classes.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from . import nncore
from .nncore import NumericError, ShapeError

DEFAULT_BLOCKS = ((9, 128), (5, 256), (3, 128))
DEFAULT_HIDDEN_DIM = 128

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
    """Immutable snapshot of one model's hidden-layer arrays.

    ``arrays`` maps each BUNDLE_KEYS entry to an owned copy; ``epoch_tag``
    records the federated epoch the snapshot was taken at.
    """

    arrays: dict
    epoch_tag: int = 0

    def learnable_items(self):
        return [(k, v) for k, v in self.arrays.items() if is_learnable_key(k)]

    def num_learnable_params(self) -> int:
        return sum(v.size for _, v in self.learnable_items())

    def copy(self, epoch_tag: int | None = None) -> "WeightBundle":
        return WeightBundle(
            arrays={k: v.copy() for k, v in self.arrays.items()},
            epoch_tag=self.epoch_tag if epoch_tag is None else epoch_tag,
        )

    def same_shapes(self, other: "WeightBundle") -> bool:
        if self.arrays.keys() != other.arrays.keys():
            return False
        return all(self.arrays[k].shape == other.arrays[k].shape for k in self.arrays)


@dataclass
class ForwardTrace:
    """Per-stage outputs of one forward pass: the three conv block outputs,
    the hidden dense output, and the classifier logits/probabilities."""

    o1: np.ndarray
    o2: np.ndarray
    o3: np.ndarray
    o4: np.ndarray
    logits: np.ndarray
    probs: np.ndarray

    HIDDEN_FIELDS = ("o1", "o2", "o3", "o4")


class FeatureExtractor:
    """One user's classification network.

    ``blocks`` gives (kernel_width, channels) per conv block; widths are
    configurable so tests can run skinny instances, but every model in a
    federation must share them for weight bundles to be comparable.
    """

    def __init__(self, num_classes: int, blocks=DEFAULT_BLOCKS,
                 hidden_dim: int = DEFAULT_HIDDEN_DIM, in_channels: int = 1,
                 bn_zeta: float = 1e-5, bn_momentum: float = 0.9,
                 bn_paper_literal: bool = False, seed: int | None = 0,
                 dtype=np.float64):
        if num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {num_classes}")
        rng = np.random.default_rng(seed)
        self.num_classes = num_classes
        self.block_layout = tuple((int(k), int(c)) for k, c in blocks)
        self.hidden_dim = int(hidden_dim)
        self.in_channels = int(in_channels)
        self.dtype = dtype

        self.convs = []
        self.bns = []
        c_prev = in_channels
        for k, c_out in self.block_layout:
            self.convs.append(nncore.init_conv(c_out, c_prev, k, rng, dtype=dtype))
            self.bns.append(nncore.init_batchnorm(c_out, zeta=bn_zeta, momentum=bn_momentum,
                                                  literal_form=bn_paper_literal, dtype=dtype))
            c_prev = c_out
        self.hidden = nncore.init_dense(self.hidden_dim, c_prev, rng, dtype=dtype)
        self.classifier = nncore.init_dense(num_classes, self.hidden_dim, rng, dtype=dtype)

    # -- parameter access ---------------------------------------------------

    def parameters(self) -> dict:
        """Live views of every learnable array, hidden layers first."""
        params = {}
        for i, (conv, bn) in enumerate(zip(self.convs, self.bns), start=1):
            params[f"conv{i}.kernel"] = conv.kernel
            params[f"conv{i}.bias"] = conv.bias
            params[f"bn{i}.alpha"] = bn.alpha
            params[f"bn{i}.beta"] = bn.beta
        params["dense.weight"] = self.hidden.weight
        params["dense.bias"] = self.hidden.bias
        params["classifier.weight"] = self.classifier.weight
        params["classifier.bias"] = self.classifier.bias
        return params

    def hidden_parameter_count(self) -> int:
        return sum(v.size for k, v in self.parameters().items() if not k.startswith("classifier."))

    # -- forward / backward -------------------------------------------------

    def forward(self, x: np.ndarray, training: bool = False,
                update_running: bool | None = None, want_cache: bool = False):
        """Run the network on [B, 1, L] input and return a ForwardTrace
        (optionally plus the cache needed for a backward pass)."""
        if x.ndim != 3 or x.shape[1] != self.in_channels:
            raise ShapeError(
                f"input must be [batch, {self.in_channels}, length], got shape {x.shape}"
            )
        if x.shape[2] < 1:
            raise ShapeError("input length axis must be >= 1")
        cache = {"length": x.shape[2]}
        h = x
        block_outs = []
        for i, (conv, bn) in enumerate(zip(self.convs, self.bns), start=1):
            try:
                z, conv_cache = nncore.conv1d_forward(h, conv, want_cache=True)
                zn, bn_cache = nncore.batchnorm_forward(z, bn, training=training,
                                                        update_running=update_running,
                                                        want_cache=True)
            except NumericError as exc:
                raise NumericError(f"non-finite activations in conv block {i}: {exc}") from exc
            h, relu_cache = nncore.relu_forward(zn, want_cache=True)
            if not np.isfinite(h).all():
                raise NumericError(f"non-finite activations in conv block {i}")
            cache[f"block{i}"] = (conv_cache, bn_cache, relu_cache)
            block_outs.append(h)
        pooled = nncore.global_avg_pool(h)
        o4, hidden_cache = nncore.dense_forward(pooled, self.hidden, want_cache=True)
        logits, cls_cache = nncore.dense_forward(o4, self.classifier, want_cache=True)
        if not np.isfinite(logits).all():
            raise NumericError("non-finite activations in classifier")
        probs = nncore.softmax(logits)
        cache["hidden"] = hidden_cache
        cache["classifier"] = cls_cache
        cache["training"] = training
        trace = ForwardTrace(o1=block_outs[0], o2=block_outs[1], o3=block_outs[2],
                             o4=o4, logits=logits, probs=probs)
        if want_cache:
            return trace, cache
        return trace

    def backward(self, cache: dict, output_grads: dict) -> dict:
        """Reverse-mode gradients for every learnable parameter.

        ``output_grads`` maps trace field names to upstream gradients; the
        supported injection points are "logits" plus any of "o1".."o4", which
        is exactly what a supervised + feature-matching loss needs.
        """
        if cache is None or "classifier" not in cache:
            raise nncore.GradientStateError("backward called without a cached forward")
        unknown = set(output_grads) - {"logits", "o1", "o2", "o3", "o4"}
        if unknown:
            raise ValueError(f"unsupported gradient injection points: {sorted(unknown)}")
        grads = {}
        batch = cache["classifier"].shape[0]
        g_logits = output_grads.get(
            "logits", np.zeros((batch, self.num_classes), dtype=self.dtype))
        g_o4, grads["classifier.weight"], grads["classifier.bias"] = \
            nncore.dense_backward(g_logits, self.classifier, cache["classifier"])
        if "o4" in output_grads:
            g_o4 = g_o4 + output_grads["o4"]
        g_pooled, grads["dense.weight"], grads["dense.bias"] = \
            nncore.dense_backward(g_o4, self.hidden, cache["hidden"])
        g = nncore.global_avg_pool_backward(g_pooled, cache["length"])
        for i in range(len(self.convs), 0, -1):
            if f"o{i}" in output_grads:
                g = g + output_grads[f"o{i}"]
            conv_cache, bn_cache, relu_cache = cache[f"block{i}"]
            g = nncore.relu_backward(g, relu_cache)
            if cache["training"]:
                g, ga, gb = nncore.batchnorm_backward(g, self.bns[i - 1], bn_cache)
            else:
                g, ga, gb = nncore.batchnorm_inference_backward(g, self.bns[i - 1], bn_cache)
            grads[f"bn{i}.alpha"] = ga
            grads[f"bn{i}.beta"] = gb
            g, gk, gbias = nncore.conv1d_backward(g, self.convs[i - 1], conv_cache)
            grads[f"conv{i}.kernel"] = gk
            grads[f"conv{i}.bias"] = gbias
        return grads

    def predict(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Top-1 class index per row, ties broken toward the lowest index."""
        preds = []
        for start in range(0, x.shape[0], batch_size):
            trace = self.forward(x[start:start + batch_size], training=False)
            preds.append(np.argmax(trace.probs, axis=1))
        return np.concatenate(preds) if preds else np.zeros(0, dtype=int)


def extract_hidden_weights(model: FeatureExtractor, epoch_tag: int = 0) -> WeightBundle:
    """Deep-copied snapshot of the hidden layers (conv blocks + hidden dense,
    with BN running stats riding along). The classifier never leaves the user."""
    arrays = {}
    for i, (conv, bn) in enumerate(zip(model.convs, model.bns), start=1):
        arrays[f"conv{i}.kernel"] = conv.kernel.copy()
        arrays[f"conv{i}.bias"] = conv.bias.copy()
        arrays[f"bn{i}.alpha"] = bn.alpha.copy()
        arrays[f"bn{i}.beta"] = bn.beta.copy()
        arrays[f"bn{i}.running_mean"] = bn.running_mean.copy()
        arrays[f"bn{i}.running_var"] = bn.running_var.copy()
    arrays["dense.weight"] = model.hidden.weight.copy()
    arrays["dense.bias"] = model.hidden.bias.copy()
    assert tuple(arrays.keys()) == BUNDLE_KEYS
    return WeightBundle(arrays=arrays, epoch_tag=epoch_tag)


class IncompatibleBundleError(ShapeError):
    """Bundle arrays do not match the target model's hidden-layer shapes."""


def load_hidden_weights(model: FeatureExtractor, bundle: WeightBundle) -> FeatureExtractor:
    """Overwrite the model's hidden layers with the bundle's values (copied,
    cast to the model dtype). The classifier is untouched."""
    targets = {}
    for i, (conv, bn) in enumerate(zip(model.convs, model.bns), start=1):
        targets[f"conv{i}.kernel"] = conv.kernel
        targets[f"conv{i}.bias"] = conv.bias
        targets[f"bn{i}.alpha"] = bn.alpha
        targets[f"bn{i}.beta"] = bn.beta
        targets[f"bn{i}.running_mean"] = bn.running_mean
        targets[f"bn{i}.running_var"] = bn.running_var
    targets["dense.weight"] = model.hidden.weight
    targets["dense.bias"] = model.hidden.bias
    if set(bundle.arrays.keys()) != set(targets.keys()):
        raise IncompatibleBundleError(
            f"bundle keys {sorted(bundle.arrays)} do not match model hidden layers"
        )
    for key, dst in targets.items():
        src = bundle.arrays[key]
        if src.shape != dst.shape:
            raise IncompatibleBundleError(
                f"bundle array '{key}' has shape {src.shape}, model expects {dst.shape}"
            )
    for key, dst in targets.items():
        np.copyto(dst, bundle.arrays[key].astype(model.dtype, copy=False))
    return model


def clone_model(model: FeatureExtractor) -> FeatureExtractor:
    """Independent deep copy (used to spawn a teacher from a student)."""
    return copy.deepcopy(model)
