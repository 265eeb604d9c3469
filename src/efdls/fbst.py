"""Per-user student-teacher training.

Each user holds a student and, from its first load on, a frozen teacher of
the same shape. Only the student sees a gradient; the teacher's hidden-layer
outputs act as regression targets through a feature-matching loss, and its
weights change only when the server hands down a bundle. It holds them in the
bundle's dtype, float32 from the wire, and computes in float64 with the bits
a float64 copy would give. Users that never receive one (fedavg, baseline,
disconnected) never hold a teacher.

Loss pieces:
  * feature-matching (KD) loss: for each of the four hidden outputs, squared
    elementwise difference summed over features and averaged over the batch,
    then summed across the four stages;
  * supervised loss: mean cross-entropy of the softmax probabilities;
  * total: epsilon * supervised + (1 - epsilon) * feature-matching.

The objective is written once, as a loss object: ``SupervisedLoss`` on the
very first federated epoch (and while a user has no teacher), otherwise
``DistillationLoss`` against the teacher's trace of the same batch. Its
``parts(trace)`` gives the batch's loss report, ``value(trace)`` the total
that ``nncore.finite_diff_gradcheck`` differentiates, and
``output_grads(trace)`` the gradients injected into the student's backward
pass. Local training takes all three from that one object and returns the
mean of the batch reports; the federation snapshots the student's hidden
weights itself, and only for the users that upload.

A training step holds one batch's arrays at a time. The objective, and with
it the teacher's trace, is dropped once the output gradients are built, so
the student's backward runs without it, and the rest of the batch's arrays
are dropped once its Adam step is taken, before the next batch's forward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import extractor as ext
from . import nncore


class ConfigError(ValueError):
    pass


def check_epsilon(epsilon: float) -> None:
    """The supervised weight must lie strictly inside (0, 1)."""
    if not 0.0 < epsilon < 1.0:
        raise ConfigError(f"epsilon must lie strictly inside (0,1), got {epsilon}")


@dataclass
class FBSTConfig:
    epsilon: float = 0.9
    local_epochs: int = 1
    batch_size: int = 16
    # "batch": the teacher normalizes with the statistics of the batch at
    # hand (no side effects), so a teacher holding the student's own weights
    # reproduces the student's trace exactly. "running": the teacher uses the
    # running statistics carried in its loaded bundle.
    teacher_bn_mode: str = "batch"

    def __post_init__(self):
        check_epsilon(self.epsilon)
        if self.local_epochs < 1:
            raise ConfigError("local_epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.teacher_bn_mode not in ("batch", "running"):
            raise ConfigError(f"teacher_bn_mode must be 'batch' or 'running', got '{self.teacher_bn_mode}'")


@dataclass
class LossReport:
    kd: float
    sup: float
    total: float


class FBSTPair:
    """A user's student and its frozen teacher twin.

    The teacher is None, and training supervised-only, until the server first
    loads weights into it. That load clones the student; every load then
    replaces the clone's hidden arrays with private copies of the bundle's,
    in the bundle's dtype. The clone's classifier never enters the loss. A
    student load copies into the student's own arrays, so the student keeps
    the float64 storage that its float64 Adam moments and updates assume.
    """

    def __init__(self, student: ext.FeatureExtractor):
        self.student = student
        self.teacher = None

    def load_teacher(self, bundle: ext.WeightBundle) -> None:
        teacher = ext.clone_model(self.student) if self.teacher is None else self.teacher
        self.teacher = ext.replace_hidden_weights(teacher, bundle)

    def load_student(self, bundle: ext.WeightBundle) -> None:
        ext.load_hidden_weights(self.student, bundle)


def kd_loss(student_trace: ext.ForwardTrace, teacher_trace: ext.ForwardTrace) -> float:
    """Feature-matching loss between two traces of the same batch.

    Per stage m: mean over the batch of the per-instance sum of squared
    differences; the four stage values are summed. Symmetric in its arguments
    and zero exactly when the traces agree.
    """
    total = 0.0
    for name in ext.ForwardTrace.HIDDEN_FIELDS:
        s = getattr(student_trace, name)
        t = getattr(teacher_trace, name)
        if s.shape != t.shape:
            raise nncore.ShapeError(
                f"trace field '{name}' shapes differ: {s.shape} vs {t.shape}"
            )
        diff = s.astype(np.float64, copy=False) - t.astype(np.float64, copy=False)
        total += float(np.sum(diff * diff) / s.shape[0])
    return total


def kd_loss_grads(student_trace: ext.ForwardTrace, teacher_trace: ext.ForwardTrace,
                  scale: float = 1.0) -> dict:
    """Gradients of kd_loss with respect to the student's hidden outputs
    (the teacher side is a constant)."""
    grads = {}
    for name in ext.ForwardTrace.HIDDEN_FIELDS:
        s = getattr(student_trace, name)
        t = getattr(teacher_trace, name)
        grads[name] = scale * 2.0 * (s - t) / s.shape[0]
    return grads


def sup_loss(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-probability of the true class.

    Probabilities are clamped below at 1e-12 before the log.
    """
    n = probs.shape[0]
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise nncore.ShapeError(f"labels shape {labels.shape} does not match batch size {n}")
    if labels.min() < 0 or labels.max() >= probs.shape[1]:
        raise ValueError(
            f"label out of range: classes are [0, {probs.shape[1]}), got values "
            f"in [{labels.min()}, {labels.max()}]"
        )
    picked = probs[np.arange(n), labels]
    return float(-np.mean(np.log(np.maximum(picked, 1e-12))))


def sup_loss_logit_grad(probs: np.ndarray, labels: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Gradient of sup_loss with respect to the logits (softmax folded in)."""
    n = probs.shape[0]
    g = probs.copy()
    g[np.arange(n), np.asarray(labels)] -= 1.0
    return scale * g / n


def total_loss(sup: float, kd: float, epsilon: float) -> float:
    """epsilon-weighted combination of the supervised and KD terms."""
    check_epsilon(epsilon)
    return epsilon * sup + (1.0 - epsilon) * kd


class SupervisedLoss:
    """Cross-entropy alone: the objective until a teacher is loaded."""

    def __init__(self, labels: np.ndarray):
        self.labels = np.asarray(labels)

    def parts(self, trace: ext.ForwardTrace) -> LossReport:
        sup = sup_loss(trace.probs, self.labels)
        return LossReport(kd=0.0, sup=sup, total=sup)

    def value(self, trace: ext.ForwardTrace) -> float:
        return self.parts(trace).total

    def output_grads(self, trace: ext.ForwardTrace) -> dict:
        return {"logits": sup_loss_logit_grad(trace.probs, self.labels)}


class DistillationLoss(SupervisedLoss):
    """Combined supervised + feature-matching loss against a fixed teacher
    trace, with gradient injection at the logits and all four hidden
    outputs."""

    def __init__(self, teacher_trace: ext.ForwardTrace, labels: np.ndarray, epsilon: float):
        check_epsilon(epsilon)
        super().__init__(labels)
        self.teacher_trace = teacher_trace
        self.epsilon = epsilon

    def parts(self, trace: ext.ForwardTrace) -> LossReport:
        sup = sup_loss(trace.probs, self.labels)
        kd = kd_loss(trace, self.teacher_trace)
        return LossReport(kd=kd, sup=sup, total=total_loss(sup, kd, self.epsilon))

    def output_grads(self, trace: ext.ForwardTrace) -> dict:
        grads = kd_loss_grads(trace, self.teacher_trace, scale=1.0 - self.epsilon)
        grads["logits"] = sup_loss_logit_grad(trace.probs, self.labels, scale=self.epsilon)
        return grads


def iter_batches(n: int, batch_size: int, rng: np.random.Generator):
    """Yield shuffled index batches covering [0, n); the last short batch is
    kept."""
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def local_train_epoch(pair: FBSTPair, x: np.ndarray, y: np.ndarray,
                      config: FBSTConfig, k: int, adam: nncore.AdamState,
                      rng: np.random.Generator) -> LossReport:
    """One federated epoch of local training on (x, y).

    Runs ``config.local_epochs`` shuffled passes. The combined loss is
    used only when k > 1 and a teacher has been loaded; otherwise training is
    supervised-only and the report records kd = 0. Only the student is
    updated. Returns the averaged loss report; a caller that uploads takes
    its own snapshot of the student's hidden weights.
    """
    if x.shape[0] == 0:
        raise ValueError("local_train_epoch needs a non-empty training set")
    use_teacher = k > 1 and pair.teacher is not None
    params = pair.student.parameters()
    kd_sum = sup_sum = total_sum = 0.0
    n_batches = 0
    for _ in range(config.local_epochs):
        for idx in iter_batches(x.shape[0], config.batch_size, rng):
            xb, yb = x[idx], y[idx]
            trace, cache = pair.student.forward(xb, training=True, want_cache=True)
            if use_teacher:
                objective = DistillationLoss(
                    pair.teacher.forward(xb, training=config.teacher_bn_mode == "batch",
                                         update_running=False),
                    yb, config.epsilon)
            else:
                objective = SupervisedLoss(yb)
            report = objective.parts(trace)
            if not np.isfinite(report.total):
                raise nncore.NumericError(f"non-finite training loss at federated epoch {k}")
            output_grads = objective.output_grads(trace)
            del objective  # and with it the teacher's trace
            nncore.adam_step(params, pair.student.backward(cache, output_grads), adam)
            del xb, yb, trace, cache, output_grads  # before the next batch's forward
            kd_sum += report.kd
            sup_sum += report.sup
            total_sum += report.total
            n_batches += 1
    return LossReport(kd=kd_sum / n_batches, sup=sup_sum / n_batches,
                      total=total_sum / n_batches)
