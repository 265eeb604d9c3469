"""Per-user student-teacher training.

Each user holds a student and, from its first load on, a frozen teacher of
the same shape. Only the student sees a gradient; the teacher's hidden-layer
outputs act as regression targets through a feature-matching loss. Each
load makes a new teacher, a clone of the student that keeps the bundle it
is handed as its read-only hidden arrays, so a teacher stores and computes
in the student's dtype and never writes its weights. Read-only teachers are
safe for pool threads to share, and in a run the teachers handed one
partner's bundle share one copy of it. Users that never receive one
(fedavg, baseline, disconnected) never hold a teacher.

Loss pieces:
  * feature-matching (KD) loss: for each of the four hidden outputs, squared
    elementwise difference summed over features and averaged over the batch,
    then summed across the four stages;
  * supervised loss: mean cross-entropy of the softmax probabilities;
  * total: epsilon * supervised + (1 - epsilon) * feature-matching.

The objective is written once, as a loss object: ``SupervisedLoss`` on the
very first federated epoch (and while a user has no teacher), otherwise
``DistillationLoss`` against the teacher's trace of the same batch. Each
objective writes its report and gradients in one body; from it,
``parts(trace)`` gives the batch's loss report, ``value(trace)`` the total
that ``nncore.finite_diff_gradcheck`` differentiates, and
``output_grads(trace)`` the gradients injected into the student's backward
pass; all three are pure. A training step takes the report and the
gradients together from ``consume(trace)``, with the same bits. Local
training takes all of them from that one object and returns the mean of the
batch reports; the federation snapshots the student's hidden weights
itself, and only for the users that upload.

A training step holds one batch's arrays at a time, and each activation-sized
array once, every one stored in the network's one [C, B, L] order. The KD
difference of each stage is taken once, in the traces' dtype, into the
teacher trace's own array: the reported KD loss sums its squares in float64,
a bounded block of channels at a time in workspace scratch, and it is then
scaled in place into that stage's KD gradient. The objective, with the rest
of the teacher's trace, is dropped at once, so the student's backward runs
without it. The student's trace goes too, so the backward holds the only
reference to the step's activations: it owns the output gradients and the
cache, adds the pool gradient into o3's KD gradient, drops each hidden-stage
gradient once it is added and each activation and batch-norm cache at its
last reader, and writes gradients over them; each conv input gradient is
col2im's, with no padded copy. The rest of the batch's arrays are dropped
once its Adam step is taken, before the next batch's forward. A step's
traced peak is the start of the student's backward, where the student's
block outputs and batch-norm caches and the KD gradients are alive; the pool
gradient adds no array to them.
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
    loads weights into it. Every load replaces the teacher with
    ``extractor.clone_model(student, bundle)``: a model that keeps the
    bundle's own hidden arrays, read-only, cast only where their dtype is
    not the student's, so it must be handed a bundle that nothing writes to
    afterwards. A rejected load leaves the old teacher as it was. The clone
    takes the student's classifier at each load; the teacher's classifier
    never enters the loss. A student load (``extractor.load_hidden_weights``,
    the one loader of students) copies into the student's own arrays.
    """

    def __init__(self, student: ext.FeatureExtractor):
        self.student = student
        self.teacher = None

    def load_teacher(self, bundle: ext.WeightBundle) -> None:
        self.teacher = ext.clone_model(self.student, bundle)

    def load_student(self, bundle: ext.WeightBundle) -> None:
        ext.load_hidden_weights(self.student, bundle)


def _stage_pair(student_trace: ext.ForwardTrace, teacher_trace: ext.ForwardTrace, name: str):
    s, t = getattr(student_trace, name), getattr(teacher_trace, name)
    if s.shape != t.shape:
        raise nncore.ShapeError(f"trace field '{name}' shapes differ: {s.shape} vs {t.shape}")
    return s, t


def kd_loss(student_trace: ext.ForwardTrace, teacher_trace: ext.ForwardTrace) -> float:
    """Feature-matching loss between two traces of the same batch.

    Per stage m: mean over the batch of the per-instance sum of squared
    differences; the four stage values are summed. Symmetric in its arguments
    and zero exactly when the traces agree. It is ``kd_loss_grads``'s loss,
    computed into fresh differences, so both traces are left as they were:
    each stage's difference is taken in the traces' dtype and its squares
    summed in float64 (``nncore.sum_squares``).
    """
    return kd_loss_grads(student_trace, teacher_trace)[0]


def kd_loss_grads(student_trace: ext.ForwardTrace, teacher_trace: ext.ForwardTrace,
                  scale: float = 1.0, out: ext.ForwardTrace | None = None) -> tuple:
    """``(kd_loss, grads)`` from one difference per stage: the loss and its
    gradients with respect to the student's
    hidden outputs (the teacher side is a constant), ``scale * 2 * (s - t) /
    batch`` per stage. Each difference ``s - t`` is taken in the traces'
    dtype into the array of that stage of ``out``, which may be
    ``teacher_trace`` itself, or into a fresh array without it; its squares
    are summed before it is scaled, in place, into the gradient."""
    total = 0.0
    grads = {}
    for name in ext.ForwardTrace.HIDDEN_FIELDS:
        s, t = _stage_pair(student_trace, teacher_trace, name)
        g = np.subtract(s, t, out=None if out is None else getattr(out, name))
        total += nncore.sum_squares(g) / s.shape[0]
        g *= scale * 2.0
        g /= s.shape[0]
        grads[name] = g
    return total, grads


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
    """Cross-entropy alone: the objective until a teacher is loaded.

    ``parts``, ``value``, ``output_grads`` and ``consume`` are written here
    once, over ``_evaluate``, each objective's one body, which gives the
    batch's ``(LossReport, output_grads)``. Only ``consume`` hands it the
    teacher trace to write the KD gradients into; a supervised loss has
    none."""

    teacher_trace = None

    def __init__(self, labels: np.ndarray):
        self.labels = np.asarray(labels)

    def _evaluate(self, trace: ext.ForwardTrace, out: ext.ForwardTrace | None) -> tuple:
        sup = sup_loss(trace.probs, self.labels)
        return (LossReport(kd=0.0, sup=sup, total=sup),
                {"logits": sup_loss_logit_grad(trace.probs, self.labels)})

    def parts(self, trace: ext.ForwardTrace) -> LossReport:
        return self._evaluate(trace, out=None)[0]

    def value(self, trace: ext.ForwardTrace) -> float:
        return self.parts(trace).total

    def output_grads(self, trace: ext.ForwardTrace) -> dict:
        """The gradients injected into the student's backward, in fresh
        arrays. Pure: it writes into nothing the loss reads."""
        return self._evaluate(trace, out=None)[1]

    def consume(self, trace: ext.ForwardTrace) -> tuple:
        """``(parts(trace), output_grads(trace))``, with their bits, as a
        training step takes them. The loss gives its teacher trace up: the
        hidden gradients are written into its arrays, and the loss holds no
        teacher trace afterwards, so it must not be evaluated again."""
        result = self._evaluate(trace, out=self.teacher_trace)
        self.teacher_trace = None
        return result


class DistillationLoss(SupervisedLoss):
    """Combined supervised + feature-matching loss against a fixed teacher
    trace, with gradient injection at the logits and all four hidden
    outputs."""

    def __init__(self, teacher_trace: ext.ForwardTrace, labels: np.ndarray, epsilon: float):
        check_epsilon(epsilon)
        super().__init__(labels)
        self.teacher_trace = teacher_trace
        self.epsilon = epsilon

    def _evaluate(self, trace: ext.ForwardTrace, out: ext.ForwardTrace | None) -> tuple:
        sup = sup_loss(trace.probs, self.labels)
        kd, grads = kd_loss_grads(trace, self.teacher_trace, scale=1.0 - self.epsilon, out=out)
        grads["logits"] = sup_loss_logit_grad(trace.probs, self.labels, scale=self.epsilon)
        return LossReport(kd=kd, sup=sup, total=total_loss(sup, kd, self.epsilon)), grads


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
            # the KD differences, then gradients, take the teacher trace's
            # arrays, and the rest of the trace goes with the objective
            report, output_grads = objective.consume(trace)
            if not np.isfinite(report.total):
                raise nncore.NumericError(f"non-finite training loss at federated epoch {k}")
            # the backward owns the cache, which holds the trace's activations
            del objective, trace
            nncore.adam_step(params, pair.student.backward(cache, output_grads), adam)
            del xb, yb, cache, output_grads  # before the next batch's forward
            kd_sum += report.kd
            sup_sum += report.sup
            total_sum += report.total
            n_batches += 1
    return LossReport(kd=kd_sum / n_batches, sup=sup_sum / n_batches,
                      total=total_sum / n_batches)
