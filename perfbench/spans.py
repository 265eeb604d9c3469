"""External span recorder for the efdls layers.

``SpanRecorder`` replaces the public functions and methods named in
``efdls_targets`` with thin wrappers while it is installed, and puts every
original back when it is uninstalled. Nothing under ``src/`` knows about it:
the wrappers sit on the module and class attributes that the package itself
looks up at call time.

Every call of a wrapped function becomes one ``Span``: name, layer, start and
end (``time.perf_counter`` seconds), the index of the enclosing span, the
federated epoch and user id when the call identifies them (otherwise they are
inherited from the enclosing span), and work counters computed from the
arguments' shapes. The counters are arithmetic on shapes and byte lengths,
not hardware counter readings. Spans stay in memory until the caller writes
them out.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field


@dataclass(slots=True)
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int  # index of the enclosing span in the recorder's list, -1 for a root
    epoch: int | None = None
    user: int | None = None
    work: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One attribute to wrap. ``ids(args, kwargs)`` gives the call's
    (epoch, user), either may be None; ``work(args, kwargs, result)`` gives
    its work counters, plus ``epoch``/``user`` when only the result names
    them; ``role(args, kwargs, parent_name)`` may rename the span from the
    context of the call."""

    owner: object
    attr: str
    name: str
    layer: str
    work: object = None
    ids: object = None
    role: object = None


def self_times(spans: list) -> list:
    """Each span's duration minus the part of its interval covered by its
    children (overlapping children are merged, and clipped to the parent)."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c].start, s.start), min(spans[c].end, s.end))
                             for c in children[i]):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.duration - covered)
    return out


class SpanRecorder:
    """Context manager: ``with SpanRecorder(targets) as rec: ...`` records a
    span per wrapped call; ``rec.spans`` holds them afterwards."""

    def __init__(self, targets: list):
        self.targets = list(targets)
        self.spans: list = []
        self._saved: list = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("recorder is already installed")
        for t in self.targets:
            # A class attribute is read from the class dict so the plain
            # function (not a bound method) is what gets wrapped and restored.
            original = t.owner.__dict__[t.attr] if isinstance(t.owner, type) \
                else getattr(t.owner, t.attr)
            self._saved.append((t.owner, t.attr, original))
            setattr(t.owner, t.attr, self._wrap(t, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "SpanRecorder":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, target: Target, original):
        spans = self.spans
        lock = self._lock
        stack_of = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else -1
            name = target.name
            if target.role is not None:
                name = target.role(args, kwargs, spans[parent].name if parent >= 0 else None)
            span = Span(name, target.layer, 0.0, 0.0, parent)
            if target.ids is not None:
                span.epoch, span.user = target.ids(args, kwargs)
            if parent >= 0:
                up = spans[parent]
                if span.epoch is None:
                    span.epoch = up.epoch
                if span.user is None:
                    span.user = up.user
            with lock:
                index = len(spans)
                spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if target.work is not None:
                work = target.work(args, kwargs, result)
                span.epoch = work.pop("epoch", span.epoch)
                span.user = work.pop("user", span.user)
                span.work = work
            return result

        wrapper.__wrapped__ = original
        return wrapper


# ---------------------------------------------------------------------------
# The efdls boundaries and their computed work
# ---------------------------------------------------------------------------

def _arg(args, kwargs, pos: int, name: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def conv_flop(batch: int, c_out: int, c_in: int, k: int, length: int) -> int:
    """Multiply-adds of a same-padding conv forward, counted as 2 operations;
    a backward (input and kernel gradients) is twice this."""
    return 2 * batch * c_out * c_in * k * length


def _conv_fwd_work(args, kwargs, result):
    b, c_in, length = args[0].shape
    c_out, _, k = args[1].kernel.shape
    return {"flop": conv_flop(b, c_out, c_in, k, length)}


def _conv_bwd_work(args, kwargs, result):
    b, c_out, length = args[0].shape
    _, c_in, k = args[1].kernel.shape
    return {"flop": 2 * conv_flop(b, c_out, c_in, k, length)}


def _adam_work(args, kwargs, result):
    return {"params": sum(p.size for p in args[0].values())}


def _pairs_work(args, kwargs, result):
    n = len(args[0])
    return {"pairs": n * (n - 1) // 2}


def _encode_ids(args, kwargs):
    return _arg(args, kwargs, 1, "epoch"), _arg(args, kwargs, 2, "user_id")


def _decode_work(args, kwargs, result):
    _, epoch, user = result
    return {"epoch": epoch, "user": user, "bytes": len(args[0])}


def _transport_ids(args, kwargs):
    return None, _arg(args, kwargs, 1, "user_id")


def _transport_work(args, kwargs, result):
    return {"bytes": len(_arg(args, kwargs, 2, "data"))}


def _forward_role(args, kwargs, parent_name):
    """Student forwards keep a cache for the backward pass; a forward inside
    local training without one is the teacher's; the rest are evaluation."""
    if _arg(args, kwargs, 4, "want_cache", False):
        return "extractor.student_forward"
    if parent_name == "fbst.local_train_epoch":
        return "extractor.teacher_forward"
    return "extractor.eval_forward"


def efdls_targets(efdls) -> list:
    """The wrapped boundaries, layer by layer. ``efdls`` is the imported
    package; the private ``Federation._run_epoch`` and ``_train_one`` are
    wrapped because they are the only calls that carry the epoch and the
    user id."""
    nn, ext, fb, db, st, fed, dio = (efdls.nncore, efdls.extractor, efdls.fbst, efdls.dbwm,
                                     efdls.strategies, efdls.federation, efdls.dataio)
    t = Target
    return [
        t(nn, "conv1d_forward", "nncore.conv1d_forward", "nncore", _conv_fwd_work),
        t(nn, "conv1d_backward", "nncore.conv1d_backward", "nncore", _conv_bwd_work),
        t(nn, "batchnorm_forward", "nncore.batchnorm_forward", "nncore"),
        t(nn, "batchnorm_backward", "nncore.batchnorm_backward", "nncore"),
        t(nn, "batchnorm_inference_backward", "nncore.batchnorm_inference_backward", "nncore"),
        t(nn, "relu_forward", "nncore.relu_forward", "nncore"),
        t(nn, "relu_backward", "nncore.relu_backward", "nncore"),
        t(nn, "dense_forward", "nncore.dense_forward", "nncore"),
        t(nn, "dense_backward", "nncore.dense_backward", "nncore"),
        t(nn, "adam_step", "nncore.adam_step", "nncore", _adam_work),
        t(ext.FeatureExtractor, "__init__", "extractor.init", "extractor"),
        t(ext.FeatureExtractor, "forward", "extractor.forward", "extractor", role=_forward_role),
        t(ext.FeatureExtractor, "backward", "extractor.backward", "extractor"),
        t(ext.FeatureExtractor, "predict", "extractor.predict", "extractor"),
        t(ext, "extract_hidden_weights", "extractor.extract_hidden_weights", "extractor"),
        t(ext, "load_hidden_weights", "extractor.load_hidden_weights", "extractor"),
        t(ext, "clone_model", "extractor.clone_model", "extractor"),
        t(fb, "local_train_epoch", "fbst.local_train_epoch", "fbst",
          ids=lambda a, kw: (_arg(a, kw, 4, "k"), None)),
        t(fb, "kd_loss", "fbst.kd_loss", "fbst"),
        t(fb, "kd_loss_grads", "fbst.kd_loss_grads", "fbst"),
        t(db, "pairwise_distances", "dbwm.pairwise_distances", "dbwm", _pairs_work),
        t(db, "match_partners", "dbwm.match_partners", "dbwm"),
        t(db, "dispatch_matched", "dbwm.dispatch_matched", "dbwm"),
        t(st, "apply_round", "strategies.apply_round", "strategies"),
        t(st, "fedavg_aggregate", "strategies.fedavg_aggregate", "strategies"),
        t(fed, "build_users", "federation.build_users", "federation"),
        t(fed.Federation, "_run_epoch", "federation.epoch", "federation",
          ids=lambda a, kw: (_arg(a, kw, 1, "k"), None)),
        t(fed.Federation, "_train_one", "federation.train_one", "federation",
          ids=lambda a, kw: (_arg(a, kw, 2, "k"), _arg(a, kw, 1, "user").user_id)),
        t(fed.Federation, "evaluate", "federation.evaluate", "federation"),
        t(fed, "encode_weight_message", "federation.encode", "federation",
          lambda a, kw, r: {"bytes": len(r)}, ids=_encode_ids),
        t(fed, "decode_weight_message", "federation.decode", "federation", _decode_work),
        t(fed.InProcTransport, "upload", "federation.upload", "federation", _transport_work,
          ids=_transport_ids),
        t(fed.InProcTransport, "download", "federation.download", "federation", _transport_work,
          ids=_transport_ids),
        t(fed.SocketTransport, "upload", "federation.upload", "federation", _transport_work,
          ids=_transport_ids),
        t(fed.SocketTransport, "download", "federation.download", "federation", _transport_work,
          ids=_transport_ids),
        t(dio, "load_ucr_tsv", "dataio.load_ucr_tsv", "dataio",
          lambda a, kw, r: {"rows": r.x_train.shape[0] + r.x_test.shape[0]}),
    ]
