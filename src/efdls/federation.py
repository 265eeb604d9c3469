"""Synchronous federation orchestrator.

One run owns ``n_tot`` users, each holding a student/teacher pair and a
private dataset; a subset of ``n_conn`` users is connected to the server for
the whole run. Every federated epoch:

  1. every user trains locally (supervised-only until it has a teacher;
     disconnected users are supervised-only for the whole run);
  2. as soon as a connected user has trained, its hidden layers are
     snapshotted into a float64 bundle, uploaded and released; no other
     user's hidden layers are copied;
  3. once ALL connected uploads for the epoch are in (hard barrier), the
     server applies the strategy's row of ``strategies.ROUNDS`` and
     dispatches one bundle back per user;
  4. each download is loaded as soon as it is decoded, by the row's
     ``FBSTPair`` method (teachers for efdls/fkd, students for fedavg). The
     last epoch's downloads are carried and recorded but never loaded.

Uploads and downloads travel as encoded weight messages (float32 on the
wire) even in-process, so ledger byte counts are real message sizes and the
in-process and socket transports produce identical results. Per connected
user per epoch there is exactly one upload and one download, which makes the
run's ledger total exactly 2 * bundle_bytes * FLEs * N_conn.
"""

from __future__ import annotations

import numbers
import socket
import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from . import dataio, fbst, metrics, nncore, strategies
from . import extractor as ext
from .fbst import ConfigError

MESSAGE_MAGIC = b"EFDL"
MESSAGE_VERSION = 1
# Most dims a block may declare: every supported numpy build can hold an
# array of this rank (numpy 1.x caps it at 32, 2.x at 64).
MAX_WIRE_NDIM = 32


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass
class FederationConfig:
    """Everything a run needs. ``datasets`` lists (name, path) pairs assigned
    to users in order (cycled if shorter than n_tot); a path of "synthetic"
    generates the built-in separable two-class set seeded per user."""

    n_tot: int
    datasets: list
    conn_ratio: float = 1.0
    fles: int = 1
    seed: int = 0
    strategy: str = "efdls"
    epsilon: float = 0.9
    batch_size: int = 16
    local_epochs: int = 1
    lr: float = 1e-4
    weight_decay: float = 1e-4
    bn_paper_literal: bool = False
    teacher_bn_mode: str = "batch"
    blocks: tuple = ext.DEFAULT_BLOCKS
    hidden_dim: int = ext.DEFAULT_HIDDEN_DIM
    normalize: bool = True
    conn_resample: bool = False
    transport: str = "inproc"
    port: int = 0
    workers: int = 1
    output_dir: str | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not _is_a(value, f.type):
                raise ConfigError(f"{f.name} must be of type {f.type}, "
                                  f"got {type(value).__name__} {value!r}")
        if self.n_tot < 1:
            raise ConfigError(f"n_tot must be >= 1, got {self.n_tot}")
        if not 0.0 < self.conn_ratio <= 1.0:
            raise ConfigError(f"conn_ratio must lie in (0, 1], got {self.conn_ratio}")
        if self.n_conn < 1:
            raise ConfigError(f"conn_ratio {self.conn_ratio} of {self.n_tot} users selects nobody")
        if self.fles < 1:
            raise ConfigError(f"fles must be >= 1, got {self.fles}")
        if not self.datasets:
            raise ConfigError("at least one dataset assignment is required")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.transport not in ("inproc", "socket"):
            raise ConfigError(f"transport must be 'inproc' or 'socket', got '{self.transport}'")
        if self.strategy not in strategies.ROUNDS:
            raise ConfigError(f"unknown strategy '{self.strategy}', "
                              f"expected one of {strategies.STRATEGY_TAGS}")
        for block in self.blocks:
            if not (isinstance(block, (list, tuple)) and len(block) == 2
                    and all(_is_a(v, "int") for v in block)):
                raise ConfigError(f"each block must be a [kernel_width, channels] pair of "
                                  f"integers, got {block!r}")
        self.blocks = tuple((int(k), int(c)) for k, c in self.blocks)
        try:
            ext.check_layout(self.blocks, self.hidden_dim)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        datasets = []
        for d in self.datasets:
            pair = (d.get("name"), d.get("path")) if isinstance(d, dict) else d
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                    and all(isinstance(v, str) for v in pair)):
                raise ConfigError(f"each dataset must be a (name, path) pair of strings, got {pair!r}")
            datasets.append(tuple(pair))
        self.datasets = datasets
        self.fbst_config()  # validates the local-training fields

    @property
    def n_conn(self) -> int:
        return round_half_up(self.conn_ratio * self.n_tot)

    def fbst_config(self) -> fbst.FBSTConfig:
        return fbst.FBSTConfig(epsilon=self.epsilon,
                               local_epochs_per_round=self.local_epochs,
                               batch_size=self.batch_size,
                               teacher_bn_mode=self.teacher_bn_mode)

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["datasets"] = [{"name": n, "path": p} for n, p in self.datasets]
        d["blocks"] = [list(b) for b in self.blocks]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "FederationConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in d]
        if missing:
            raise ConfigError(f"missing config keys: {missing}")
        return cls(**d)


# What each FederationConfig annotation accepts. bool is an int subclass, so
# it is refused wherever a number is expected.
_ACCEPTED = {
    "int": numbers.Integral, "float": numbers.Real, "bool": bool, "str": str,
    "list": (list, tuple), "tuple": (list, tuple), "str | None": (str, type(None)),
}


def _is_a(value, annotation: str) -> bool:
    accepted = _ACCEPTED[annotation]
    return isinstance(value, accepted) and (accepted is bool or not isinstance(value, bool))


def round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def select_connected(n_tot: int, conn_ratio: float, seed: int, epoch: int | None = None) -> tuple:
    """The run's connected-user set: uniform sample without replacement of
    round-half-up(ratio * n_tot) users, fixed for the whole run unless the
    per-epoch resampling extension passes an epoch number."""
    if not 0.0 < conn_ratio <= 1.0:
        raise ConfigError(f"conn_ratio must lie in (0, 1], got {conn_ratio}")
    n_conn = round_half_up(conn_ratio * n_tot)
    if n_conn < 1:
        raise ConfigError(f"conn_ratio {conn_ratio} of {n_tot} users selects nobody")
    material = [seed, 104729] if epoch is None else [seed, 104729, epoch]
    rng = np.random.default_rng(material)
    return tuple(sorted(int(u) for u in rng.choice(n_tot, size=n_conn, replace=False)))


def comm_overhead(bw: int, fles: int, n_conn: int) -> int:
    """Total bytes moved by a run: one upload and one download of ``bw``
    bytes per connected user per epoch."""
    if bw <= 0 or fles <= 0 or n_conn <= 0:
        raise ValueError("comm_overhead needs positive bw, fles and n_conn")
    return 2 * bw * fles * n_conn


# ---------------------------------------------------------------------------
# Communication ledger
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LedgerEntry:
    epoch: int
    user_id: int
    direction: str  # "upload" | "download"
    nbytes: int


@dataclass
class CommLedger:
    entries: list = field(default_factory=list)

    def record(self, epoch: int, user_id: int, direction: str, nbytes: int) -> None:
        self.entries.append(LedgerEntry(epoch, user_id, direction, nbytes))

    def total_bytes(self, direction: str | None = None) -> int:
        return sum(e.nbytes for e in self.entries
                   if direction is None or e.direction == direction)

    def epoch_bytes(self, epoch: int, direction: str | None = None) -> int:
        return sum(e.nbytes for e in self.entries
                   if e.epoch == epoch and (direction is None or e.direction == direction))

    def __len__(self) -> int:
        return len(self.entries)


# ---------------------------------------------------------------------------
# Wire codec
# ---------------------------------------------------------------------------

class MalformedMessageError(ValueError):
    """Raised when a weight message cannot be decoded; ``offset`` is the byte
    position where parsing failed (== len(data) when the buffer ran out)."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset


_KEY_TO_TAG = {key: tag for tag, key in enumerate(ext.BUNDLE_KEYS)}


def encode_weight_message(bundle: ext.WeightBundle, epoch: int, user_id: int) -> bytes:
    """Serialize a bundle: magic, version, epoch/user ids, then one block per
    array (tag byte, dim count, little-endian u32 dims, float32 payload).
    Arrays need at most MAX_WIRE_NDIM dims, each in [1, 2**32)."""
    for name, value in (("epoch", epoch), ("user_id", user_id)):
        if not isinstance(value, numbers.Integral) or not 0 <= value < 2 ** 32:
            raise ValueError(f"{name} must be an integer in [0, 2**32), got {value!r}")
    parts = [MESSAGE_MAGIC, bytes([MESSAGE_VERSION]),
             struct.pack("<II", epoch, user_id), bytes([len(bundle.arrays)])]
    for key, arr in bundle.arrays.items():
        if key not in _KEY_TO_TAG:
            raise ValueError(f"bundle array '{key}' has no wire tag")
        if arr.ndim > MAX_WIRE_NDIM or any(not 0 < d < 2 ** 32 for d in arr.shape):
            raise ValueError(f"bundle array '{key}' has dims outside the wire format range")
        parts.append(bytes([_KEY_TO_TAG[key], arr.ndim]))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    return b"".join(parts)


def decode_weight_message(data: bytes) -> tuple:
    """Parse an encoded message back into (bundle, epoch, user_id).

    Validation is strict: magic and version are checked, block shapes must
    be ones the encoder writes, every byte must be accounted for, and payload
    values must be finite."""
    offset = 0

    def skip(n: int, what: str) -> int:
        """Move past the next n bytes; returns where they start."""
        nonlocal offset
        if offset + n > len(data):
            raise MalformedMessageError(f"message truncated while reading {what}", len(data))
        offset += n
        return offset - n

    def take(n: int, what: str) -> bytes:
        return data[skip(n, what):offset]

    magic = take(4, "magic")
    if magic != MESSAGE_MAGIC:
        raise MalformedMessageError(f"bad magic {magic!r}", 0)
    version = take(1, "version")[0]
    if version != MESSAGE_VERSION:
        raise MalformedMessageError(f"unsupported version {version}", 4)
    epoch, user_id = struct.unpack("<II", take(8, "epoch/user header"))
    block_count = take(1, "block count")[0]
    arrays = {}
    for b in range(block_count):
        tag_offset = offset
        tag, ndim = take(2, f"block {b} tag/ndim")
        if tag >= len(ext.BUNDLE_KEYS):
            raise MalformedMessageError(f"unknown block tag {tag}", tag_offset)
        key = ext.BUNDLE_KEYS[tag]
        if key in arrays:
            raise MalformedMessageError(f"duplicate block tag {tag}", tag_offset)
        if ndim > MAX_WIRE_NDIM:
            raise MalformedMessageError(
                f"block {b} declares {ndim} dims, more than {MAX_WIRE_NDIM}", tag_offset)
        dims = struct.unpack(f"<{ndim}I", take(4 * ndim, f"block {b} dims"))
        if 0 in dims:
            raise MalformedMessageError(f"block {b} has a zero dim in {dims}", tag_offset)
        numel = 1
        for d in dims:
            numel *= d
        payload_offset = skip(4 * numel, f"block {b} payload")
        # read in place and copied once; the temporary view is gone before
        # any error below, so ``data`` is never left exported
        arr = np.frombuffer(data, dtype="<f4", count=numel,
                            offset=payload_offset).reshape(dims).copy()
        if not np.isfinite(arr).all():
            raise MalformedMessageError(f"non-finite values in block {b}", payload_offset)
        arrays[key] = arr
    if offset != len(data):
        raise MalformedMessageError(f"{len(data) - offset} trailing bytes after last block", offset)
    return ext.WeightBundle(arrays=arrays), epoch, user_id


# ---------------------------------------------------------------------------
# Transports
# ---------------------------------------------------------------------------

class InProcTransport:
    """Default transport: messages stay in memory."""

    def connect(self, user_ids) -> None:
        pass

    def upload(self, user_id: int, data: bytes) -> bytes:
        return data

    def download(self, user_id: int, data: bytes) -> bytes:
        return data

    def close(self) -> None:
        pass


def _send_frame(sock: socket.socket, data: bytes) -> None:
    sock.sendall(struct.pack("<I", len(data)) + data)


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = b""
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionError("socket closed mid-frame")
        buf += chunk
    return buf


def _recv_frame(sock: socket.socket) -> bytes:
    (length,) = struct.unpack("<I", _recv_exact(sock, 4))
    return _recv_exact(sock, length)


class SocketTransport:
    """Loopback TCP transport carrying the same length-prefixed weight
    messages; one persistent connection per user. The send side runs on a
    helper thread so arbitrarily large frames cannot deadlock the process."""

    def __init__(self, port: int = 0):
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", port))
        self._listener.listen()
        self.port = self._listener.getsockname()[1]
        self._user_side = {}
        self._server_side = {}

    def connect(self, user_ids) -> None:
        for uid in user_ids:
            client = socket.create_connection(("127.0.0.1", self.port))
            conn, _ = self._listener.accept()
            self._user_side[uid] = client
            self._server_side[uid] = conn

    def _pump(self, sender: socket.socket, receiver: socket.socket, data: bytes) -> bytes:
        t = threading.Thread(target=_send_frame, args=(sender, data))
        t.start()
        out = _recv_frame(receiver)
        t.join()
        return out

    def upload(self, user_id: int, data: bytes) -> bytes:
        return self._pump(self._user_side[user_id], self._server_side[user_id], data)

    def download(self, user_id: int, data: bytes) -> bytes:
        return self._pump(self._server_side[user_id], self._user_side[user_id], data)

    def close(self) -> None:
        for s in list(self._user_side.values()) + list(self._server_side.values()):
            s.close()
        self._listener.close()


def make_transport(config: FederationConfig):
    if config.transport == "socket":
        return SocketTransport(port=config.port)
    return InProcTransport()


# ---------------------------------------------------------------------------
# Users and the run loop
# ---------------------------------------------------------------------------

@dataclass
class UserState:
    user_id: int
    pair: fbst.FBSTPair
    dataset: dataio.TimeSeriesDataset
    connected: bool
    rng: np.random.Generator
    adam: nncore.AdamState
    last_report: fbst.LossReport | None = None


class BarrierError(RuntimeError):
    """The strategy was about to run on an incomplete set of epoch uploads."""


def _load_dataset(name: str, path: str, user_id: int, config: FederationConfig,
                  cache: dict) -> dataio.TimeSeriesDataset:
    if path == "synthetic":
        return dataio.make_synthetic_waves(seed=seed_material(config.seed, user_id), name=name)
    key = (name, path)
    if key not in cache:
        try:
            meta = dataio.DATASET_REGISTRY.get(name)
            cache[key] = dataio.load_ucr_tsv(path, meta=meta, normalize=config.normalize)
        except Exception as exc:
            raise dataio.IngestionError(f"failed to load dataset '{name}': {exc}") from exc
    return cache[key]


def seed_material(seed: int, user_id: int, salt: int = 0) -> list:
    """Seed material derived from (run seed, user id) only, so a user's whole
    stream is independent of every other user and of the strategy."""
    return [seed, user_id, salt]


def build_users(config: FederationConfig) -> list:
    connected_set = set(select_connected(config.n_tot, config.conn_ratio, config.seed))
    cache = {}
    users = []
    for uid in range(config.n_tot):
        name, path = config.datasets[uid % len(config.datasets)]
        ds = _load_dataset(name, path, uid, config, cache)
        student = ext.FeatureExtractor(
            num_classes=ds.num_classes, blocks=config.blocks, hidden_dim=config.hidden_dim,
            bn_paper_literal=config.bn_paper_literal,
            seed=seed_material(config.seed, uid, salt=1),
        )
        users.append(UserState(
            user_id=uid,
            pair=fbst.FBSTPair(student),
            dataset=ds,
            connected=uid in connected_set,
            rng=np.random.default_rng(seed_material(config.seed, uid, salt=2)),
            adam=nncore.AdamState.for_params(student.parameters(), lr=config.lr,
                                             weight_decay=config.weight_decay),
        ))
    return users


class Federation:
    """One run's users, server state and schedule. ``run()`` executes all
    epochs; the instance keeps the users afterwards so callers can inspect
    final models."""

    def __init__(self, config: FederationConfig, transport=None):
        self.config = config
        self.round = strategies.ROUNDS[config.strategy]
        self.users = build_users(config)
        self.ledger = CommLedger()
        self._own_transport = transport is None
        self.transport = make_transport(config) if transport is None else transport

    def _train_one(self, user: UserState, k: int):
        try:
            return fbst.local_train_epoch(
                user.pair, user.dataset.train_tensor(), user.dataset.y_train,
                self.config.fbst_config(), k, user.adam, user.rng)
        except nncore.NumericError as exc:
            raise nncore.NumericError(
                f"user {user.user_id} failed at federated epoch {k}: {exc}") from exc

    def _round_trip(self, direction: str, bundle: ext.WeightBundle, k: int,
                    user_id: int) -> tuple:
        """Encode one message, carry it over the transport's ``direction``
        ("upload" or "download"), record its size in the ledger, and return
        the decoded (user_id, bundle)."""
        data = encode_weight_message(bundle, epoch=k, user_id=user_id)
        received = getattr(self.transport, direction)(user_id, data)
        self.ledger.record(k, user_id, direction, len(data))
        decoded, _, uid = decode_weight_message(received)
        return uid, decoded

    def _run_epoch(self, k: int, on_epoch=None) -> None:
        config = self.config
        if config.conn_resample and k > 1:
            resampled = set(select_connected(config.n_tot, config.conn_ratio,
                                             config.seed, epoch=k))
            for user in self.users:
                user.connected = user.user_id in resampled
        connected_users = [u for u in self.users if u.connected]

        def train(user):
            return self._train_one(user, k)

        pool = ThreadPoolExecutor(max_workers=config.workers) if config.workers > 1 else None
        trained = pool.map(train, self.users) if pool else map(train, self.users)
        uploads = []
        try:
            for user, report in zip(self.users, trained):
                user.last_report = report
                if on_epoch is not None:
                    on_epoch(user.user_id, k, report)
                if user.connected and self.round is not None:
                    uploads.append(self._round_trip(
                        "upload", ext.extract_hidden_weights(user.pair.student), k,
                        user.user_id))
        finally:
            if pool is not None:
                pool.shutdown(cancel_futures=True)

        if self.round is not None and connected_users:
            if len(uploads) != len(connected_users):
                raise BarrierError(
                    f"epoch {k}: {len(uploads)} uploads present, "
                    f"{len(connected_users)} connected users expected")
            _, load = self.round
            for uid, bundle in strategies.apply_round(config.strategy, uploads):
                # Downloads may share one bundle; decoding gives each user
                # its own copy.
                uid, bundle = self._round_trip("download", bundle, k, uid)
                # The last epoch's downloads are carried and recorded but
                # never loaded: training is over.
                if k < config.fles:
                    getattr(self.users[uid].pair, load)(bundle)

    def run(self, on_epoch=None):
        config = self.config
        try:
            if self.round is not None:
                reachable = self.users if config.conn_resample \
                    else [u for u in self.users if u.connected]
                self.transport.connect([u.user_id for u in reachable])
            for k in range(1, config.fles + 1):
                self._run_epoch(k, on_epoch=on_epoch)
        finally:
            if self._own_transport:
                self.transport.close()
        return self.evaluate(), self.ledger

    def evaluate(self) -> metrics.MetricReport:
        rows = []
        accs = []
        for user in self.users:
            preds = user.pair.student.predict(user.dataset.test_tensor())
            accs.append(metrics.top1_accuracy(preds, user.dataset.y_test))
            rows.append(f"{user.user_id:02d}_{user.dataset.name}")
        table = metrics.AccuracyTable(datasets=rows, algorithms=[self.config.strategy],
                                      values=np.array(accs)[:, None])
        return metrics.MetricReport.from_table(table)


def run_federation(config: FederationConfig, transport=None, on_epoch=None):
    """Execute the full run and return (MetricReport, CommLedger).

    ``on_epoch(user_id, epoch, LossReport)`` is called after each user's
    local training, which is how callers collect loss traces without
    widening the return contract.
    """
    return Federation(config, transport=transport).run(on_epoch=on_epoch)
