"""Synchronous federation orchestrator.

One run owns ``n_tot`` users, each holding a student/teacher pair and a
private dataset; a subset of ``n_conn`` users is connected to the server for
the whole run. Every federated epoch:

  1. users load whatever the server dispatched at the end of the previous
     epoch (teachers for efdls/fkd, students for fedavg; nothing at epoch 1);
  2. every user trains locally (supervised-only until it has a teacher;
     disconnected users are supervised-only for the whole run);
  3. connected users upload their hidden-layer bundles;
  4. once ALL connected uploads for the epoch are in (hard barrier), the
     server applies the strategy and dispatches one bundle back per user.

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
from dataclasses import dataclass, field

import numpy as np

from . import dataio, dbwm, fbst, metrics, nncore, strategies
from . import extractor as ext
from .fbst import ConfigError

MESSAGE_MAGIC = b"EFDL"
MESSAGE_VERSION = 1


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
        if self.n_tot < 1:
            raise ConfigError(f"n_tot must be >= 1, got {self.n_tot}")
        if not 0.0 < self.conn_ratio <= 1.0:
            raise ConfigError(f"conn_ratio must lie in (0, 1], got {self.conn_ratio}")
        if self.fles < 1:
            raise ConfigError(f"fles must be >= 1, got {self.fles}")
        if not self.datasets:
            raise ConfigError("at least one dataset assignment is required")
        if self.transport not in ("inproc", "socket"):
            raise ConfigError(f"transport must be 'inproc' or 'socket', got '{self.transport}'")
        strategies.StrategyKind(self.strategy)  # validates the tag
        self.blocks = tuple((int(k), int(c)) for k, c in self.blocks)
        self.datasets = [tuple(d) if not isinstance(d, dict) else (d["name"], d["path"])
                         for d in self.datasets]

    @property
    def n_conn(self) -> int:
        return round_half_up(self.conn_ratio * self.n_tot)

    def fbst_config(self) -> fbst.FBSTConfig:
        return fbst.FBSTConfig(epsilon=self.epsilon,
                               local_epochs_per_round=self.local_epochs,
                               batch_size=self.batch_size,
                               teacher_bn_mode=self.teacher_bn_mode)

    def to_dict(self) -> dict:
        return {
            "n_tot": self.n_tot,
            "datasets": [{"name": n, "path": p} for n, p in self.datasets],
            "conn_ratio": self.conn_ratio,
            "fles": self.fles,
            "seed": self.seed,
            "strategy": self.strategy,
            "epsilon": self.epsilon,
            "batch_size": self.batch_size,
            "local_epochs": self.local_epochs,
            "lr": self.lr,
            "weight_decay": self.weight_decay,
            "bn_paper_literal": self.bn_paper_literal,
            "teacher_bn_mode": self.teacher_bn_mode,
            "blocks": [list(b) for b in self.blocks],
            "hidden_dim": self.hidden_dim,
            "normalize": self.normalize,
            "conn_resample": self.conn_resample,
            "transport": self.transport,
            "port": self.port,
            "workers": self.workers,
            "output_dir": self.output_dir,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FederationConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)


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
    array (tag byte, dim count, little-endian u32 dims, float32 payload)."""
    for name, value in (("epoch", epoch), ("user_id", user_id)):
        if not isinstance(value, numbers.Integral) or not 0 <= value < 2 ** 32:
            raise ValueError(f"{name} must be an integer in [0, 2**32), got {value!r}")
    parts = [MESSAGE_MAGIC, bytes([MESSAGE_VERSION]),
             struct.pack("<II", epoch, user_id), bytes([len(bundle.arrays)])]
    for key, arr in bundle.arrays.items():
        if key not in _KEY_TO_TAG:
            raise ValueError(f"bundle array '{key}' has no wire tag")
        if arr.ndim > 255 or any(d >= 2 ** 32 for d in arr.shape):
            raise ValueError(f"bundle array '{key}' has dims outside the wire format range")
        parts.append(bytes([_KEY_TO_TAG[key], arr.ndim]))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    return b"".join(parts)


def decode_weight_message(data: bytes) -> tuple:
    """Parse an encoded message back into (bundle, epoch, user_id).

    Validation is strict: magic and version are checked, every byte must be
    accounted for, and payload values must be finite."""
    offset = 0

    def take(n: int, what: str) -> bytes:
        nonlocal offset
        if offset + n > len(data):
            raise MalformedMessageError(f"message truncated while reading {what}", len(data))
        chunk = data[offset:offset + n]
        offset += n
        return chunk

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
        dims = struct.unpack(f"<{ndim}I", take(4 * ndim, f"block {b} dims"))
        numel = 1
        for d in dims:
            numel *= d
        payload_offset = offset
        payload = take(4 * numel, f"block {b} payload")
        arr = np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
        if not np.isfinite(arr).all():
            raise MalformedMessageError(f"non-finite values in block {b}", payload_offset)
        arrays[key] = arr
    if offset != len(data):
        raise MalformedMessageError(f"{len(data) - offset} trailing bytes after last block", offset)
    return ext.WeightBundle(arrays=arrays, epoch_tag=epoch), epoch, user_id


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
    """The strategy was about to run on an incomplete epoch table."""


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
        self.strategy = strategies.StrategyKind(config.strategy)
        self.users = build_users(config)
        self.ledger = CommLedger()
        self._own_transport = transport is None
        self.transport = make_transport(config) if transport is None else transport
        self._pending_loads: dict = {}

    def _train_one(self, user: UserState, k: int):
        if user.user_id in self._pending_loads:
            target, bundle = self._pending_loads.pop(user.user_id)
            if target == "teacher":
                user.pair.load_teacher(bundle)
            else:
                user.pair.load_student(bundle)
        try:
            return fbst.local_train_epoch(
                user.pair, user.dataset.train_tensor(), user.dataset.y_train,
                self.config.fbst_config(), k, user.adam, user.rng)
        except nncore.NumericError as exc:
            raise nncore.NumericError(
                f"user {user.user_id} failed at federated epoch {k}: {exc}") from exc

    def _run_epoch(self, k: int, on_epoch=None) -> None:
        config = self.config
        if config.conn_resample and k > 1:
            resampled = set(select_connected(config.n_tot, config.conn_ratio,
                                             config.seed, epoch=k))
            for user in self.users:
                user.connected = user.user_id in resampled
        connected_users = [u for u in self.users if u.connected]

        if config.workers > 1:
            from concurrent.futures import ThreadPoolExecutor
            with ThreadPoolExecutor(max_workers=config.workers) as pool:
                results = list(pool.map(lambda u: self._train_one(u, k), self.users))
        else:
            results = [self._train_one(u, k) for u in self.users]

        uploads = []
        for user, (report, bundle) in zip(self.users, results):
            user.last_report = report
            if on_epoch is not None:
                on_epoch(user.user_id, k, report)
            if user.connected and self.strategy.communicates:
                data = encode_weight_message(bundle, epoch=k, user_id=user.user_id)
                received = self.transport.upload(user.user_id, data)
                self.ledger.record(k, user.user_id, "upload", len(data))
                decoded, _, uid = decode_weight_message(received)
                uploads.append((uid, decoded))

        if self.strategy.communicates and connected_users:
            if len(uploads) != len(connected_users):
                raise BarrierError(
                    f"epoch {k}: {len(uploads)} uploads present, "
                    f"{len(connected_users)} connected users expected")
            table = dbwm.WeightTable(entries=uploads, epoch=k)
            for ins in strategies.apply_round(self.strategy, table):
                data = encode_weight_message(ins.bundle, epoch=k, user_id=ins.user_id)
                received = self.transport.download(ins.user_id, data)
                self.ledger.record(k, ins.user_id, "download", len(data))
                bundle, _, uid = decode_weight_message(received)
                self._pending_loads[uid] = (ins.target, bundle)

    def run(self, on_epoch=None):
        config = self.config
        if self.strategy.communicates:
            reachable = self.users if config.conn_resample \
                else [u for u in self.users if u.connected]
            self.transport.connect([u.user_id for u in reachable])
        try:
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
        table = metrics.AccuracyTable(datasets=rows, algorithms=[self.strategy.tag],
                                      values=np.array(accs)[:, None])
        return metrics.MetricReport.from_table(table)


def run_federation(config: FederationConfig, transport=None, on_epoch=None):
    """Execute the full run and return (MetricReport, CommLedger).

    ``on_epoch(user_id, epoch, LossReport)`` is called after each user's
    local training, which is how callers collect loss traces without
    widening the return contract.
    """
    return Federation(config, transport=transport).run(on_epoch=on_epoch)
