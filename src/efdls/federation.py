"""Synchronous federation orchestrator.

One run owns ``n_tot`` users, each holding a student/teacher pair and a
private dataset. The ``n_conn`` users connected to the server in epoch k are
``Federation.connected(k)``, derived from the config and never stored: one
sample for the whole run, or a fresh one from epoch 2 on under
``conn_resample``; nobody under baseline. It is the one statement of who
takes part in a round. Every federated epoch:

  1. every user trains locally (supervised-only until it has a teacher; a
     user that is never connected is supervised-only for the whole run);
  2. once every user has trained, each connected user's hidden layers are
     borrowed into a bundle of read-only views (``extractor.
     borrow_hidden_weights``), uploaded and released, and the decoded
     upload is handed to the strategy's row of ``strategies.ROUNDS``. No
     upload exists while a user trains. The round pulls the uploads one by
     one, in user order, from a generator, so a fedavg/fkd upload is folded
     into the running mean and gone before the next user's is built, while
     efdls keeps them all;
  3. once ALL connected uploads for the epoch are in, the round returns and
     the server dispatches one bundle back per user. The barrier is
     structural: no download exists until the round has consumed every
     upload of the epoch's one connected set;
  4. each download is loaded as soon as it is decoded, by the row's
     ``FBSTPair`` method (teachers for efdls/fkd, students for fedavg). In
     an epoch whose downloads are loaded, a dispatched bundle that shares
     memory with a student is first frozen into one owned copy, which every
     download of it is encoded from. The last epoch's downloads are carried
     and recorded but never loaded, and nothing is copied for them.

Every message the round receives is checked before anything uses it: it
must decode, its header must carry the epoch and user id it was sent with,
and its bundle must fit the user's hidden arrays (``extractor.check_bundle``).
A failure names the user, the direction and the epoch, and each bundle goes
to the user it was sent for, never to the id its header claims.

Every user stores and computes in ``WIRE_DTYPE``, the float32 its weights
travel in, so an upload carries the student's hidden arrays exactly and a
decoded download is loaded as it is. Uploads and downloads travel as encoded
weight messages even in-process, so ledger byte counts are real message
sizes and the in-process and socket transports produce identical results;
the socket transport connects each user at its first message.

In-process, a message borrows its payloads from the bundle it encodes and
decodes into read-only views of them, so a bundle the round builds is
borrowed, read-only: the held uploads and the dispatched partner bundles are
views of the students' own arrays, and the mean is one float32 array every
download borrows. They cost no memory. Nothing writes a student while the
round holds a view of it: every user has trained before the first upload,
and the downloads that load students (fedavg's) hold the mean, not a
student. A teacher keeps the decoded download it is handed, and a partner's
student trains next epoch, so a dispatched bundle that is a view of a
student (an in-process efdls upload) is frozen into one copy before its
first download; in-process every teacher handed it keeps read-only views of
that one copy. Nothing else is copied: nothing writes the fedavg/fkd mean,
and over sockets every decoded bundle is owned, so a teacher keeps its own.
Keep ``bundle.copy()`` to hold any other bundle past its epoch.

Per connected user per epoch there is exactly one upload and one download,
which makes the run's ledger total exactly 2 * bundle_bytes * FLEs * N_conn.
The one exception is efdls with a single connected user: it has no partner,
so the round sends no download and the ledger holds bundle_bytes * FLEs.
"""

from __future__ import annotations

import bisect
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

# The payload dtype of message version 1, fixed by the wire format: changing
# it changes the message layout and needs a new MESSAGE_VERSION. A run's
# users store and compute in it too, so an upload is their arrays exactly.
WIRE_DTYPE = np.dtype("<f4")
MESSAGE_MAGIC = b"EFDL"
MESSAGE_VERSION = 1
# Most dims a block may declare: every supported numpy build can hold an
# array of this rank (numpy 1.x caps it at 32, 2.x at 64).
MAX_WIRE_NDIM = 32
TRANSPORTS = ("inproc", "socket")
# Seconds any one socket operation may block: a connect, an accept, one
# receive, or the whole send of a frame.
SOCKET_TIMEOUT_S = 30.0


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass
class FederationConfig:
    """Everything a run needs. ``datasets`` lists the entries assigned to
    users in order (cycled if shorter than n_tot), each a bare name (its own
    path), an object {name[, path]} or a [name, path] list, and holds them
    as (name, path) pairs; a path of "synthetic" generates the built-in
    separable two-class set seeded per user. The local-training and optimizer
    fields default to ``fbst.FBSTConfig``'s and ``nncore.AdamState``'s."""

    n_tot: int
    datasets: list
    conn_ratio: float = 1.0
    fles: int = 1
    seed: int = 0
    strategy: str = "efdls"
    epsilon: float = fbst.FBSTConfig.epsilon
    batch_size: int = fbst.FBSTConfig.batch_size
    local_epochs: int = fbst.FBSTConfig.local_epochs
    lr: float = nncore.AdamState.lr
    weight_decay: float = nncore.AdamState.weight_decay
    bn_paper_literal: bool = False
    teacher_bn_mode: str = fbst.FBSTConfig.teacher_bn_mode
    blocks: tuple = ext.DEFAULT_BLOCKS
    hidden_dim: int = ext.DEFAULT_HIDDEN_DIM
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
        connected_count(self.n_tot, self.conn_ratio)
        if self.fles < 1:
            raise ConfigError(f"fles must be >= 1, got {self.fles}")
        if not self.datasets:
            raise ConfigError("at least one dataset assignment is required")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0 <= self.port <= 65535:
            raise ConfigError(f"port must lie in [0, 65535], got {self.port}")
        if not 0.0 < self.lr < np.inf:
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if not 0.0 <= self.weight_decay < np.inf:
            raise ConfigError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.transport not in TRANSPORTS:
            raise ConfigError(f"transport must be {' or '.join(map(repr, TRANSPORTS))}, "
                              f"got '{self.transport}'")
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
        for entry in self.datasets:
            if isinstance(entry, str):
                pair = (entry, entry)
            elif isinstance(entry, dict):
                pair = (entry.get("name"), entry.get("path", entry.get("name")))
            elif isinstance(entry, (list, tuple)) and len(entry) == 2:
                pair = tuple(entry)
            else:
                raise ConfigError("each dataset entry must be a name, an object or a "
                                  f"[name, path] list, got {entry!r}")
            if not all(isinstance(v, str) for v in pair):
                raise ConfigError(f"each dataset must be a (name, path) pair of strings, got {pair!r}")
            datasets.append(pair)
        self.datasets = datasets
        self.fbst_config()  # validates the local-training fields

    @property
    def n_conn(self) -> int:
        return connected_count(self.n_tot, self.conn_ratio)

    def fbst_config(self) -> fbst.FBSTConfig:
        return fbst.FBSTConfig(**{f.name: getattr(self, f.name) for f in fields(fbst.FBSTConfig)})

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


def connected_count(n_tot: int, conn_ratio: float) -> int:
    """round-half-up(conn_ratio * n_tot), refusing a ratio outside (0, 1]
    and one that selects nobody."""
    if not 0.0 < conn_ratio <= 1.0:
        raise ConfigError(f"conn_ratio must lie in (0, 1], got {conn_ratio}")
    n_conn = int(np.floor(conn_ratio * n_tot + 0.5))
    if n_conn < 1:
        raise ConfigError(f"conn_ratio {conn_ratio} of {n_tot} users selects nobody")
    return n_conn


def select_connected(n_tot: int, conn_ratio: float, seed: int, epoch: int | None = None) -> tuple:
    """The run's connected-user set: uniform sample without replacement of
    round-half-up(ratio * n_tot) users, fixed for the whole run unless the
    per-epoch resampling extension passes an epoch number."""
    n_conn = connected_count(n_tot, conn_ratio)
    material = [seed, 104729] if epoch is None else [seed, 104729, epoch]
    rng = np.random.default_rng(material)
    return tuple(sorted(int(u) for u in rng.choice(n_tot, size=n_conn, replace=False)))


def comm_overhead(bw: int, fles: int, n_conn: int) -> int:
    """Total bytes moved by a run: one upload and one download of ``bw``
    bytes per connected user per epoch. An efdls run with one connected user
    sends no downloads and so moves half of this."""
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
    position where parsing failed (== len(data) when the buffer ran out) and
    ``reason`` the message without it."""

    def __init__(self, reason: str, offset: int):
        super().__init__(f"{reason} (at byte offset {offset})")
        self.reason = reason
        self.offset = offset


_KEY_TO_TAG = {key: tag for tag, key in enumerate(ext.BUNDLE_KEYS)}


def _value_fault(key: str, values: np.ndarray) -> str | None:
    """Why the float32 ``values`` of block ``key`` may not travel, or None.
    Every value must be finite, and a running variance is never negative:
    both batch-norm forms keep a variance or a summed squared deviation."""
    if not np.isfinite(values).all():
        return "non-finite values"
    if key.endswith("running_var") and (values < 0).any():
        return "negative running-variance values"
    return None


class WeightMessage:
    """An encoded weight message held as its parts, in wire order: header
    bytes and the float32 payload arrays, borrowed from the bundle that was
    encoded, not copied. ``len(message)`` is its wire size and
    ``bytes(message)`` its version-1 frame. A borrowed payload follows its
    array, so the message holds the encoded values only while that array
    does not change."""

    __slots__ = ("parts", "nbytes")

    def __init__(self, parts):
        self.parts = tuple(parts)
        self.nbytes = sum(memoryview(p).nbytes for p in self.parts)

    def __len__(self) -> int:
        return self.nbytes

    def __bytes__(self) -> bytes:
        return b"".join(self.parts)


def encode_weight_message(bundle: ext.WeightBundle, epoch: int, user_id: int) -> WeightMessage:
    """Serialize a bundle: magic, version, epoch/user ids, then one block per
    array (tag byte, dim count, little-endian u32 dims, float32 payload), in
    tag (``BUNDLE_KEYS``) order whatever the bundle's own order, so a decoded
    bundle's order, and every sum a server takes over it, never depends on
    the sender. Arrays need at most MAX_WIRE_NDIM dims, each in [1, 2**32),
    and values that are finite in float32, never negative in a running
    variance, since the decoder rejects any other. A contiguous float32
    array is the message's payload itself; any other is converted into
    one."""
    for name, value in (("epoch", epoch), ("user_id", user_id)):
        if not isinstance(value, numbers.Integral) or not 0 <= value < 2 ** 32:
            raise ValueError(f"{name} must be an integer in [0, 2**32), got {value!r}")
    parts = []
    header = [MESSAGE_MAGIC, bytes([MESSAGE_VERSION]),
              struct.pack("<II", epoch, user_id), bytes([len(bundle.arrays)])]
    # a key with no tag sorts first, and is refused
    for key in sorted(bundle.arrays, key=lambda key: _KEY_TO_TAG.get(key, -1)):
        arr = bundle.arrays[key]
        if key not in _KEY_TO_TAG:
            raise ValueError(f"bundle array '{key}' has no wire tag")
        if arr.ndim > MAX_WIRE_NDIM or any(not 0 < d < 2 ** 32 for d in arr.shape):
            raise ValueError(f"bundle array '{key}' has dims outside the wire format range")
        with np.errstate(over="ignore"):
            payload = np.ascontiguousarray(arr, dtype=WIRE_DTYPE)
        fault = _value_fault(key, payload)
        if fault is not None:
            raise ValueError(f"bundle array '{key}' of user {user_id} at epoch {epoch} "
                             f"holds {fault} in float32")
        header += [bytes([_KEY_TO_TAG[key], arr.ndim]), struct.pack(f"<{arr.ndim}I", *arr.shape)]
        parts += [b"".join(header), payload]
        header = []
    if header:
        parts.append(b"".join(header))
    return WeightMessage(parts)


def decode_weight_message(data) -> tuple:
    """Parse an encoded message, a ``WeightMessage`` or a byte frame, back
    into (bundle, epoch, user_id).

    Validation is strict: magic and version are checked, blocks must come
    in the encoder's tag order, each tag greater than the one before it,
    block shapes must be ones the encoder writes, every byte must be
    accounted for, and payload values must be finite and, in a running
    variance, not negative. Offsets are positions in the frame. A byte
    frame is a message of one part and decodes into owned copies. A payload
    that is a whole float32 array part of a ``WeightMessage`` is taken as a
    read-only view of that array."""
    parts = data.parts if isinstance(data, WeightMessage) else (data,)
    starts = [0]  # each part's offset in the frame, then the frame's end
    for part in parts:
        starts.append(starts[-1] + memoryview(part).nbytes)
    size = starts[-1]
    offset = 0
    joined = None

    def skip(n: int, what: str) -> int:
        """Move past the next n bytes; returns where they start."""
        nonlocal offset
        if offset + n > size:
            raise MalformedMessageError(f"message truncated while reading {what}", size)
        offset += n
        return offset - n

    def locate(start: int, n: int, payload: bool = False):
        """A buffer holding the n bytes at ``start`` and their offset in it:
        the byte part they lie in, a float32 array part that is exactly
        them when they are a payload, or else the joined frame."""
        nonlocal joined
        if n == 0:
            return b"", 0
        i = bisect.bisect_right(starts, start) - 1
        if i < len(parts) and start + n <= starts[i + 1]:
            part = parts[i]
            if not isinstance(part, np.ndarray):
                return part, start - starts[i]
            if payload and start == starts[i] and n == part.nbytes and part.dtype == WIRE_DTYPE:
                return part, 0
        if joined is None:
            joined = b"".join(parts)
        return joined, start

    def take(n: int, what: str) -> bytes:
        buf, at = locate(skip(n, what), n)
        return bytes(buf[at:at + n])

    magic = take(4, "magic")
    if magic != MESSAGE_MAGIC:
        raise MalformedMessageError(f"bad magic {magic!r}", 0)
    version = take(1, "version")[0]
    if version != MESSAGE_VERSION:
        raise MalformedMessageError(f"unsupported version {version}", 4)
    epoch, user_id = struct.unpack("<II", take(8, "epoch/user header"))
    block_count = take(1, "block count")[0]
    arrays = {}
    previous = -1  # the tag of the block before
    for b in range(block_count):
        tag_offset = offset
        tag, ndim = take(2, f"block {b} tag/ndim")
        if tag >= len(ext.BUNDLE_KEYS):
            raise MalformedMessageError(f"unknown block tag {tag}", tag_offset)
        key = ext.BUNDLE_KEYS[tag]
        if key in arrays:
            raise MalformedMessageError(f"duplicate block tag {tag}", tag_offset)
        if tag < previous:
            raise MalformedMessageError(
                f"block tag {tag} after block tag {previous}: blocks must come in tag order",
                tag_offset)
        previous = tag
        if ndim > MAX_WIRE_NDIM:
            raise MalformedMessageError(
                f"block {b} declares {ndim} dims, more than {MAX_WIRE_NDIM}", tag_offset)
        dims = struct.unpack(f"<{ndim}I", take(4 * ndim, f"block {b} dims"))
        if 0 in dims:
            raise MalformedMessageError(f"block {b} has a zero dim in {dims}", tag_offset)
        numel = 1
        for d in dims:
            numel *= d
        nbytes = WIRE_DTYPE.itemsize * numel
        payload_offset = skip(nbytes, f"block {b} payload")
        buf, at = locate(payload_offset, nbytes, payload=True)
        if isinstance(buf, np.ndarray):
            arr = buf.reshape(dims)
            arr.flags.writeable = False
        else:
            # read in place and copied once; the temporary view is gone
            # before any error below, so a byte frame is never left exported
            arr = np.frombuffer(buf, dtype=WIRE_DTYPE, count=numel, offset=at).reshape(dims).copy()
        fault = _value_fault(key, arr)
        if fault is not None:
            raise MalformedMessageError(f"{fault} in block {b}", payload_offset)
        arrays[key] = arr
    if offset != size:
        raise MalformedMessageError(f"{size - offset} trailing bytes after last block", offset)
    return ext.WeightBundle(arrays=arrays), epoch, user_id


# ---------------------------------------------------------------------------
# Transports
# ---------------------------------------------------------------------------

class InProcTransport:
    """Default transport: messages stay in memory, and each is handed over
    as it is, its payloads still borrowed from the sender's arrays."""

    def upload(self, user_id: int, data: WeightMessage) -> WeightMessage:
        return data

    def download(self, user_id: int, data: WeightMessage) -> WeightMessage:
        return data

    def close(self) -> None:
        pass


def _send_frame(sock: socket.socket, data) -> None:
    """Send a message's length-prefixed frame in one ``sendall``, built once:
    the length prefix and the message's parts are joined into one buffer."""
    parts = data.parts if isinstance(data, WeightMessage) else (data,)
    sock.sendall(b"".join((struct.pack("<I", len(data)), *parts)))


def _recv_exact(sock: socket.socket, n: int) -> bytearray:
    """The next n bytes, received into one buffer of that size. Each receive
    blocks at most the socket's timeout."""
    buf = bytearray(n)
    with memoryview(buf) as view:
        got = 0
        while got < n:
            count = sock.recv_into(view[got:])
            if not count:
                raise ConnectionError("socket closed mid-frame")
            got += count
    return buf


def _recv_frame(sock: socket.socket) -> bytearray:
    (length,) = struct.unpack("<I", _recv_exact(sock, 4))
    return _recv_exact(sock, length)


class SocketTransport:
    """Loopback TCP transport carrying the same length-prefixed weight
    messages; one persistent connection per user, opened at the user's first
    message. The send side runs on a helper thread so arbitrarily large
    frames cannot deadlock the process. A message is sent as its byte frame,
    which the receiving side reads into one buffer, so what it decodes is
    owned copies.
    Every socket times out after SOCKET_TIMEOUT_S, so a dead or stalled peer
    raises an OSError instead of blocking forever."""

    def __init__(self, port: int = 0):
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            self._listener.settimeout(SOCKET_TIMEOUT_S)
            self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._listener.bind(("127.0.0.1", port))
            self._listener.listen()
        except OSError:
            # a taken port: the caller gets the error, and no open socket
            self._listener.close()
            raise
        self.port = self._listener.getsockname()[1]
        self._user_side = {}
        self._server_side = {}

    def _pair(self, user_id: int) -> tuple:
        """The user's (user side, server side) sockets, connected at its first
        message. Each side is kept as soon as it exists, so ``close`` closes
        it even when the other side fails to open."""
        if user_id not in self._server_side:
            self._user_side[user_id] = socket.create_connection(("127.0.0.1", self.port),
                                                                timeout=SOCKET_TIMEOUT_S)
            conn, _ = self._listener.accept()
            self._server_side[user_id] = conn
            conn.settimeout(SOCKET_TIMEOUT_S)
        return self._user_side[user_id], self._server_side[user_id]

    def _pump(self, sender: socket.socket, receiver: socket.socket, data) -> bytearray:
        def send():
            # a send that fails leaves the frame short, so the receive fails
            # too and reports it
            try:
                _send_frame(sender, data)
            except OSError:
                pass

        t = threading.Thread(target=send)
        t.start()
        try:
            return _recv_frame(receiver)
        finally:
            t.join()

    def upload(self, user_id: int, data) -> bytearray:
        user_side, server_side = self._pair(user_id)
        return self._pump(user_side, server_side, data)

    def download(self, user_id: int, data) -> bytearray:
        user_side, server_side = self._pair(user_id)
        return self._pump(server_side, user_side, data)

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
    rng: np.random.Generator
    adam: nncore.AdamState
    last_report: fbst.LossReport | None = None


class TransportError(RuntimeError):
    """A message did not cross the transport: its peer closed, or a socket
    operation timed out."""


def _load_dataset(name: str, path: str, user_id: int, config: FederationConfig,
                  cache: dict) -> dataio.TimeSeriesDataset:
    if path == "synthetic":
        return dataio.make_synthetic_waves(seed=seed_material(config.seed, user_id), name=name)
    key = (name, path)
    if key not in cache:
        try:
            meta = dataio.DATASET_REGISTRY.get(name)
            cache[key] = dataio.load_ucr_tsv(path, meta=meta)
        except Exception as exc:
            raise dataio.IngestionError(f"failed to load dataset '{name}': {exc}") from exc
    return cache[key]


def seed_material(seed: int, user_id: int, salt: int = 0) -> list:
    """Seed material derived from (run seed, user id) only, so a user's whole
    stream is independent of every other user and of the strategy."""
    return [seed, user_id, salt]


def build_users(config: FederationConfig) -> list:
    cache = {}
    users = []
    for uid in range(config.n_tot):
        name, path = config.datasets[uid % len(config.datasets)]
        ds = _load_dataset(name, path, uid, config, cache)
        student = ext.FeatureExtractor(
            num_classes=ds.num_classes, blocks=config.blocks, hidden_dim=config.hidden_dim,
            bn_paper_literal=config.bn_paper_literal,
            seed=seed_material(config.seed, uid, salt=1), dtype=WIRE_DTYPE,
        )
        users.append(UserState(
            user_id=uid,
            pair=fbst.FBSTPair(student),
            dataset=ds,
            rng=np.random.default_rng(seed_material(config.seed, uid, salt=2)),
            adam=nncore.AdamState.for_params(student.parameters(), lr=config.lr,
                                             weight_decay=config.weight_decay),
        ))
    return users


def _shares_a_student(bundle: ext.WeightBundle, students: list) -> bool:
    """Whether an array of ``bundle`` shares memory with the array of its key
    in one of ``students``, each a model's ``hidden_arrays``. Keys are the
    outer loop, so a bundle borrowed from a student is found at its first
    array."""
    return any(np.shares_memory(arr, student[key])
               for key, arr in bundle.arrays.items() for student in students)


class Federation:
    """One run's users, server state and schedule. ``run()`` executes all
    epochs; the instance keeps the users afterwards so callers can inspect
    final models."""

    def __init__(self, config: FederationConfig, transport=None):
        self.config = config
        self.round = strategies.ROUNDS[config.strategy]
        self.users = build_users(config)
        self.local_training = config.fbst_config()
        self.ledger = CommLedger()
        self._own_transport = transport is None
        self.transport = make_transport(config) if transport is None else transport

    def connected(self, k: int) -> tuple:
        """The sorted ids of the users connected in federated epoch ``k``: the
        run's one sample, or under ``conn_resample`` a fresh one from epoch 2.
        Baseline connects nobody."""
        config = self.config
        return () if self.round is None else select_connected(
            config.n_tot, config.conn_ratio, config.seed,
            epoch=k if config.conn_resample and k > 1 else None)

    def _train_one(self, user: UserState, k: int):
        try:
            return fbst.local_train_epoch(
                user.pair, user.dataset.train_tensor(), user.dataset.y_train,
                self.local_training, k, user.adam, user.rng)
        except nncore.NumericError as exc:
            raise nncore.NumericError(
                f"user {user.user_id} failed at federated epoch {k}: {exc}") from exc

    def _round_trip(self, direction: str, bundle: ext.WeightBundle, k: int,
                    user_id: int) -> ext.WeightBundle:
        """Encode one message for ``user_id``, carry it over the transport's
        ``direction`` ("upload" or "download"), record its size in the
        ledger, and return the decoded bundle. A transport OSError becomes a
        TransportError, a message that does not decode or whose header ids
        differ from the ones sent a MalformedMessageError, and a bundle that
        does not fit the user's hidden arrays an IncompatibleBundleError, each
        naming the user, the direction and the epoch."""
        where = f"user {user_id} {direction} at federated epoch {k}"
        data = encode_weight_message(bundle, epoch=k, user_id=user_id)
        try:
            received = getattr(self.transport, direction)(user_id, data)
        except OSError as exc:
            raise TransportError(
                f"user {user_id} {direction} failed at federated epoch {k}: {exc}") from exc
        self.ledger.record(k, user_id, direction, len(data))
        try:
            decoded, epoch, uid = decode_weight_message(received)
        except MalformedMessageError as exc:
            raise MalformedMessageError(f"{where}: {exc.reason}", exc.offset) from exc
        if (epoch, uid) != (k, user_id):
            # the header ids start after the magic and the version byte
            raise MalformedMessageError(f"{where}: header carries epoch {epoch} and user {uid}",
                                        len(MESSAGE_MAGIC) + 1)
        try:
            ext.check_bundle(decoded, ext.hidden_arrays(self.users[user_id].pair.student))
        except ext.IncompatibleBundleError as exc:
            raise ext.IncompatibleBundleError(f"{where}: {exc}") from exc
        return decoded

    def _run_epoch(self, k: int, on_epoch=None) -> None:
        config = self.config
        connected = self.connected(k)

        def train(user):
            return self._train_one(user, k)

        pool = ThreadPoolExecutor(max_workers=config.workers) if config.workers > 1 else None
        try:
            reports = list(pool.map(train, self.users) if pool else map(train, self.users))
        finally:
            if pool is not None:
                pool.shutdown(cancel_futures=True)
        for user, report in zip(self.users, reports):
            user.last_report = report
            if on_epoch is not None:
                on_epoch(user.user_id, k, report)

        def uploads():
            # Every user has trained, so no upload is held while a user
            # trains; each connected user's upload goes out, in user order,
            # when the round asks for it.
            for user in self.users:
                if user.user_id in connected:
                    yield user.user_id, self._round_trip(
                        "upload", ext.borrow_hidden_weights(user.pair.student), k,
                        user.user_id)

        downloads = strategies.apply_round(config.strategy, uploads())

        # Downloads may share one bundle, and in-process a decoded one is a
        # read-only view of it, which a teacher keeps. A dispatched bundle
        # that shares memory with a student (in-process, an efdls partner's
        # upload), which trains next epoch, is frozen into one owned copy at
        # its first download, and its later downloads are encoded from that
        # same copy. The last epoch's downloads are carried and recorded but
        # never loaded: training is over, and nothing is copied.
        load = k < config.fles
        students = [ext.hidden_arrays(user.pair.student) for user in self.users] if load else []
        frozen = {}  # id of a dispatched bundle, alive in downloads -> what is sent
        for uid, bundle in downloads:
            if load:
                if id(bundle) not in frozen:
                    frozen[id(bundle)] = (bundle.copy() if _shares_a_student(bundle, students)
                                          else bundle)
                bundle = frozen[id(bundle)]
            bundle = self._round_trip("download", bundle, k, uid)
            if load:
                getattr(self.users[uid].pair, self.round[1])(bundle)

    def run(self, on_epoch=None):
        config = self.config
        try:
            for k in range(1, config.fles + 1):
                self._run_epoch(k, on_epoch=on_epoch)
        finally:
            if self._own_transport:
                self.transport.close()
        return self.evaluate(), self.ledger

    def evaluate(self) -> metrics.MetricReport:
        """Test accuracy per user. The calling thread's workspace, grown to
        evaluation size, is given back afterwards."""
        rows = []
        accs = []
        try:
            for user in self.users:
                preds = user.pair.student.predict(user.dataset.test_tensor())
                accs.append(metrics.top1_accuracy(preds, user.dataset.y_test))
                rows.append(f"{user.user_id:02d}_{user.dataset.name}")
        finally:
            nncore.release_workspace()
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
