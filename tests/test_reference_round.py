"""The federated round stated straight, as the whole-run oracle.

``reference_round`` runs a config's epochs with none of the run's machinery:
no codec, no transport, no streaming and no thread pool. Every user trains,
the epoch's connected users hand their hidden weights (cast to the wire's
float32) to ``strategies.apply_round``, and before the last epoch each
download, cast the same way, is loaded by the strategy's row. It shares the
training and server code with ``Federation``, so it checks orchestration
(routing by id, the connected sets, the last-epoch rule, resampling and the
pool), not kernels; the gradcheck and the DBWM oracle check those.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MINI_BLOCKS, MINI_HIDDEN, model_arrays
from efdls import fbst, metrics, strategies
from efdls.extractor import WeightBundle, extract_hidden_weights, hidden_arrays
from efdls.federation import (
    Federation, FederationConfig, build_users, comm_overhead, encode_weight_message,
    select_connected,
)


def as_wire(bundle: WeightBundle) -> WeightBundle:
    return WeightBundle(arrays={key: arr.astype("<f4") for key, arr in bundle.arrays.items()})


def reference_round(config: FederationConfig):
    """Run ``config`` straight through; returns the users, their test
    accuracies and, per epoch, the ids of the connected users and of the
    users sent a download (both empty under baseline; efdls sends none to a
    lone connected user, who has no partner)."""
    users = build_users(config)
    local = config.fbst_config()
    row = strategies.ROUNDS[config.strategy]
    rounds = []
    for k in range(1, config.fles + 1):
        for user in users:
            user.last_report = fbst.local_train_epoch(
                user.pair, user.dataset.train_tensor(), user.dataset.y_train, local, k,
                user.adam, user.rng)
        connected = () if row is None else select_connected(
            config.n_tot, config.conn_ratio, config.seed,
            epoch=k if config.conn_resample and k > 1 else None)
        uploads = [(uid, as_wire(extract_hidden_weights(users[uid].pair.student)))
                   for uid in connected]
        downloads = strategies.apply_round(config.strategy, uploads)
        rounds.append((connected, tuple(uid for uid, _ in downloads)))
        if k < config.fles:
            for uid, bundle in downloads:
                getattr(users[uid].pair, row[1])(as_wire(bundle))
    accs = [metrics.top1_accuracy(u.pair.student.predict(u.dataset.test_tensor()),
                                  u.dataset.y_test) for u in users]
    return users, accs, rounds


def reference_config(**overrides) -> FederationConfig:
    base = dict(n_tot=5, datasets=[(f"w{i}", "synthetic") for i in range(5)],
                conn_ratio=0.6, fles=3, seed=11, batch_size=8, lr=3e-3,
                blocks=MINI_BLOCKS, hidden_dim=MINI_HIDDEN)
    base.update(overrides)
    return FederationConfig(**base)


def pair_arrays(pair: fbst.FBSTPair) -> dict:
    """The student's arrays and, once it has one, the teacher's hidden ones."""
    arrays = model_arrays(pair.student)
    if pair.teacher is not None:
        arrays.update({f"teacher.{key}": arr for key, arr in hidden_arrays(pair.teacher).items()})
    return arrays


# transport / workers / conn_resample / batch-norm form / teacher mode
CASES = {
    "inproc-1-fixed-standard-batch": dict(
        transport="inproc", workers=1, conn_resample=False, bn_paper_literal=False,
        teacher_bn_mode="batch"),
    "socket-3-resample-literal-running": dict(
        transport="socket", workers=3, conn_resample=True, bn_paper_literal=True,
        teacher_bn_mode="running"),
    "inproc-2-resample-standard-running": dict(
        transport="inproc", workers=2, conn_resample=True, bn_paper_literal=False,
        teacher_bn_mode="running"),
}


def ledger_ids(ledger, k: int, direction: str) -> tuple:
    return tuple(e.user_id for e in ledger.entries if e.epoch == k and e.direction == direction)


@pytest.mark.parametrize("case", CASES.values(), ids=CASES)
@pytest.mark.parametrize("strategy", strategies.STRATEGY_TAGS)
def test_run_matches_reference_round(strategy, case):
    config = reference_config(strategy=strategy, **case)
    rounds, ledger, bundle_bytes = assert_run_matches_reference(config)
    # every connected user uploads and is sent a download, each epoch
    for k, (connected, _) in enumerate(rounds, start=1):
        for direction in ("upload", "download"):
            assert ledger_ids(ledger, k, direction) == connected, (k, direction)
    if strategies.ROUNDS[strategy] is None:
        assert len(ledger) == 0
    else:
        assert ledger.total_bytes() == comm_overhead(bundle_bytes, config.fles, config.n_conn)


# about 0.3 s an example on two cores
@settings(max_examples=30, deadline=None)
@given(strategy=st.sampled_from(strategies.STRATEGY_TAGS),
       conn_ratio=st.floats(0.1, 1.0), conn_resample=st.booleans(),
       transport=st.sampled_from(["inproc", "socket"]), workers=st.integers(1, 3),
       bn_paper_literal=st.booleans(), teacher_bn_mode=st.sampled_from(["batch", "running"]),
       seed=st.integers(0, 2**32 - 1))
def test_run_matches_reference_round_on_drawn_configs(**drawn):
    # a failing example is reported with every drawn field, the seed included.
    # The expected downloads are the reference's own, so a lone connected
    # efdls user, who is sent none (a FOUND line in CHANGES.md), passes here;
    # the fixed cases above hold the downloads to the connected set.
    rounds, ledger, bundle_bytes = assert_run_matches_reference(reference_config(**drawn))
    for k, sent in enumerate(rounds, start=1):
        for direction, expected in zip(("upload", "download"), sent):
            assert ledger_ids(ledger, k, direction) == expected, (k, direction)
    assert ledger.total_bytes() == bundle_bytes * sum(len(c) + len(d) for c, d in rounds)


def assert_run_matches_reference(config: FederationConfig):
    """``Federation.run`` on ``config`` agrees with ``reference_round`` bit
    for bit, and on each epoch's connected set; returns the reference's
    rounds, the run's ledger and the bytes of one weight message."""
    users, accs, rounds = reference_round(config)
    fed = Federation(config)
    report, ledger = fed.run()

    assert report.table.values[:, 0].tolist() == accs
    # LossReport compares kd, sup and total exactly
    assert [u.last_report for u in fed.users] == [u.last_report for u in users]
    # the models too, since the last epoch's loads would show only there
    for run_user, user in zip(fed.users, users):
        run_arrays, arrays = pair_arrays(run_user.pair), pair_arrays(user.pair)
        assert run_arrays.keys() == arrays.keys(), user.user_id
        for key, arr in arrays.items():
            assert run_arrays[key].dtype == arr.dtype and np.array_equal(run_arrays[key], arr), \
                (user.user_id, key)
    assert [fed.connected(k) for k in range(1, config.fles + 1)] == [c for c, _ in rounds]
    bundle_bytes = len(encode_weight_message(
        extract_hidden_weights(users[0].pair.student), epoch=1, user_id=0))
    return rounds, ledger, bundle_bytes
