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
    accuracies and each epoch's connected set (empty under baseline)."""
    users = build_users(config)
    local = config.fbst_config()
    row = strategies.ROUNDS[config.strategy]
    connected_sets = []
    for k in range(1, config.fles + 1):
        for user in users:
            user.last_report = fbst.local_train_epoch(
                user.pair, user.dataset.train_tensor(), user.dataset.y_train, local, k,
                user.adam, user.rng)
        connected = () if row is None else select_connected(
            config.n_tot, config.conn_ratio, config.seed,
            epoch=k if config.conn_resample and k > 1 else None)
        connected_sets.append(connected)
        uploads = [(uid, as_wire(extract_hidden_weights(users[uid].pair.student)))
                   for uid in connected]
        downloads = strategies.apply_round(config.strategy, uploads)
        if k < config.fles:
            for uid, bundle in downloads:
                getattr(users[uid].pair, row[1])(as_wire(bundle))
    accs = [metrics.top1_accuracy(u.pair.student.predict(u.dataset.test_tensor()),
                                  u.dataset.y_test) for u in users]
    return users, accs, connected_sets


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


@pytest.mark.parametrize("case", CASES.values(), ids=CASES)
@pytest.mark.parametrize("strategy", strategies.STRATEGY_TAGS)
def test_run_matches_reference_round(strategy, case):
    config = reference_config(strategy=strategy, **case)
    users, accs, connected_sets = reference_round(config)
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
    assert [fed.connected(k) for k in range(1, config.fles + 1)] == connected_sets
    for k, connected in enumerate(connected_sets, start=1):
        for direction in ("upload", "download"):
            assert tuple(e.user_id for e in ledger.entries
                         if e.epoch == k and e.direction == direction) == connected, (k, direction)
    if strategies.ROUNDS[strategy] is None:
        assert len(ledger) == 0
    else:
        bundle_bytes = len(encode_weight_message(
            extract_hidden_weights(users[0].pair.student), epoch=1, user_id=0))
        assert ledger.total_bytes() == comm_overhead(bundle_bytes, config.fles, config.n_conn)
