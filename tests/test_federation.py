import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MINI_BLOCKS, MINI_HIDDEN, random_bundle
from efdls import federation
from efdls.fbst import ConfigError
from efdls.federation import (
    CommLedger, Federation, FederationConfig, MalformedMessageError, SocketTransport,
    comm_overhead, decode_weight_message, encode_weight_message, run_federation,
    select_connected,
)


def toy_config(**overrides) -> FederationConfig:
    base = dict(
        n_tot=2,
        datasets=[("wavesA", "synthetic"), ("wavesB", "synthetic")],
        conn_ratio=1.0,
        fles=3,
        seed=7,
        strategy="efdls",
        batch_size=8,
        lr=1e-3,
        blocks=MINI_BLOCKS,
        hidden_dim=MINI_HIDDEN,
    )
    base.update(overrides)
    return FederationConfig(**base)


class TestSelectConnected:
    def test_ratio_one_selects_everyone(self):
        assert select_connected(10, 1.0, seed=0) == tuple(range(10))

    def test_forty_percent_of_44_is_18(self):
        selected = select_connected(44, 0.4, seed=3)
        assert len(selected) == 18
        assert len(set(selected)) == 18
        assert all(0 <= u < 44 for u in selected)

    def test_same_seed_same_set(self):
        assert select_connected(20, 0.6, seed=9) == select_connected(20, 0.6, seed=9)

    def test_different_seed_usually_differs(self):
        sets = {select_connected(30, 0.5, seed=s) for s in range(6)}
        assert len(sets) > 1

    def test_zero_ratio_rejected(self):
        with pytest.raises(ConfigError):
            select_connected(10, 0.0, seed=0)


class TestCommOverhead:
    def test_unit_case(self):
        assert comm_overhead(1, 1, 1) == 2

    def test_printed_formula_case(self):
        assert comm_overhead(5, 10, 44) == 4400

    def test_positive_required(self):
        with pytest.raises(ValueError):
            comm_overhead(0, 1, 1)


class TestWeightMessageCodec:
    def test_round_trip_single_precision_exact(self):
        rng = np.random.default_rng(0)
        bundle = random_bundle(rng, epoch_tag=5)
        data = encode_weight_message(bundle, epoch=5, user_id=12)
        decoded, epoch, uid = decode_weight_message(data)
        assert (epoch, uid) == (5, 12)
        for key, arr in bundle.arrays.items():
            assert np.array_equal(decoded.arrays[key], arr.astype(np.float32))

    def test_magic_constant(self):
        data = encode_weight_message(random_bundle(np.random.default_rng(1)), 0, 0)
        assert data[:4] == bytes([0x45, 0x46, 0x44, 0x4C])  # "EFDL"

    def test_version_byte(self):
        data = encode_weight_message(random_bundle(np.random.default_rng(2)), 0, 0)
        assert data[4] == 1

    def test_truncation_by_one_errors_at_buffer_end(self):
        data = encode_weight_message(random_bundle(np.random.default_rng(3)), 1, 2)
        with pytest.raises(MalformedMessageError) as err:
            decode_weight_message(data[:-1])
        assert err.value.offset == len(data) - 1

    def test_bad_magic_offset_zero(self):
        data = bytearray(encode_weight_message(random_bundle(np.random.default_rng(4)), 0, 0))
        data[0] ^= 0xFF
        with pytest.raises(MalformedMessageError) as err:
            decode_weight_message(bytes(data))
        assert err.value.offset == 0

    def test_bad_version_offset_four(self):
        data = bytearray(encode_weight_message(random_bundle(np.random.default_rng(5)), 0, 0))
        data[4] = 99
        with pytest.raises(MalformedMessageError) as err:
            decode_weight_message(bytes(data))
        assert err.value.offset == 4

    def test_trailing_bytes_rejected(self):
        data = encode_weight_message(random_bundle(np.random.default_rng(6)), 0, 0)
        with pytest.raises(MalformedMessageError, match="trailing"):
            decode_weight_message(data + b"\x00")

    def test_fuzz_structural_corruption_always_structured_error(self):
        rng = np.random.default_rng(7)
        bundle = random_bundle(rng)
        data = encode_weight_message(bundle, epoch=9, user_id=1)
        for case in range(1000):
            mode = case % 3
            if mode == 0:  # truncate somewhere strictly inside
                cut = int(rng.integers(0, len(data)))
                corrupted = data[:cut]
            elif mode == 1:  # corrupt magic or version
                buf = bytearray(data)
                pos = int(rng.integers(0, 5))
                old = buf[pos]
                buf[pos] = (old + int(rng.integers(1, 255))) % 256
                corrupted = bytes(buf)
            else:  # append garbage
                corrupted = data + bytes(rng.integers(0, 256, size=int(rng.integers(1, 9)),
                                                      dtype=np.uint8).tobytes())
            with pytest.raises(MalformedMessageError) as err:
                decode_weight_message(corrupted)
            assert isinstance(err.value.offset, int)

    def test_fuzz_payload_corruption_never_crashes(self):
        rng = np.random.default_rng(8)
        bundle = random_bundle(rng)
        data = encode_weight_message(bundle, epoch=0, user_id=0)
        header = 14  # magic + version + epoch + user + block count
        for _ in range(200):
            buf = bytearray(data)
            pos = int(rng.integers(header, len(data)))
            buf[pos] ^= int(rng.integers(1, 256))
            try:
                decode_weight_message(bytes(buf))
            except MalformedMessageError:
                pass  # structured failure is acceptable; crashing is not

    @pytest.mark.parametrize("field,value", [
        ("epoch", -1), ("epoch", 2 ** 32), ("user_id", -1), ("user_id", 2 ** 32),
        ("epoch", 1.5),
    ])
    def test_header_ids_outside_u32_rejected(self, field, value):
        ids = {"epoch": 0, "user_id": 0, field: value}
        with pytest.raises(ValueError, match=rf"{field} .*got {value}$"):
            encode_weight_message(random_bundle(np.random.default_rng(10)), **ids)

    def test_header_ids_at_u32_bounds_round_trip(self):
        bundle = random_bundle(np.random.default_rng(11))
        _, epoch, uid = decode_weight_message(encode_weight_message(bundle, 0, 2 ** 32 - 1))
        assert (epoch, uid) == (0, 2 ** 32 - 1)

    def test_nonfinite_payload_rejected(self):
        bundle = random_bundle(np.random.default_rng(9))
        bundle.arrays["dense.bias"][0] = np.nan
        data = encode_weight_message(bundle, 0, 0)
        with pytest.raises(MalformedMessageError, match="non-finite"):
            decode_weight_message(data)

    @given(seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_arbitrary_shapes(self, seed):
        from efdls.extractor import BUNDLE_KEYS, WeightBundle

        rng = np.random.default_rng(seed)
        arrays = {}
        for key in BUNDLE_KEYS:
            ndim = int(rng.integers(1, 4))
            shape = tuple(int(rng.integers(1, 6)) for _ in range(ndim))
            arrays[key] = rng.standard_normal(shape).astype(np.float32)
        bundle = WeightBundle(arrays=arrays, epoch_tag=0)
        decoded, _, _ = decode_weight_message(encode_weight_message(bundle, 7, 8))
        for key, arr in arrays.items():
            assert decoded.arrays[key].shape == arr.shape
            assert np.array_equal(decoded.arrays[key], arr)


class TestRunFederation:
    def test_baseline_has_empty_ledger(self):
        report, ledger = run_federation(toy_config(strategy="baseline"))
        assert len(ledger) == 0
        assert report.table.values.shape == (2, 1)

    def test_ledger_counts_match_overhead_formula(self):
        for n_tot, fles in ((2, 3), (4, 5)):
            datasets = [(f"w{i}", "synthetic") for i in range(n_tot)]
            config = toy_config(n_tot=n_tot, fles=fles, datasets=datasets)
            _, ledger = run_federation(config)
            uploads = [e for e in ledger.entries if e.direction == "upload"]
            downloads = [e for e in ledger.entries if e.direction == "download"]
            assert len(uploads) == n_tot * fles
            assert len(downloads) == n_tot * fles
            # exactly one entry per (user, epoch, direction)
            assert len({(e.user_id, e.epoch, e.direction) for e in ledger.entries}) \
                == len(ledger.entries)
            bw = uploads[0].nbytes
            assert all(e.nbytes == bw for e in ledger.entries)
            assert ledger.total_bytes() == comm_overhead(bw, fles, n_tot)

    @pytest.mark.parametrize("strategy", ["efdls", "fkd", "fedavg"])
    def test_ledger_symmetry_per_epoch(self, strategy):
        config = toy_config(n_tot=3, fles=4,
                            datasets=[(f"w{i}", "synthetic") for i in range(3)],
                            strategy=strategy)
        _, ledger = run_federation(config)
        for k in range(1, 5):
            up = ledger.epoch_bytes(k, "upload")
            assert up > 0
            assert up == ledger.epoch_bytes(k, "download")

    def test_baseline_equals_isolated_local_training(self):
        from efdls import dataio, extractor, fbst, nncore

        config = toy_config(strategy="baseline", n_tot=2, fles=3)
        fed = Federation(config)
        fed.run()

        # retrain user 0 by hand with the same seed derivations
        ds = dataio.make_synthetic_waves(seed=federation.seed_material(config.seed, 0),
                                         name="wavesA")
        student = extractor.FeatureExtractor(
            num_classes=ds.num_classes, blocks=config.blocks, hidden_dim=config.hidden_dim,
            seed=federation.seed_material(config.seed, 0, salt=1))
        pair = fbst.FBSTPair(student)
        adam = nncore.AdamState.for_params(student.parameters(), lr=config.lr,
                                           weight_decay=config.weight_decay)
        rng = np.random.default_rng(federation.seed_material(config.seed, 0, salt=2))
        for k in range(1, 4):
            fbst.local_train_epoch(pair, ds.train_tensor(), ds.y_train,
                                   config.fbst_config(), k, adam, rng)
        fed_params = fed.users[0].pair.student.parameters()
        for key, arr in pair.student.parameters().items():
            assert np.array_equal(arr, fed_params[key]), key

    def test_barrier_ordering_uploads_before_downloads(self):
        _, ledger = run_federation(toy_config(n_tot=3, fles=3,
                                              datasets=[(f"w{i}", "synthetic") for i in range(3)]))
        for k in range(1, 4):
            entries = [e for e in ledger.entries if e.epoch == k]
            directions = [e.direction for e in entries]
            first_download = directions.index("download")
            assert all(d == "upload" for d in directions[:first_download])
            assert all(d == "download" for d in directions[first_download:])

    def test_end_to_end_determinism(self):
        r1, l1 = run_federation(toy_config())
        r2, l2 = run_federation(toy_config())
        assert np.array_equal(r1.table.values, r2.table.values)
        assert l1.entries == l2.entries

    def test_k1_trains_supervised_only_everywhere(self):
        seen = []
        run_federation(toy_config(fles=1), on_epoch=lambda uid, k, rep: seen.append((uid, k, rep)))
        assert len(seen) == 2
        for _, k, rep in seen:
            assert k == 1
            assert rep.kd == 0.0
            assert rep.total == pytest.approx(rep.sup, abs=1e-12)

    def test_teacher_active_from_second_epoch_under_efdls(self):
        reports = {}
        run_federation(toy_config(fles=3),
                       on_epoch=lambda uid, k, rep: reports.setdefault(k, []).append(rep))
        assert all(r.kd == 0.0 for r in reports[1])
        assert any(r.kd > 0.0 for r in reports[2])

    def test_fedavg_never_activates_teachers(self):
        reports = []
        run_federation(toy_config(strategy="fedavg", fles=3),
                       on_epoch=lambda uid, k, rep: reports.append(rep))
        assert all(r.kd == 0.0 for r in reports)

    def test_disconnected_user_isolated_from_federation(self):
        datasets = [(f"w{i}", "synthetic") for i in range(3)]
        fed_cfg = toy_config(n_tot=3, conn_ratio=0.67, fles=3, datasets=datasets)
        assert fed_cfg.n_conn == 2
        fed = Federation(fed_cfg)
        connected = {u.user_id for u in fed.users if u.connected}
        isolated_uid = ({0, 1, 2} - connected).pop()
        fed.run()

        base = Federation(toy_config(n_tot=3, conn_ratio=0.67, fles=3, datasets=datasets,
                                     strategy="baseline"))
        base.run()
        fed_params = fed.users[isolated_uid].pair.student.parameters()
        base_params = base.users[isolated_uid].pair.student.parameters()
        for key in fed_params:
            assert np.array_equal(fed_params[key], base_params[key]), key
        assert isolated_uid not in {e.user_id for e in fed.ledger.entries}

    def test_socket_transport_matches_inproc(self):
        r_in, l_in = run_federation(toy_config())
        r_sock, l_sock = run_federation(toy_config(transport="socket"))
        assert np.array_equal(r_in.table.values, r_sock.table.values)
        assert l_in.entries == l_sock.entries

    def test_parallel_workers_match_sequential(self):
        datasets = [(f"w{i}", "synthetic") for i in range(4)]
        r1, _ = run_federation(toy_config(n_tot=4, datasets=datasets, workers=1))
        r2, _ = run_federation(toy_config(n_tot=4, datasets=datasets, workers=3))
        assert np.array_equal(r1.table.values, r2.table.values)

    def test_barrier_error_when_upload_missing(self):
        # flipping a user to disconnected between the epoch's connected-set
        # snapshot and its upload leaves the table incomplete; the server
        # must refuse to run the strategy on it
        fed = Federation(toy_config(fles=1))

        def drop_user_zero(uid, k, report):
            if uid == 0:
                fed.users[0].connected = False

        with pytest.raises(federation.BarrierError, match="1 uploads"):
            fed.run(on_epoch=drop_user_zero)

    def test_config_round_trip(self):
        config = toy_config()
        rebuilt = FederationConfig.from_dict(config.to_dict())
        assert rebuilt.to_dict() == config.to_dict()

    def test_literal_batchnorm_runs_end_to_end(self):
        config = toy_config(fles=2, bn_paper_literal=True)
        report, _ = run_federation(config)
        assert np.isfinite(report.table.values).all()

    def test_teacher_running_stats_mode(self):
        # the alternative mode normalizes the teacher with its carried running
        # statistics, so a freshly self-loaded teacher no longer reproduces
        # the student's batch-statistics trace exactly
        from efdls import extractor, fbst, nncore

        pair = fbst.FBSTPair(extractor.FeatureExtractor(
            num_classes=2, blocks=MINI_BLOCKS, hidden_dim=MINI_HIDDEN, seed=31))
        pair.load_teacher(extractor.extract_hidden_weights(pair.student))
        rng = np.random.default_rng(32)
        x = rng.standard_normal((8, 1, 20))
        y = rng.integers(0, 2, size=8)
        cfg = fbst.FBSTConfig(batch_size=8, teacher_bn_mode="running")
        adam = nncore.AdamState.for_params(pair.student.parameters())
        report, _ = fbst.local_train_epoch(pair, x, y, cfg, k=2, adam=adam,
                                           rng=np.random.default_rng(33))
        assert report.kd > 0.0
        assert np.isfinite(report.total)

    def test_conn_resample_changes_participants_across_epochs(self):
        datasets = [(f"w{i}", "synthetic") for i in range(4)]
        config = toy_config(n_tot=4, conn_ratio=0.5, fles=6, datasets=datasets,
                            strategy="fkd", conn_resample=True)
        _, ledger = run_federation(config)
        per_epoch = {k: sorted({e.user_id for e in ledger.entries if e.epoch == k})
                     for k in range(1, 7)}
        assert all(len(u) == 2 for u in per_epoch.values())
        assert len({tuple(u) for u in per_epoch.values()}) > 1  # the set moved

    def test_n_conn_rounds_half_up(self):
        config = toy_config(n_tot=44, conn_ratio=0.4,
                            datasets=[("w", "synthetic")])
        assert config.n_conn == 18  # 40% of 44 users
        assert toy_config(n_tot=5, conn_ratio=0.5, datasets=[("w", "synthetic")]).n_conn == 3

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            FederationConfig.from_dict({"n_tot": 1, "datasets": [["a", "synthetic"]],
                                        "bogus_key": 1})
