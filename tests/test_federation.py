import copy
import gc
import math
import struct
import sys
import threading
import tracemalloc
import warnings
import weakref
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MINI_BLOCKS, MINI_HIDDEN, mini_model, model_arrays, random_bundle
from efdls import cli, dbwm, extractor, fbst, federation, nncore, strategies
from efdls.extractor import WeightBundle
from efdls.fbst import ConfigError
from efdls.federation import (
    CommLedger, Federation, FederationConfig, MalformedMessageError, SocketTransport,
    comm_overhead, decode_weight_message, encode_weight_message, expected_ledger_total,
    run_federation, select_connected,
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


def run_keeping_users(config: FederationConfig):
    """``Federation.run``'s (report, ledger) and the federation, whose users
    hold the final models."""
    fed = Federation(config)
    return fed.run(), fed


def assert_same_users(fed: Federation, other: Federation) -> None:
    """Every user's last loss report and final student arrays agree bit for
    bit. At toy widths every user can end at the same accuracy, so an
    accuracy table alone compares little."""
    assert [u.last_report for u in fed.users] == [u.last_report for u in other.users]
    for user, other_user in zip(fed.users, other.users, strict=True):
        arrays, other_arrays = model_arrays(user.pair.student), model_arrays(other_user.pair.student)
        assert arrays.keys() == other_arrays.keys()
        for key, arr in arrays.items():
            assert arr.dtype == other_arrays[key].dtype, (user.user_id, key)
            assert arr.tobytes() == other_arrays[key].tobytes(), (user.user_id, key)


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


def _zero_mini_message() -> bytes:
    """An encoded mini bundle whose payload values are all zero."""
    bundle = random_bundle(np.random.default_rng(13))
    for arr in bundle.arrays.values():
        arr[...] = 0.0
    return bytes(encode_weight_message(bundle, epoch=3, user_id=4))


ZERO_MESSAGE = _zero_mini_message()


class TestWeightMessageCodec:
    def test_round_trip_single_precision_exact(self):
        rng = np.random.default_rng(0)
        bundle = random_bundle(rng)
        data = encode_weight_message(bundle, epoch=5, user_id=12)
        decoded, epoch, uid = decode_weight_message(data)
        assert (epoch, uid) == (5, 12)
        for key, arr in bundle.arrays.items():
            assert np.array_equal(decoded.arrays[key], arr.astype(np.float32))

    def test_magic_constant(self):
        data = bytes(encode_weight_message(random_bundle(np.random.default_rng(1)), 0, 0))
        assert data[:4] == bytes([0x45, 0x46, 0x44, 0x4C])  # "EFDL"

    def test_version_byte(self):
        data = bytes(encode_weight_message(random_bundle(np.random.default_rng(2)), 0, 0))
        assert data[4] == 1

    def test_truncation_by_one_errors_at_buffer_end(self):
        data = bytes(encode_weight_message(random_bundle(np.random.default_rng(3)), 1, 2))
        with pytest.raises(MalformedMessageError) as err:
            decode_weight_message(data[:-1])
        assert err.value.offset == len(data) - 1

    def test_bad_magic_offset_zero(self):
        bundle = random_bundle(np.random.default_rng(4))
        data = bytearray(bytes(encode_weight_message(bundle, 0, 0)))
        data[0] ^= 0xFF
        with pytest.raises(MalformedMessageError, match=r"^bad magic b'\\xbaFDL' ") as err:
            decode_weight_message(bytes(data))
        assert err.value.offset == 0

    def test_decoded_arrays_own_their_memory(self):
        bundle = random_bundle(np.random.default_rng(14))
        buf = bytearray(bytes(encode_weight_message(bundle, epoch=2, user_id=3)))
        short = buf[:-1]
        with pytest.raises(MalformedMessageError) as err:
            decode_weight_message(short)
        short.append(0)  # the held error does not pin the buffer
        assert err.value.offset == len(buf) - 1
        decoded, _, _ = decode_weight_message(buf)
        buf[14:] = bytes(len(buf) - 14)  # zero every block, header and payload
        for key, arr in bundle.arrays.items():
            got = decoded.arrays[key]
            assert np.array_equal(got, arr.astype(np.float32))
            assert got.flags.writeable and got.flags.owndata

    def test_bad_version_offset_four(self):
        bundle = random_bundle(np.random.default_rng(5))
        data = bytearray(bytes(encode_weight_message(bundle, 0, 0)))
        data[4] = 99
        with pytest.raises(MalformedMessageError) as err:
            decode_weight_message(bytes(data))
        assert err.value.offset == 4

    def test_trailing_bytes_rejected(self):
        data = bytes(encode_weight_message(random_bundle(np.random.default_rng(6)), 0, 0))
        with pytest.raises(MalformedMessageError, match="trailing"):
            decode_weight_message(data + b"\x00")

    def test_fuzz_structural_corruption_always_structured_error(self):
        rng = np.random.default_rng(7)
        bundle = random_bundle(rng)
        data = bytes(encode_weight_message(bundle, epoch=9, user_id=1))
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
        data = bytes(encode_weight_message(bundle, epoch=0, user_id=0))
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
        # the encoder refuses such values, so the message is built by hand
        data = _single_block_message(1, (2,), np.array([0.5, np.nan], dtype="<f4").tobytes())
        with pytest.raises(MalformedMessageError, match="non-finite"):
            decode_weight_message(data)

    @pytest.mark.parametrize("value", [1e39, -1e39, np.inf, np.nan])
    def test_encoder_refuses_values_not_finite_in_float32(self, value):
        bundle = random_bundle(np.random.default_rng(9))
        bundle.arrays["dense.bias"][0] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="'dense.bias' of user 4 at epoch 3 holds"):
                encode_weight_message(bundle, epoch=3, user_id=4)

    def test_encoder_refuses_a_negative_running_variance(self):
        bundle = random_bundle(np.random.default_rng(15))
        bundle.arrays["bn3.running_var"][0] = -1.0
        bundle.arrays["bn3.running_mean"][0] = -1.0  # a mean may be negative
        with pytest.raises(ValueError, match=r"^bundle array 'bn3.running_var' of user 4 at "
                                             r"epoch 3 holds negative running-variance values"):
            encode_weight_message(bundle, epoch=3, user_id=4)

    def test_blocks_travel_in_tag_order_whatever_the_bundle_order(self):
        # a sender's order would otherwise set the order of every sum the
        # server takes over the decoded bundle
        bundle = random_bundle(np.random.default_rng(16))
        reversed_bundle = WeightBundle(arrays=dict(reversed(bundle.arrays.items())))
        data = bytes(encode_weight_message(reversed_bundle, epoch=2, user_id=3))
        assert data == bytes(encode_weight_message(bundle, epoch=2, user_id=3))
        assert [block[0] for block in frame_blocks(data)[1]] == list(range(len(bundle.arrays)))
        decoded, _, _ = decode_weight_message(data)
        assert list(decoded.arrays) == list(extractor.BUNDLE_KEYS)

    @pytest.mark.parametrize("first,second", [(1, 0), (5, 2), (19, 0)])
    def test_a_block_before_a_greater_tag_is_refused_at_its_tag(self, first, second):
        data = bytes(encode_weight_message(random_bundle(np.random.default_rng(17)), 0, 0))
        header, blocks = frame_blocks(data)
        kept = [b for i, b in enumerate(blocks) if i not in (first, second)]
        frame = with_blocks(header, [blocks[first], blocks[second]] + kept)
        with pytest.raises(MalformedMessageError) as err:
            decode_weight_message(frame)
        assert err.value.reason == (f"block tag {second} after block tag {first}: "
                                    f"blocks must come in tag order")
        assert err.value.offset == len(header) + len(blocks[first])

    @pytest.mark.parametrize("tag", [0, 7, 19])
    def test_a_repeated_block_keeps_the_duplicate_message(self, tag):
        data = bytes(encode_weight_message(random_bundle(np.random.default_rng(18)), 0, 0))
        header, blocks = frame_blocks(data)
        frame = with_blocks(header, blocks[:tag + 1] + blocks[tag:])
        with pytest.raises(MalformedMessageError) as err:
            decode_weight_message(frame)
        assert err.value.reason == f"duplicate block tag {tag}"
        assert err.value.offset == len(header) + sum(map(len, blocks[:tag + 1]))

    @pytest.mark.parametrize("value", [-1e-3, -0.0])
    def test_running_variance_below_zero_rejected_at_its_payload(self, value):
        bundle = random_bundle(np.random.default_rng(16))
        data = bytes(encode_weight_message(bundle, epoch=0, user_id=0))
        block = list(bundle.arrays).index("bn2.running_var")
        payload = block_payload_offset(data, block)
        second = payload + 4  # the block's second value
        mutated = data[:second] + struct.pack("<f", value) + data[second + 4:]
        if value < 0:
            with pytest.raises(MalformedMessageError,
                               match=rf"^negative running-variance values in block {block} "
                                     rf"\(at byte offset {payload}\)$") as err:
                decode_weight_message(mutated)
            assert err.value.offset == payload
        else:  # -0.0 is not below zero: it decodes and encodes back unchanged
            decoded, epoch, uid = decode_weight_message(mutated)
            assert bytes(encode_weight_message(decoded, epoch, uid)) == mutated

    @given(mutation=st.one_of(
        st.tuples(st.just("flip"), st.lists(st.tuples(st.integers(0, len(ZERO_MESSAGE) - 1),
                                                        st.integers(1, 255)),
                                              min_size=1, max_size=3)),
        st.tuples(st.just("truncate"), st.integers(0, len(ZERO_MESSAGE) - 1)),
        st.tuples(st.just("extend"), st.binary(min_size=1, max_size=16)),
    ))
    @settings(max_examples=400, deadline=None)
    def test_zero_bundle_mutations_round_trip_or_are_malformed(self, mutation):
        # zero payloads read back as zero dims wherever a corrupted header
        # runs into them, which is what reaches numpy's reshape limits;
        # random payloads read as huge dims and stop at the truncation check
        data = ZERO_MESSAGE
        mode, arg = mutation
        if mode == "flip":
            buf = bytearray(data)
            for pos, mask in arg:
                buf[pos] ^= mask
            mutated = bytes(buf)
        elif mode == "truncate":
            mutated = data[:arg]
        else:
            mutated = data + arg
        try:
            bundle, epoch, uid = decode_weight_message(mutated)
        except MalformedMessageError:
            return
        assert bytes(encode_weight_message(bundle, epoch, uid)) == mutated

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
            if key.endswith("running_var"):
                arrays[key] = np.abs(arrays[key])
        bundle = WeightBundle(arrays=arrays)
        decoded, _, _ = decode_weight_message(encode_weight_message(bundle, 7, 8))
        for key, arr in arrays.items():
            assert decoded.arrays[key].shape == arr.shape
            assert np.array_equal(decoded.arrays[key], arr)


# sha256 of the version-1 frame of a seeded paper-width bundle, as the
# copying encoder wrote it
PAPER_FRAME_SHA256 = "22896da8a2f9bdb1e8e5962b538c77c3b3a2ab6fe86a5008328ff6f06b6d1a83"


def _cut_frame(frame: bytes, cuts) -> federation.WeightMessage:
    """A message whose parts are the frame cut at the given offsets."""
    bounds = [0, *sorted(set(cuts)), len(frame)]
    return federation.WeightMessage(frame[a:b] for a, b in zip(bounds, bounds[1:]))


class TestBorrowedMessages:
    """An encoded message holds its payloads as the bundle's own float32
    arrays; its frame is the version-1 frame, and decoding it in-process
    gives read-only views of them."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_paper_width_frame_is_pinned(self, dtype):
        import hashlib

        model = extractor.FeatureExtractor(num_classes=3, seed=2022, dtype=dtype)
        message = encode_weight_message(extractor.extract_hidden_weights(model), 3, 12)
        frame = bytes(message)
        assert len(message) == len(frame) == 1_129_634
        assert hashlib.sha256(frame).hexdigest() == PAPER_FRAME_SHA256

    def test_float32_payloads_are_borrowed_and_decode_read_only(self):
        bundle = random_bundle(np.random.default_rng(20))
        bundle = WeightBundle({k: v.astype(np.float32) for k, v in bundle.arrays.items()})
        message = encode_weight_message(bundle, 1, 2)
        decoded, epoch, uid = decode_weight_message(message)
        assert (epoch, uid) == (1, 2)
        for key, arr in bundle.arrays.items():
            view = decoded.arrays[key]
            assert np.shares_memory(view, arr) and not view.flags.writeable, key
            assert view.tobytes() == arr.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                view[...] = 0.0
        owned, _, _ = decode_weight_message(bytes(message))
        for key, arr in owned.arrays.items():
            assert arr.flags.owndata and arr.flags.writeable, key
            assert arr.tobytes() == bundle.arrays[key].tobytes()

    def test_other_dtypes_travel_as_converted_copies(self):
        bundle = random_bundle(np.random.default_rng(21))  # float64
        decoded, _, _ = decode_weight_message(encode_weight_message(bundle, 0, 0))
        for key, arr in bundle.arrays.items():
            assert not np.shares_memory(decoded.arrays[key], arr), key
            assert np.array_equal(decoded.arrays[key], arr.astype(np.float32))

    @given(cuts=st.lists(st.integers(0, len(ZERO_MESSAGE)), max_size=6),
           mutation=st.one_of(st.just(None), st.integers(0, len(ZERO_MESSAGE) - 1)))
    @settings(max_examples=200, deadline=None)
    def test_any_split_of_a_frame_decodes_as_the_frame(self, cuts, mutation):
        # one parser: parts cut anywhere read as the frame they join into,
        # with its values, or its error and offset
        frame = ZERO_MESSAGE if mutation is None else ZERO_MESSAGE[:mutation]
        outcomes = []
        for data in (frame, _cut_frame(frame, [c for c in cuts if c <= len(frame)])):
            try:
                bundle, epoch, uid = decode_weight_message(data)
            except MalformedMessageError as exc:
                outcomes.append((str(exc), exc.offset))
            else:
                outcomes.append((epoch, uid, {k: v.tobytes() for k, v in bundle.arrays.items()}))
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("key,value,fault", [
        ("conv1.bias", np.nan, "non-finite values"),
        ("bn2.running_var", -1.0, "negative running-variance values"),
    ])
    def test_array_part_gets_the_frame_checks(self, key, value, fault):
        # the encoder refuses such values, so they are written after it ran,
        # into the array the message borrows
        bundle = random_bundle(np.random.default_rng(22))
        bundle = WeightBundle({k: v.astype(np.float32) for k, v in bundle.arrays.items()})
        message = encode_weight_message(bundle, 0, 0)
        block = list(bundle.arrays).index(key)
        payload = block_payload_offset(bytes(message), block)
        bundle.arrays[key][0] = value
        with pytest.raises(MalformedMessageError,
                           match=rf"^{fault} in block {block} \(at byte offset {payload}\)$"):
            decode_weight_message(message)


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
            assert ledger.total_bytes() == expected_ledger_total(config, bw)

    def test_lone_efdls_user_sends_no_downloads(self):
        # one connected user has no partner: the one exception to the
        # 2 * bundle_bytes * FLEs * N_conn identity
        datasets = [(f"w{i}", "synthetic") for i in range(5)]
        config = toy_config(n_tot=5, conn_ratio=0.2, fles=3, datasets=datasets)
        assert config.n_conn == 1
        _, ledger = run_federation(config)
        assert [e.direction for e in ledger.entries] == ["upload"] * config.fles
        assert ledger.total_bytes("download") == 0
        bw = ledger.entries[0].nbytes
        assert ledger.total_bytes() == bw * config.fles
        assert 2 * ledger.total_bytes() == comm_overhead(bw, config.fles, config.n_conn)
        assert ledger.total_bytes() == expected_ledger_total(config, bw)

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
        from efdls import fbst

        config = toy_config(strategy="baseline", n_tot=2, fles=3)
        fed = Federation(config)
        fed.run()

        # retrain a fresh user 0 by hand, outside any round
        user = federation.build_users(config)[0]
        for k in range(1, 4):
            fbst.local_train_epoch(user.pair, user.dataset.train_tensor(), user.dataset.y_train,
                                   config.fbst_config(), k, user.adam, user.rng)
        fed_params = fed.users[0].pair.student.parameters()
        for key, arr in user.pair.student.parameters().items():
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
        (r1, l1), first = run_keeping_users(toy_config())
        (r2, l2), second = run_keeping_users(toy_config())
        assert np.array_equal(r1.table.values, r2.table.values)
        assert l1.entries == l2.entries
        assert_same_users(first, second)

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
        connected = set(fed.connected(1))
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
        (r_in, l_in), inproc = run_keeping_users(toy_config())
        (r_sock, l_sock), sock = run_keeping_users(toy_config(transport="socket"))
        assert np.array_equal(r_in.table.values, r_sock.table.values)
        assert l_in.entries == l_sock.entries
        assert_same_users(inproc, sock)

    def test_parallel_workers_match_sequential(self):
        datasets = [(f"w{i}", "synthetic") for i in range(4)]
        (r1, _), sequential = run_keeping_users(toy_config(n_tot=4, datasets=datasets, workers=1))
        (r2, _), parallel = run_keeping_users(toy_config(n_tot=4, datasets=datasets, workers=3))
        assert np.array_equal(r1.table.values, r2.table.values)
        assert_same_users(sequential, parallel)

    def test_fedavg_upload_missing_a_block_is_refused(self):
        # a peer that drops one block from its upload reaches the server as a
        # well-formed message; the mean must refuse it with the typed error
        class DroppingTransport(federation.InProcTransport):
            def upload(self, user_id, data):
                if user_id != 1:
                    return data
                bundle, epoch, uid = decode_weight_message(data)
                del bundle.arrays["conv2.bias"]
                return encode_weight_message(bundle, epoch, uid)

        datasets = [(f"w{i}", "synthetic") for i in range(3)]
        fed = Federation(toy_config(n_tot=3, fles=1, strategy="fedavg", datasets=datasets),
                         transport=DroppingTransport())
        with pytest.raises(extractor.IncompatibleBundleError,
                           match=r"^user 1 upload at federated epoch 1: bundle keys do not "
                                 r"match: missing \['conv2.bias'\]"):
            fed.run()

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
        report = fbst.local_train_epoch(pair, x, y, cfg, k=2, adam=adam,
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

    @pytest.mark.parametrize("conn_resample", [False, True])
    def test_each_epoch_exchanges_with_exactly_its_connected_set(self, conn_resample):
        datasets = [(f"w{i}", "synthetic") for i in range(5)]
        fed = Federation(toy_config(n_tot=5, conn_ratio=0.6, fles=4, datasets=datasets,
                                    conn_resample=conn_resample))
        _, ledger = fed.run()
        for k in range(1, 5):
            for direction in ("upload", "download"):
                users = [e.user_id for e in ledger.entries
                         if e.epoch == k and e.direction == direction]
                assert tuple(sorted(users)) == fed.connected(k), (k, direction)
        assert (len({fed.connected(k) for k in range(1, 5)}) > 1) == conn_resample

    def test_n_conn_rounds_half_up(self):
        config = toy_config(n_tot=44, conn_ratio=0.4,
                            datasets=[("w", "synthetic")])
        assert config.n_conn == 18  # 40% of 44 users
        assert toy_config(n_tot=5, conn_ratio=0.5, datasets=[("w", "synthetic")]).n_conn == 3

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            FederationConfig.from_dict({"n_tot": 1, "datasets": [["a", "synthetic"]],
                                        "bogus_key": 1})

    @pytest.mark.parametrize("field,value,message", [
        ("epsilon", 1.5, "epsilon must lie strictly inside"),
        ("batch_size", 0, "batch_size must be >= 1"),
        ("local_epochs", 0, "local_epochs must be >= 1"),
        ("teacher_bn_mode", "bogus", "teacher_bn_mode must be 'batch' or 'running'"),
    ])
    def test_local_training_fields_checked_when_config_is_built(self, field, value, message):
        with pytest.raises(ConfigError, match=message):
            FederationConfig(n_tot=2, datasets=[("s", "synthetic")], **{field: value})

    def test_ratio_that_connects_nobody_rejected_when_config_is_built(self):
        with pytest.raises(ConfigError, match=r"^conn_ratio 0.2 of 2 users selects nobody$"):
            toy_config(conn_ratio=0.2)

    @pytest.mark.parametrize("entry,pair", [
        ("Chinatown", ("Chinatown", "Chinatown")),
        ({"name": "Chinatown"}, ("Chinatown", "Chinatown")),
        ({"name": "waves", "path": "synthetic"}, ("waves", "synthetic")),
        (["waves", "synthetic"], ("waves", "synthetic")),
        (("waves", "synthetic"), ("waves", "synthetic")),
    ])
    def test_each_dataset_entry_form_becomes_a_pair(self, entry, pair):
        config = FederationConfig(n_tot=1, datasets=[entry])
        assert config.datasets == [pair]
        assert config.to_dict()["datasets"] == [{"name": pair[0], "path": pair[1]}]

    def test_local_training_defaults_are_fbst_defaults(self):
        config = FederationConfig(n_tot=1, datasets=["w"])
        assert config.fbst_config() == fbst.FBSTConfig()

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ConfigError, match=rf"^workers must be >= 1, got {workers}$"):
            FederationConfig(n_tot=2, datasets=[("s", "synthetic")], workers=workers)


class TestStreamedRound:
    """Each bundle is uploaded as its user finishes training, and each
    download is loaded as soon as it is decoded."""

    @pytest.mark.parametrize("workers", [1, 3])
    def test_each_bundle_is_released_before_the_next_is_extracted(self, monkeypatch, workers):
        real = extractor.borrow_hidden_weights
        refs = []

        def tracking(model):
            assert all(ref() is None for ref in refs), "an earlier bundle is alive"
            bundle = real(model)
            refs.append(weakref.ref(bundle))
            return bundle

        monkeypatch.setattr(extractor, "borrow_hidden_weights", tracking)
        datasets = [(f"w{i}", "synthetic") for i in range(4)]
        config = toy_config(n_tot=4, conn_ratio=0.75, fles=2, datasets=datasets,
                            workers=workers)
        _, ledger = run_federation(config)
        assert len(refs) == 3 * 2
        assert len(ledger) == 2 * 3 * 2

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("strategy", ["fedavg", "fkd", "efdls"])
    def test_only_matching_keeps_decoded_uploads_until_the_round(self, monkeypatch, strategy,
                                                                 workers):
        # a mean folds each decoded upload in and lets it go before the next
        # user's bundle is extracted; matching needs every upload at once
        held = strategy == "efdls"
        refs = []  # weak references to this epoch's decoded uploads
        uploads = []
        real_run_epoch = Federation._run_epoch
        real_round_trip = Federation._round_trip
        real_extract = extractor.borrow_hidden_weights

        def run_epoch(fed, k, on_epoch=None):
            refs.clear()
            return real_run_epoch(fed, k, on_epoch=on_epoch)

        def round_trip(fed, direction, bundle, k, user_id):
            decoded = real_round_trip(fed, direction, bundle, k, user_id)
            if direction == "upload":
                refs.append(weakref.ref(decoded))
                uploads.append((k, user_id))
            return decoded

        def extract(model):
            alive = [ref() is not None for ref in refs]
            assert alive == [held] * len(refs), (strategy, alive)
            return real_extract(model)

        monkeypatch.setattr(Federation, "_run_epoch", run_epoch)
        monkeypatch.setattr(Federation, "_round_trip", round_trip)
        monkeypatch.setattr(extractor, "borrow_hidden_weights", extract)
        datasets = [(f"w{i}", "synthetic") for i in range(4)]
        config = toy_config(n_tot=4, conn_ratio=0.75, fles=2, datasets=datasets,
                            strategy=strategy, workers=workers)
        _, ledger = run_federation(config)
        assert len(uploads) == 3 * 2
        assert len(ledger) == 2 * 3 * 2

    @pytest.mark.parametrize("conn_resample", [False, True])
    @pytest.mark.parametrize("strategy", ["efdls", "fkd", "fedavg", "baseline"])
    def test_hidden_weights_are_extracted_only_for_uploads(self, monkeypatch, strategy,
                                                           conn_resample):
        extracted = []
        real = extractor.borrow_hidden_weights
        monkeypatch.setattr(extractor, "borrow_hidden_weights",
                            lambda model: extracted.append(model) or real(model))
        datasets = [(f"w{i}", "synthetic") for i in range(4)]
        fed = Federation(toy_config(n_tot=4, conn_ratio=0.5, fles=3, datasets=datasets,
                                    strategy=strategy, conn_resample=conn_resample))
        _, ledger = fed.run()
        # two connected users in each of three epochs, none for baseline
        assert len(extracted) == (0 if strategy == "baseline" else 2 * 3)
        assert extracted == [fed.users[e.user_id].pair.student for e in ledger.entries
                             if e.direction == "upload"]

    @pytest.mark.parametrize("strategy,load", [("efdls", "load_teacher"),
                                               ("fkd", "load_teacher"),
                                               ("fedavg", "load_student")])
    def test_each_download_is_loaded_on_arrival(self, monkeypatch, strategy, load):
        events = []

        class RecordingTransport(federation.InProcTransport):
            def download(self, user_id, data):
                events.append(("download", user_id))
                return data

        datasets = [(f"w{i}", "synthetic") for i in range(3)]
        fed = Federation(toy_config(n_tot=3, fles=3, strategy=strategy, datasets=datasets),
                         transport=RecordingTransport())
        owner = {id(u.pair): u.user_id for u in fed.users}
        real_train = fbst.local_train_epoch

        def train(pair, *args, **kwargs):
            events.append(("train", owner[id(pair)]))
            return real_train(pair, *args, **kwargs)

        monkeypatch.setattr(fbst, "local_train_epoch", train)
        for name in ("load_teacher", "load_student"):
            def loading(pair, bundle, name=name, real=getattr(fbst.FBSTPair, name)):
                events.append((name, owner[id(pair)]))
                real(pair, bundle)
            monkeypatch.setattr(fbst.FBSTPair, name, loading)
        fed.run()

        expected = []
        for k in range(1, 4):
            expected += [("train", uid) for uid in range(3)]
            for uid in range(3):
                expected.append(("download", uid))
                if k < 3:  # the last epoch's downloads are never loaded
                    expected.append((load, uid))
        assert events == expected

    def test_last_epoch_downloads_are_recorded_but_never_loaded(self):
        last = {}

        class RecordingTransport(federation.InProcTransport):
            def download(self, user_id, data):
                last[user_id] = bytes(data)
                return data

        datasets = [(f"w{i}", "synthetic") for i in range(3)]
        fed = Federation(toy_config(n_tot=3, fles=2, strategy="fedavg", datasets=datasets),
                         transport=RecordingTransport())
        _, ledger = fed.run()
        assert sorted(e.user_id for e in ledger.entries
                      if e.epoch == 2 and e.direction == "download") == [0, 1, 2]
        mean, epoch, _ = decode_weight_message(last[0])
        assert epoch == 2
        for user in fed.users:
            hidden = extractor.hidden_arrays(user.pair.student)
            assert not all(np.array_equal(hidden[key].astype(np.float32), arr)
                           for key, arr in mean.arrays.items()), user.user_id

    def test_adam_overflow_names_user_and_epoch(self):
        # lr 1e6 drives a float32 gradient past 1.8e19, where Adam's g * g
        # overflows; the run fails instead of freezing the parameter
        config = toy_config(n_tot=3, fles=2, seed=1, lr=1e6, batch_size=16,
                            datasets=[(f"waves{c}", "synthetic") for c in "ABC"],
                            blocks=((5, 16), (3, 32), (3, 16)), hidden_dim=16)
        with pytest.raises(nncore.NumericError,
                           match=r"^user 1 failed at federated epoch 2: Adam step overflowed "
                                 r"for parameter group 'bn3.beta'"):
            run_federation(config)

    def test_worker_failure_names_user_and_epoch_and_closes_sockets(self, monkeypatch):
        datasets = [(f"w{i}", "synthetic") for i in range(4)]
        fed = Federation(toy_config(n_tot=4, fles=2, datasets=datasets, workers=3,
                                    transport="socket"))
        failing = fed.users[2].pair
        real = fbst.local_train_epoch

        def train(pair, *args, **kwargs):
            if pair is failing:
                raise nncore.NumericError("injected non-finite loss")
            return real(pair, *args, **kwargs)

        monkeypatch.setattr(fbst, "local_train_epoch", train)
        threads_before = threading.active_count()
        with pytest.raises(nncore.NumericError,
                           match=r"^user 2 failed at federated epoch 1: injected"):
            fed.run()
        transport = fed.transport
        sockets = [transport._listener, *transport._user_side.values(),
                   *transport._server_side.values()]
        # every user trains before the first upload, so a failed epoch sends
        # nothing: no user's connection pair was ever opened
        assert len(sockets) == 1
        assert all(s.fileno() == -1 for s in sockets)
        assert threading.active_count() == threads_before  # the pool has shut down
        assert fed.ledger.entries == []

    def test_failed_connect_closes_the_owned_sockets(self, monkeypatch):
        datasets = [(f"w{i}", "synthetic") for i in range(4)]
        fed = Federation(toy_config(n_tot=4, fles=2, datasets=datasets, transport="socket"))
        real = federation.socket.create_connection
        attempts = []

        def connect(*args, **kwargs):
            attempts.append(1)
            if len(attempts) == 3:
                raise ConnectionRefusedError("injected connect failure")
            return real(*args, **kwargs)

        monkeypatch.setattr(federation.socket, "create_connection", connect)
        with pytest.raises(federation.TransportError,
                           match=r"^user 2 upload failed at federated epoch 1: "
                                 r"injected connect failure$"):
            fed.run()
        transport = fed.transport
        sockets = [transport._listener, *transport._user_side.values(),
                   *transport._server_side.values()]
        assert len(sockets) == 1 + 2 * 2
        assert all(s.fileno() == -1 for s in sockets)
        assert [(e.epoch, e.user_id, e.direction) for e in fed.ledger.entries] == [
            (1, 0, "upload"), (1, 1, "upload")]

    def test_failed_accept_names_the_user_and_closes_its_client_socket(self):
        fed = Federation(toy_config(transport="socket"))
        transport = fed.transport
        listener = transport._listener

        class SecondAcceptTimesOut:
            accepts = 0

            def accept(self):
                self.accepts += 1
                if self.accepts == 2:  # user 1's client has connected by now
                    raise TimeoutError("timed out")
                return listener.accept()

            def close(self):
                listener.close()

        transport._listener = SecondAcceptTimesOut()
        with pytest.raises(federation.TransportError,
                           match=r"^user 1 upload failed at federated epoch 1: timed out$"):
            fed.run()
        assert sorted(transport._user_side) == [0, 1]
        assert sorted(transport._server_side) == [0]
        sockets = [listener, *transport._user_side.values(), *transport._server_side.values()]
        assert all(s.fileno() == -1 for s in sockets)

    def test_taken_port_raises_and_leaves_no_socket_open(self, monkeypatch):
        # binding a port another socket listens on fails; the transport's own
        # socket is closed before the error propagates, so the collector
        # finds no unclosed socket to warn about
        unraisable = []
        monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
        with federation.socket.socket(federation.socket.AF_INET,
                                      federation.socket.SOCK_STREAM) as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen()
            raised = False
            with warnings.catch_warnings():
                warnings.simplefilter("error", ResourceWarning)
                try:
                    SocketTransport(port=holder.getsockname()[1])
                except OSError:
                    # not kept: its traceback would hold the socket alive
                    raised = True
                gc.collect()
        assert raised
        assert [hook.exc_value for hook in unraisable] == []

    def test_resampled_socket_run_connects_exactly_the_users_that_ever_connect(self):
        datasets = [(f"w{i}", "synthetic") for i in range(6)]
        fed = Federation(toy_config(n_tot=6, conn_ratio=0.34, fles=3, datasets=datasets,
                                    conn_resample=True, transport="socket"))
        fed.run()
        ever = set().union(*(fed.connected(k) for k in range(1, 4)))
        assert ever != set(range(6))
        assert set(fed.transport._user_side) == set(fed.transport._server_side) == ever

    # frames go: epoch 1 uploads of users 0 and 1, their downloads, then epoch 2
    @pytest.mark.parametrize("stalled,message", [
        (0, "user 0 upload failed at federated epoch 1"),
        (2, "user 0 download failed at federated epoch 1"),
        (5, "user 1 upload failed at federated epoch 2"),
    ])
    def test_stalled_frame_times_out_naming_user_epoch_and_direction(self, monkeypatch,
                                                                     stalled, message):
        real = federation._send_frame
        frames = []

        def send_frame(sock, data):
            frames.append(len(data))
            if len(frames) - 1 == stalled:
                sock.sendall(struct.pack("<I", len(data)))  # the length prefix only
            else:
                real(sock, data)

        monkeypatch.setattr(federation, "_send_frame", send_frame)
        monkeypatch.setattr(federation, "SOCKET_TIMEOUT_S", 0.2)
        fed = Federation(toy_config(transport="socket"))
        threads_before = threading.active_count()
        with pytest.raises(federation.TransportError, match=rf"^{message}: timed out$"):
            fed.run()
        transport = fed.transport
        sockets = [transport._listener, *transport._user_side.values(),
                   *transport._server_side.values()]
        # a user's sockets open at its first frame, and frames 0 and 1 are
        # the first of users 0 and 1
        assert len(sockets) == 1 + 2 * min(stalled + 1, 2)
        assert all(s.fileno() == -1 for s in sockets)
        assert threading.active_count() == threads_before
        assert len(fed.ledger) == stalled


class Trickle:
    """A socket whose every receive takes at most ``step`` bytes."""

    def __init__(self, sock, step):
        self.sock, self.step, self.receives = sock, step, 0

    def recv_into(self, view):
        self.receives += 1
        return self.sock.recv_into(view, min(self.step, len(view)))


class TestFrames:
    """A frame is received whole into one buffer, however it arrives."""

    @staticmethod
    def _send_in_pieces(sock, data, step):
        def send():
            for start in range(0, len(data), step):
                sock.sendall(data[start:start + step])

        thread = threading.Thread(target=send)
        thread.start()
        return thread

    def test_frame_sent_in_many_small_writes_arrives_whole(self):
        frame = bytes(encode_weight_message(random_bundle(np.random.default_rng(30)), 1, 2))
        sender, receiver = federation.socket.socketpair()
        with sender, receiver:
            receiver.settimeout(5.0)
            thread = self._send_in_pieces(sender, struct.pack("<I", len(frame)) + frame, 7)
            trickle = Trickle(receiver, 5)
            got = federation._recv_frame(trickle)
            thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert isinstance(got, bytearray) and got == frame
        assert trickle.receives > len(frame) // 5  # one buffer filled by many receives
        assert decode_weight_message(got)[1:] == (1, 2)

    def test_frame_cut_short_by_a_close_raises_connection_error(self):
        sender, receiver = federation.socket.socketpair()
        with receiver:
            receiver.settimeout(5.0)
            with sender:
                sender.sendall(struct.pack("<I", 100) + bytes(60))
            with pytest.raises(ConnectionError, match="^socket closed mid-frame$"):
                federation._recv_frame(receiver)

    def test_a_frame_is_built_once(self):
        model = extractor.FeatureExtractor(2, dtype=federation.WIRE_DTYPE)
        message = encode_weight_message(extractor.borrow_hidden_weights(model), 1, 2)
        n = len(message)
        got = bytearray(4 + n)
        sender, receiver = federation.socket.socketpair()

        def receive():
            with memoryview(got) as view:
                at = 0
                while at < len(got):
                    count = receiver.recv_into(view[at:])
                    if not count:
                        break
                    at += count

        with sender, receiver:
            sender.settimeout(5.0)
            receiver.settimeout(5.0)
            thread = threading.Thread(target=receive)
            tracemalloc.start()
            try:
                thread.start()
                federation._send_frame(sender, message)
                thread.join(timeout=5.0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert not thread.is_alive()
        assert n > 10 ** 6  # a paper-width message
        assert peak <= 1.1 * n
        assert bytes(got) == struct.pack("<I", n) + bytes(message)

    def test_each_receive_keeps_the_socket_timeout(self):
        sender, receiver = federation.socket.socketpair()
        with sender, receiver:
            receiver.settimeout(0.2)
            sender.sendall(struct.pack("<I", 100) + bytes(60))
            with pytest.raises(TimeoutError):
                federation._recv_frame(receiver)


class RewritingTransport(federation.InProcTransport):
    """Carries every message unchanged, except user 1's message in
    ``direction`` at federated epoch ``epoch``, which ``rewrite`` edits."""

    def __init__(self, direction, epoch, rewrite):
        self.direction, self.epoch, self.rewrite = direction, epoch, rewrite

    def _carry(self, direction, user_id, data):
        frame = bytes(data)
        (epoch,) = struct.unpack_from("<I", frame, 5)
        if (direction, user_id, epoch) == (self.direction, 1, self.epoch):
            return self.rewrite(frame)
        return data

    def upload(self, user_id, data):
        return self._carry("upload", user_id, data)

    def download(self, user_id, data):
        return self._carry("download", user_id, data)


class RewritingSocketTransport(federation.SocketTransport):
    """RewritingTransport's edit, made to the frame before a loopback socket
    carries it, as a peer that sends it would."""

    def __init__(self, direction, epoch, rewrite):
        super().__init__(port=0)
        self.edit = RewritingTransport(direction, epoch, rewrite)

    def upload(self, user_id, data):
        return super().upload(user_id, self.edit.upload(user_id, data))

    def download(self, user_id, data):
        return super().download(user_id, self.edit.download(user_id, data))


def relabelled(epoch=None, user_id=None):
    """A rewrite that puts ``epoch`` and/or ``user_id`` into the header."""
    def rewrite(data):
        sent = struct.unpack_from("<II", data, 5)
        ids = (sent[0] if epoch is None else epoch, sent[1] if user_id is None else user_id)
        return data[:5] + struct.pack("<II", *ids) + data[13:]
    return rewrite


def drop_block(arrays):
    del arrays["conv2.bias"]


def reshape_block(arrays):
    kernel = arrays["conv2.kernel"]
    arrays["conv2.kernel"] = kernel.reshape(kernel.shape[0], -1)


def block_payload_offset(data, block):
    """Byte offset of the payload of block ``block`` in an encoded message."""
    offset = 14  # magic + version + epoch + user + block count
    for b in range(block + 1):
        ndim = data[offset + 1]
        dims = struct.unpack_from(f"<{ndim}I", data, offset + 2)
        offset += 2 + 4 * ndim
        if b == block:
            return offset
        offset += 4 * int(np.prod(dims))


def frame_blocks(data):
    """An encoded message's header, up to its block count, and the bytes of
    each of its blocks, in frame order."""
    offset, blocks = 14, []
    while offset < len(data):
        ndim = data[offset + 1]
        dims = struct.unpack_from(f"<{ndim}I", data, offset + 2)
        end = offset + 2 + 4 * ndim + 4 * int(np.prod(dims))
        blocks.append(data[offset:end])
        offset = end
    return data[:14], blocks


def with_blocks(header, blocks):
    """A frame of ``header`` (the block count set to match) and ``blocks``."""
    return header[:13] + bytes([len(blocks)]) + b"".join(blocks)


def swap_first_blocks(data):
    """A rewrite that sends block 1 before block 0."""
    header, blocks = frame_blocks(data)
    return with_blocks(header, [blocks[1], blocks[0]] + blocks[2:])


def repeat_second_block(data):
    """A rewrite that sends block 1 twice."""
    header, blocks = frame_blocks(data)
    return with_blocks(header, blocks[:2] + blocks[1:])


def negative_running_var(data):
    """A rewrite that sets the first value of bn1.running_var to -1."""
    offset = block_payload_offset(data, extractor.BUNDLE_KEYS.index("bn1.running_var"))
    return data[:offset] + struct.pack("<f", -1.0) + data[offset + 4:]


def bundle_edited(edit):
    """A rewrite that applies ``edit`` to the decoded bundle's arrays."""
    def rewrite(data):
        bundle, epoch, user_id = decode_weight_message(data)
        edit(bundle.arrays)
        return encode_weight_message(bundle, epoch, user_id)
    return rewrite


class TestRoundChecks:
    """The round refuses a message that is not the one sent for its user,
    direction and epoch, naming all three, before any strategy or loader
    sees it."""

    def federation(self, strategy, transport):
        datasets = [(f"w{i}", "synthetic") for i in range(3)]
        return Federation(toy_config(n_tot=3, fles=2, strategy=strategy, datasets=datasets),
                          transport=transport)

    @pytest.mark.parametrize("direction,epoch,user_id", [
        ("upload", None, 2), ("upload", None, 7), ("download", None, 2),
        ("download", None, 7), ("upload", 99, None), ("download", 99, None),
    ])
    def test_header_ids_must_be_the_ones_sent(self, direction, epoch, user_id):
        fed = self.federation("efdls", RewritingTransport(direction, 1,
                                                          relabelled(epoch, user_id)))
        carried = (1 if epoch is None else epoch, 1 if user_id is None else user_id)
        with pytest.raises(MalformedMessageError,
                           match=rf"^user 1 {direction} at federated epoch 1: header carries "
                                 rf"epoch {carried[0]} and user {carried[1]} "
                                 rf"\(at byte offset 5\)$") as info:
            fed.run()
        assert info.value.offset == 5

    @pytest.mark.parametrize("edit,message", [
        (drop_block, r"bundle keys do not match: missing \['conv2.bias'\], unexpected \[\]"),
        (reshape_block, r"bundle array 'conv2.kernel' has shape \(4, 9\), "
                        r"expected \(4, 3, 3\)"),
    ], ids=["dropped", "reshaped"])
    @pytest.mark.parametrize("epoch", [1, 2])
    @pytest.mark.parametrize("direction", ["upload", "download"])
    @pytest.mark.parametrize("strategy", ["efdls", "fedavg"])
    def test_bundle_that_does_not_fit_names_user_direction_and_epoch(
            self, strategy, direction, epoch, edit, message):
        # the last epoch's downloads are never loaded, yet are checked too
        fed = self.federation(strategy, RewritingTransport(direction, epoch,
                                                           bundle_edited(edit)))
        with pytest.raises(extractor.IncompatibleBundleError,
                           match=rf"^user 1 {direction} at federated epoch {epoch}: {message}$"):
            fed.run()

    @staticmethod
    def block_case(case, fed):
        """(rewrite, error type, whole message after the round's prefix) of
        a block case aimed at user 1 of ``fed``."""
        header, blocks = frame_blocks(bytes(encode_weight_message(
            extractor.extract_hidden_weights(fed.users[1].pair.student), 1, 1)))
        kernel = extractor.hidden_arrays(fed.users[1].pair.student)["conv2.kernel"]
        flat = (kernel.shape[0], kernel.size // kernel.shape[0])
        return {
            "dropped": (bundle_edited(drop_block), extractor.IncompatibleBundleError,
                        "bundle keys do not match: missing ['conv2.bias'], unexpected []"),
            "reshaped": (bundle_edited(reshape_block), extractor.IncompatibleBundleError,
                         f"bundle array 'conv2.kernel' has shape {flat}, "
                         f"expected {kernel.shape}"),
            "reordered": (swap_first_blocks, MalformedMessageError,
                          f"block tag 0 after block tag 1: blocks must come in tag order "
                          f"(at byte offset {len(header) + len(blocks[1])})"),
            "duplicated": (repeat_second_block, MalformedMessageError,
                           f"duplicate block tag 1 (at byte offset "
                           f"{len(header) + len(blocks[0]) + len(blocks[1])})"),
        }[case]

    @pytest.mark.parametrize("case", ["reordered", "duplicated"])
    @pytest.mark.parametrize("epoch", [1, 2])
    @pytest.mark.parametrize("direction", ["upload", "download"])
    @pytest.mark.parametrize("strategy", ["efdls", "fedavg"])
    def test_blocks_out_of_tag_order_name_user_direction_and_epoch(
            self, strategy, direction, epoch, case):
        transport = RewritingTransport(direction, epoch, None)
        fed = self.federation(strategy, transport)
        transport.rewrite, error, message = self.block_case(case, fed)
        with pytest.raises(error) as info:
            fed.run()
        assert str(info.value) == f"user 1 {direction} at federated epoch {epoch}: {message}"

    @pytest.mark.parametrize("case", ["dropped", "reshaped", "reordered", "duplicated"])
    @pytest.mark.parametrize("epoch", [1, 2])
    @pytest.mark.parametrize("direction", ["upload", "download"])
    @pytest.mark.parametrize("strategy", ["efdls", "fedavg"])
    def test_paper_width_block_cases_name_user_direction_and_epoch(
            self, strategy, direction, epoch, case):
        transport = RewritingTransport(direction, epoch, None)
        fed = Federation(toy_config(n_tot=2, fles=2, strategy=strategy,
                                    blocks=extractor.DEFAULT_BLOCKS,
                                    hidden_dim=extractor.DEFAULT_HIDDEN_DIM, batch_size=20),
                         transport=transport)
        transport.rewrite, error, message = self.block_case(case, fed)
        with pytest.raises(error) as info:
            fed.run()
        assert str(info.value) == f"user 1 {direction} at federated epoch {epoch}: {message}"

    # user 1's message at epoch 2, carrying the other user's id, or the
    # previous epoch's, as a replayed message would
    @pytest.mark.parametrize("epoch,user_id", [(None, 0), (1, None)], ids=["user", "epoch"])
    @pytest.mark.parametrize("direction", ["upload", "download"])
    @pytest.mark.parametrize("transport", [RewritingTransport, RewritingSocketTransport],
                             ids=["inproc", "socket"])
    def test_paper_width_header_ids_must_be_the_ones_sent(self, transport, direction, epoch,
                                                          user_id):
        fed = Federation(toy_config(n_tot=2, fles=2, blocks=extractor.DEFAULT_BLOCKS,
                                    hidden_dim=extractor.DEFAULT_HIDDEN_DIM, batch_size=20),
                         transport=transport(direction, 2, relabelled(epoch, user_id)))
        carried = (2 if epoch is None else epoch, 1 if user_id is None else user_id)
        try:
            with pytest.raises(MalformedMessageError) as info:
                fed.run()
        finally:
            fed.transport.close()  # a run closes only a transport it made
        assert str(info.value) == (f"user 1 {direction} at federated epoch 2: header carries "
                                   f"epoch {carried[0]} and user {carried[1]} "
                                   f"(at byte offset 5)")
        assert info.value.offset == 5

    @pytest.mark.parametrize("direction", ["upload", "download"])
    @pytest.mark.parametrize("strategy", ["efdls", "fedavg"])
    def test_message_that_does_not_decode_names_user_direction_and_epoch(
            self, strategy, direction):
        sent = []

        def cut_last_byte(data):
            sent.append(len(data))
            return data[:-1]

        fed = self.federation(strategy, RewritingTransport(direction, 1, cut_last_byte))
        with pytest.raises(MalformedMessageError) as info:
            fed.run()
        offset = sent[0] - 1
        assert str(info.value) == (f"user 1 {direction} at federated epoch 1: message truncated "
                                   f"while reading block 19 payload (at byte offset {offset})")
        assert info.value.offset == offset

    @pytest.mark.parametrize("direction", ["upload", "download"])
    @pytest.mark.parametrize("strategy", ["efdls", "fedavg"])
    def test_negative_running_variance_names_user_direction_and_epoch(
            self, strategy, direction):
        # a download holding it once completed silently under efdls and broke
        # fedavg's next forward with an error that named no user
        fed = self.federation(strategy, RewritingTransport(direction, 1, negative_running_var))
        block = extractor.BUNDLE_KEYS.index("bn1.running_var")
        offset = block_payload_offset(bytes(encode_weight_message(
            extractor.extract_hidden_weights(fed.users[1].pair.student), 1, 1)), block)
        with pytest.raises(MalformedMessageError) as info:
            fed.run()
        assert str(info.value) == (f"user 1 {direction} at federated epoch 1: negative "
                                   f"running-variance values in block {block} "
                                   f"(at byte offset {offset})")
        assert info.value.offset == offset


class RewriteEveryMessage(federation.InProcTransport):
    """Carries every message through ``rewrite``, a function of its frame."""

    rewrite = None

    def upload(self, user_id, data):
        return self.rewrite(bytes(data))

    def download(self, user_id, data):
        return self.rewrite(bytes(data))


# the hidden arrays' shapes at toy_config's widths
MINI_SHAPES = {key: arr.shape for key, arr in extractor.hidden_arrays(mini_model()).items()}
U32 = st.integers(0, 2**32 - 1)


@st.composite
def round_cases(draw):
    """(user, direction, epoch, rewrite, error type, reason): a message for
    a drawn user, direction and epoch, rewritten by one drawn fault, and the
    error, and its reason after the round's prefix, that the fault must
    raise."""
    user = draw(st.integers(0, 2))
    direction = draw(st.sampled_from(["upload", "download"]))
    epoch = draw(U32)
    keys, blocks = list(MINI_SHAPES), len(MINI_SHAPES)
    fault = draw(st.sampled_from(["dropped", "reshaped", "reordered", "duplicated", "header"]))
    if fault == "dropped":
        gone = draw(st.sets(st.integers(0, blocks - 1), min_size=1))

        def rewrite(data):
            header, frames = frame_blocks(data)
            return with_blocks(header, [b for i, b in enumerate(frames) if i not in gone])

        missing = sorted(keys[i] for i in gone)
        return (user, direction, epoch, rewrite, extractor.IncompatibleBundleError,
                f"bundle keys do not match: missing {missing}, unexpected []")
    if fault == "reshaped":
        key = draw(st.sampled_from(keys))
        size = math.prod(MINI_SHAPES[key])
        shape = draw(st.sampled_from([s for s in ((size,), (1, size), (size, 1), (1, 1, size))
                                      if s != MINI_SHAPES[key]]))

        def rewrite(data):
            bundle, k, uid = decode_weight_message(data)
            bundle.arrays[key] = bundle.arrays[key].reshape(shape)
            return bytes(encode_weight_message(bundle, k, uid))

        return (user, direction, epoch, rewrite, extractor.IncompatibleBundleError,
                f"bundle array '{key}' has shape {shape}, expected {MINI_SHAPES[key]}")
    if fault == "reordered":
        order = draw(st.permutations(range(blocks)).filter(lambda o: o != sorted(o)))
        at = next(i for i in range(1, blocks) if order[i] < order[i - 1])

        def rewrite(data):
            header, frames = frame_blocks(data)
            return with_blocks(header, [frames[i] for i in order])

        return (user, direction, epoch, rewrite, MalformedMessageError,
                f"block tag {order[at]} after block tag {order[at - 1]}: "
                f"blocks must come in tag order")
    if fault == "duplicated":
        tag = draw(st.integers(0, blocks - 1))
        at = draw(st.integers(tag + 1, blocks))

        def rewrite(data):
            header, frames = frame_blocks(data)
            return with_blocks(header, frames[:at] + [frames[tag]] + frames[at:])

        return (user, direction, epoch, rewrite, MalformedMessageError,
                f"duplicate block tag {tag}")
    ids = draw(st.tuples(U32, U32).filter(lambda ids: ids != (epoch, user)))
    return (user, direction, epoch, relabelled(*ids), MalformedMessageError,
            f"header carries epoch {ids[0]} and user {ids[1]}")


class TestDrawnRoundCases:
    """Drawn malformed messages through ``Federation._round_trip``, in
    process at skinny widths: dropped, reshaped, reordered and duplicated
    blocks, and rewritten header ids, for a drawn user, direction and
    epoch. Each raises its own typed error naming all three, and never any
    other exception."""

    @pytest.fixture(scope="class")
    def fed(self):
        """Three skinny users whose messages all cross a RewriteEveryMessage."""
        return Federation(toy_config(n_tot=3, fles=2, datasets=[(f"w{i}", "synthetic")
                                                                for i in range(3)]),
                          transport=RewriteEveryMessage())

    @settings(max_examples=300, deadline=None)
    @given(case=round_cases())
    def test_each_fault_raises_its_error_naming_user_direction_and_epoch(self, fed, case):
        user, direction, epoch, rewrite, error, reason = case
        fed.transport.rewrite = rewrite
        bundle = extractor.borrow_hidden_weights(fed.users[user].pair.student)
        with pytest.raises(Exception) as info:
            fed._round_trip(direction, bundle, epoch, user)
        assert type(info.value) is error
        assert str(info.value).startswith(
            f"user {user} {direction} at federated epoch {epoch}: {reason}"), str(info.value)


class TestRoundTable:
    """The server hands one bundle to every user who downloads it. A student
    copies its download; in-process the teachers handed one bundle share one
    frozen copy of it."""

    @pytest.mark.parametrize("strategy,model", [("efdls", "teacher"), ("fkd", "teacher"),
                                                ("fedavg", "student")])
    def test_shared_downloads_leave_intact_uploads_and_private_students(
            self, monkeypatch, strategy, model):
        rounds = []
        real_round = strategies.apply_round

        def recording(tag, uploads):
            uploads = list(uploads)
            before = [b.copy() for _, b in uploads]
            downloads = real_round(tag, uploads)
            for (_, bundle), copy in zip(uploads, before):
                for key, arr in copy.arrays.items():
                    assert np.array_equal(bundle.arrays[key], arr)
            # a round's bundles are borrowed until the epoch ends: the
            # values are recorded as copies
            rounds.append((downloads, [(uid, b.copy()) for uid, b in downloads]))
            return downloads

        monkeypatch.setattr(strategies, "apply_round", recording)
        # users 0 and 2 both download user 1's bundle
        monkeypatch.setattr(dbwm, "match_partners", lambda distances: [1, 0, 1])
        datasets = [(f"w{i}", "synthetic") for i in range(3)]
        fed = Federation(toy_config(n_tot=3, fles=2, strategy=strategy, datasets=datasets))
        fed.run()

        assert len(rounds) == 2
        # epoch 1's downloads are the last ones loaded
        downloads, copies = map(dict, rounds[0])
        source = downloads[0]
        assert downloads[2] is source
        models = {uid: extractor.hidden_arrays(getattr(fed.users[uid].pair, model))
                  for uid in (0, 2)}
        for key, arr in source.arrays.items():
            # students are private; the two teachers keep one frozen copy of
            # an efdls partner's upload, and the fkd mean itself, which
            # nothing writes
            assert np.shares_memory(models[0][key], models[2][key]) == (model == "teacher")
            for uid in (0, 2):
                assert np.shares_memory(models[uid][key], arr) == (strategy == "fkd")
                if model == "teacher":  # teachers keep what they loaded
                    loaded = copies[0].arrays[key].astype(np.float32)
                    assert np.array_equal(models[uid][key], loaded)

    @pytest.mark.parametrize("strategy,module,name", [
        ("fedavg", strategies, "fedavg_aggregate"),
        ("fkd", strategies, "fedavg_aggregate"),
        ("efdls", dbwm, "pairwise_distances"),
        ("efdls", dbwm, "match_partners"),
        ("efdls", dbwm, "dispatch_matched"),
    ])
    def test_patched_module_attributes_are_seen_by_run(self, monkeypatch, strategy,
                                                       module, name):
        calls = []
        real = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
        config = toy_config(strategy=strategy)
        run_federation(config)
        assert len(calls) == config.fles


class TestBorrowedRound:
    """In-process, the round's uploads are read-only views of the students'
    arrays; over sockets they are decoded into owned copies."""

    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    def test_held_uploads_are_views_in_process_and_owned_over_sockets(self, monkeypatch,
                                                                      transport):
        seen = []
        real = dbwm.match_table

        def matching(uploads):
            for uid, bundle in uploads:
                student = extractor.hidden_arrays(fed.users[uid].pair.student)
                for key, arr in bundle.arrays.items():
                    if transport == "inproc":
                        assert np.shares_memory(arr, student[key]), (uid, key)
                        assert not arr.flags.writeable, (uid, key)
                        with pytest.raises(ValueError, match="read-only"):
                            arr[...] = 0.0
                    else:
                        assert arr.flags.owndata and arr.flags.writeable, (uid, key)
                        assert not np.shares_memory(arr, student[key]), (uid, key)
                    assert arr.tobytes() == student[key].tobytes(), (uid, key)
                seen.append(uid)
            return real(uploads)

        monkeypatch.setattr(dbwm, "match_table", matching)
        datasets = [(f"w{i}", "synthetic") for i in range(3)]
        fed = Federation(toy_config(n_tot=3, fles=2, datasets=datasets, transport=transport))
        fed.run()
        assert seen == [0, 1, 2] * 2

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("strategy", ["efdls", "fkd", "fedavg"])
    def test_no_student_is_written_while_a_view_of_it_lives(self, monkeypatch, strategy,
                                                            workers):
        # every array borrowed from a student or decoded from an upload,
        # held weakly; none may alias a student that trains or loads
        refs = []
        real_borrow = extractor.borrow_hidden_weights
        real_round_trip = Federation._round_trip
        real_train = fbst.local_train_epoch
        real_load = fbst.FBSTPair.load_student
        checks = []

        def track(bundle):
            refs.extend(weakref.ref(arr) for arr in bundle.arrays.values())
            return bundle

        def assert_unaliased(pair):
            alive = [arr for arr in (ref() for ref in refs) if arr is not None]
            for target in extractor.hidden_arrays(pair.student).values():
                assert not any(np.shares_memory(target, arr) for arr in alive)
            checks.append(len(alive))

        def train(pair, *args, **kwargs):
            assert_unaliased(pair)
            return real_train(pair, *args, **kwargs)

        def load_student(pair, bundle):
            assert_unaliased(pair)
            real_load(pair, bundle)

        monkeypatch.setattr(extractor, "borrow_hidden_weights",
                            lambda model: track(real_borrow(model)))
        monkeypatch.setattr(Federation, "_round_trip",
                            lambda fed, *args: track(real_round_trip(fed, *args)))
        monkeypatch.setattr(fbst, "local_train_epoch", train)
        monkeypatch.setattr(fbst.FBSTPair, "load_student", load_student)
        datasets = [(f"w{i}", "synthetic") for i in range(4)]
        run_federation(toy_config(n_tot=4, fles=3, strategy=strategy, datasets=datasets,
                                  workers=workers))
        assert len(refs) > 0
        assert len(checks) == 4 * 3 + (4 * 2 if strategy == "fedavg" else 0)


def write_waves(root, name, length, rows=(10, 6), seed=0):
    """A two-class UCR-style set of noisy sines, each row ``length`` long."""
    rng = np.random.default_rng(seed)
    path = root / name
    path.mkdir()
    t = np.linspace(0.0, 4.0 * np.pi, length)
    for split, n in zip(("TRAIN", "TEST"), rows):
        lines = []
        for i in range(n):
            row = np.sin(t * (1 + i % 2)) + 0.2 * rng.standard_normal(length)
            lines.append("\t".join([str(i % 2 + 1)] + [repr(float(v)) for v in row]))
        (path / f"{name}_{split}.tsv").write_text("\n".join(lines) + "\n")
    return str(path)


class TestMixedSeriesLengths:
    """Users whose tasks differ in series length share hidden bundles of one
    shape, and a run over sockets, whose bundles are owned copies, matches
    the in-process run, whose bundles are borrowed views."""

    @pytest.mark.parametrize("strategy", ["baseline", "fedavg", "fkd", "efdls"])
    def test_lengths_24_64_128_24_match_across_transports(self, tmp_path, strategy):
        datasets = [(f"L{n}", write_waves(tmp_path, f"L{n}", n, seed=n)) for n in (24, 64, 128)]
        runs = []
        for transport in ("inproc", "socket"):
            losses = {}
            fed = Federation(toy_config(n_tot=4, fles=3, strategy=strategy, datasets=datasets,
                                        transport=transport))
            report, ledger = fed.run(
                on_epoch=lambda uid, k, rep: losses.__setitem__((uid, k), rep))
            assert [u.dataset.series_length for u in fed.users] == [24, 64, 128, 24]
            runs.append((report.table.values.tolist(), losses, ledger.entries))
        assert runs[0] == runs[1]
        assert len(runs[0][2]) == (0 if strategy == "baseline" else 2 * 4 * 3)


def _single_block_message(ndim: int, dims, payload: bytes = b"") -> bytes:
    """A header for one block (tag 0) followed by that block; the block
    starts at byte 14."""
    return (federation.MESSAGE_MAGIC + bytes([federation.MESSAGE_VERSION])
            + struct.pack("<II", 0, 0) + bytes([1]) + bytes([0, ndim])
            + struct.pack(f"<{len(dims)}I", *dims) + payload)


class InitTimeClonePair(fbst.FBSTPair):
    """The earlier teacher lifecycle, kept as an oracle: the teacher is cloned
    from the freshly built student at setup, and is used only once loaded."""

    def __init__(self, student):
        self.student = student
        self.init_clone = copy.deepcopy(student)
        self.loaded = False

    @property
    def teacher(self):
        return self.init_clone if self.loaded else None

    def load_teacher(self, bundle):
        extractor.load_hidden_weights(self.init_clone, bundle)
        self.loaded = True


class TestTeacherLifecycle:
    """A user's teacher is built at its first load; users that never load one
    never hold one."""

    @staticmethod
    def _run(config):
        reports = []
        fed = Federation(config)
        report, ledger = fed.run(on_epoch=lambda uid, k, rep: reports.append((uid, k, rep)))
        return fed, report, ledger, reports

    @pytest.mark.parametrize("strategy", ["efdls", "fkd"])
    @pytest.mark.parametrize("extra", [
        {},
        {"teacher_bn_mode": "running"},
        {"teacher_bn_mode": "running", "bn_paper_literal": True, "conn_resample": True},
    ])
    def test_load_time_clone_matches_init_time_clone(self, monkeypatch, strategy, extra):
        datasets = [(f"w{i}", "synthetic") for i in range(5)]
        config = toy_config(n_tot=5, conn_ratio=0.6, fles=4, datasets=datasets,
                            strategy=strategy, **extra)
        fed, report, ledger, reports = self._run(config)
        monkeypatch.setattr(fbst, "FBSTPair", InitTimeClonePair)
        old_fed, old_report, old_ledger, old_reports = self._run(config)

        assert all(isinstance(u.pair, InitTimeClonePair) for u in old_fed.users)
        assert reports == old_reports
        assert any(rep.kd > 0.0 for _, _, rep in reports)
        assert np.array_equal(report.table.values, old_report.table.values)
        assert ledger.entries == old_ledger.entries
        for user, old in zip(fed.users, old_fed.users):
            new_arrays = model_arrays(user.pair.student)
            for key, arr in model_arrays(old.pair.student).items():
                assert np.array_equal(new_arrays[key], arr), (user.user_id, key)
            assert (user.pair.teacher is None) == (old.pair.teacher is None)
            if user.pair.teacher is not None:
                new_hidden = extractor.hidden_arrays(user.pair.teacher)
                for key, arr in extractor.hidden_arrays(old.pair.teacher).items():
                    assert np.array_equal(new_hidden[key], arr), (user.user_id, key)

    @pytest.mark.parametrize("strategy", ["fedavg", "baseline"])
    def test_no_teacher_without_teacher_downloads(self, monkeypatch, strategy):
        clones = []
        monkeypatch.setattr(extractor, "clone_model", clones.append)
        fed = Federation(toy_config(strategy=strategy))
        fed.run()
        assert all(u.pair.teacher is None for u in fed.users)
        assert clones == []

    def test_disconnected_efdls_users_hold_no_teacher(self):
        datasets = [(f"w{i}", "synthetic") for i in range(5)]
        fed = Federation(toy_config(n_tot=5, conn_ratio=0.6, datasets=datasets))
        fed.run()
        assert [u.pair.teacher is not None for u in fed.users] == \
            [u.user_id in fed.connected(1) for u in fed.users]
        assert len(fed.connected(1)) == 3

    def test_resampled_user_gets_teacher_at_first_load(self):
        datasets = [(f"w{i}", "synthetic") for i in range(5)]
        config = toy_config(n_tot=5, conn_ratio=0.6, fles=4, datasets=datasets,
                            conn_resample=True)
        connected = {k: select_connected(config.n_tot, config.conn_ratio, config.seed,
                                         epoch=None if k == 1 else k)
                     for k in range(1, config.fles + 1)}
        first = {uid: min((k for k in connected if uid in connected[k]), default=None)
                 for uid in range(config.n_tot)}
        # some user joins only after epoch 1 and before the last epoch
        assert any(k is not None and 1 < k < config.fles for k in first.values())
        held = {}
        fed = Federation(config)
        fed.run(on_epoch=lambda uid, k, rep: held.setdefault(uid, []).append(
            (fed.users[uid].pair.teacher is not None, rep.kd > 0.0)))
        for uid, rows in held.items():
            for k, (has_teacher, used) in enumerate(rows, start=1):
                expected = first[uid] is not None and first[uid] < k
                assert has_teacher == expected, (uid, k)
                assert used == expected, (uid, k)
        for user in fed.users:
            if user.pair.teacher is None:
                continue
            teacher, student = model_arrays(user.pair.teacher), model_arrays(user.pair.student)
            for key, arr in teacher.items():
                assert not any(np.shares_memory(arr, other) for other in student.values()), key

    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    @pytest.mark.parametrize("strategy", ["efdls", "fkd"])
    def test_teacher_keeps_its_last_download_at_wire_precision(self, monkeypatch, strategy,
                                                               transport):
        last = {}
        real = fbst.FBSTPair.load_teacher

        def recording(pair, bundle):
            # the bundle for the memory check, its copy for the values
            last[id(pair)] = bundle, bundle.copy()
            real(pair, bundle)

        monkeypatch.setattr(fbst.FBSTPair, "load_teacher", recording)
        datasets = [(f"w{i}", "synthetic") for i in range(3)]
        fed = Federation(toy_config(n_tot=3, fles=3, strategy=strategy, datasets=datasets,
                                    transport=transport))
        fed.run()
        assert len(last) == 3
        for user in fed.users:
            download, values = last[id(user.pair)]
            for key, arr in extractor.hidden_arrays(user.pair.teacher).items():
                wire = download.arrays[key]
                assert wire.dtype == arr.dtype == np.float32, (user.user_id, key)
                assert arr.tobytes() == values.arrays[key].tobytes(), (user.user_id, key)
                # the teacher keeps the decoded download itself, read-only
                assert np.shares_memory(arr, wire), (user.user_id, key)
                assert not arr.flags.writeable, (user.user_id, key)


class CopyingTeacherPair(fbst.FBSTPair):
    """The copying teacher lifecycle, kept as an oracle: the first load clones
    the student, and every load copies the bundle into that one teacher's
    own arrays."""

    def load_teacher(self, bundle):
        if self.teacher is None:
            self.teacher = copy.deepcopy(self.student)
        extractor.load_hidden_weights(self.teacher, bundle)


class TestSharedTeachers:
    """A teacher keeps the decoded download it is handed. Each dispatched
    bundle a teacher loads is frozen into one copy first, so in-process the
    teachers handed one partner share that copy and none shares memory with
    a student."""

    @staticmethod
    def _run_into(monkeypatch, config, out_dir):
        """The run's pair type, loss reports and ledger entries, with its
        summary.json and results.csv as bytes."""
        reports, feds = [], []
        real_run = Federation.run

        def run(fed, on_epoch=None):
            feds.append(fed)
            return real_run(fed, on_epoch=lambda uid, k, rep: reports.append((uid, k, rep)))

        with monkeypatch.context() as patch:
            patch.setattr(Federation, "run", run)
            cli._run_into(config, str(out_dir), False)
        return (type(feds[0].users[0].pair), reports, feds[0].ledger.entries,
                (out_dir / "summary.json").read_bytes(), (out_dir / "results.csv").read_bytes())

    @pytest.mark.parametrize("conn_resample", [False, True])
    @pytest.mark.parametrize("teacher_bn_mode", ["batch", "running"])
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    @pytest.mark.parametrize("strategy", ["efdls", "fkd"])
    def test_kept_downloads_match_copying_teachers(self, monkeypatch, tmp_path, strategy,
                                                   transport, workers, teacher_bn_mode,
                                                   conn_resample):
        datasets = [(f"w{i}", "synthetic") for i in range(5)]

        def config():
            return toy_config(n_tot=5, conn_ratio=0.6, fles=4, datasets=datasets,
                              strategy=strategy, transport=transport, workers=workers,
                              teacher_bn_mode=teacher_bn_mode, conn_resample=conn_resample)

        kept = self._run_into(monkeypatch, config(), tmp_path / "kept")
        monkeypatch.setattr(fbst, "FBSTPair", CopyingTeacherPair)
        copied = self._run_into(monkeypatch, config(), tmp_path / "copied")
        assert (kept[0], copied[0]) == (CopyingTeacherPair.__base__, CopyingTeacherPair)
        assert any(rep.kd > 0.0 for _, _, rep in kept[1])
        assert kept[1:] == copied[1:]

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    def test_teachers_handed_one_partner_share_one_frozen_copy(self, monkeypatch, transport,
                                                               workers):
        # users 0, 2 and 3 are all handed user 1's bundle
        monkeypatch.setattr(dbwm, "match_partners", lambda distances: [1, 0, 1, 1])
        real_step = nncore.adam_step
        steps = []

        def step(params, grads, adam):
            # no teacher array is writeable or shares memory with the student
            # that takes this step
            for user in fed.users:
                if user.pair.teacher is None:
                    continue
                for key, arr in extractor.hidden_arrays(user.pair.teacher).items():
                    assert not arr.flags.writeable, (user.user_id, key)
                    assert not any(np.shares_memory(arr, p) for p in params.values()), \
                        (user.user_id, key)
            steps.append(1)
            return real_step(params, grads, adam)

        monkeypatch.setattr(nncore, "adam_step", step)
        datasets = [(f"w{i}", "synthetic") for i in range(4)]
        fed = Federation(toy_config(n_tot=4, fles=3, datasets=datasets, transport=transport,
                                    workers=workers))
        # pool threads read the shared teachers while others train: switch often
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            fed.run()
        finally:
            sys.setswitchinterval(interval)
        assert len(steps) > 0
        teachers = [extractor.hidden_arrays(u.pair.teacher) for u in fed.users]
        students = [model_arrays(u.pair.student) for u in fed.users]
        for key in extractor.BUNDLE_KEYS:
            for i, j in ((0, 2), (0, 3), (2, 3)):
                assert np.shares_memory(teachers[i][key], teachers[j][key]) == \
                    (transport == "inproc"), (i, j, key)
            for i in (0, 2, 3):
                assert not np.shares_memory(teachers[i][key], teachers[1][key]), (i, key)
            for teacher in teachers:
                assert not any(np.shares_memory(teacher[key], arr)
                               for student in students for arr in student.values()), key

    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    @pytest.mark.parametrize("strategy,distinct", [("efdls", 2), ("fkd", 1), ("fedavg", 1)])
    def test_each_dispatched_bundle_is_copied_once_and_never_in_the_last_epoch(
            self, monkeypatch, strategy, distinct, transport):
        # only an in-process efdls download is a view of a live student: the
        # mean is written by nobody, and a socket download is decoded owned
        monkeypatch.setattr(dbwm, "match_partners", lambda distances: [1, 0, 1, 1])
        epochs = []
        copies = Counter()
        real_run_epoch = Federation._run_epoch
        real_copy = WeightBundle.copy

        def run_epoch(fed, k, on_epoch=None):
            epochs.append(k)
            return real_run_epoch(fed, k, on_epoch=on_epoch)

        def copy(bundle):
            copies[epochs[-1]] += 1
            return real_copy(bundle)

        monkeypatch.setattr(Federation, "_run_epoch", run_epoch)
        monkeypatch.setattr(WeightBundle, "copy", copy)
        datasets = [(f"w{i}", "synthetic") for i in range(4)]
        run_federation(toy_config(n_tot=4, fles=3, strategy=strategy, datasets=datasets,
                                  transport=transport))
        assert epochs == [1, 2, 3]
        aliases = strategy == "efdls" and transport == "inproc"
        assert dict(copies) == ({1: distinct, 2: distinct} if aliases else {})

    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    @pytest.mark.parametrize("borrowed", [False, True])
    def test_a_dispatched_bundle_is_frozen_when_it_borrows_its_arrays(self, monkeypatch,
                                                                      borrowed, transport):
        # a round outside the library's strategies hands every user one
        # bundle of user 0's student: an owned snapshot goes out as it is, a
        # bundle of views of the student is copied once in each loaded epoch
        epochs, dispatched = [], []
        copies = Counter()
        real_run_epoch = Federation._run_epoch
        real_copy = WeightBundle.copy

        def run_epoch(fed, k, on_epoch=None):
            epochs.append(k)
            return real_run_epoch(fed, k, on_epoch=on_epoch)

        def copy(bundle):
            if any(bundle is sent for sent in dispatched):
                copies[epochs[-1]] += 1
            return real_copy(bundle)

        def round_row(uploads):
            uids = [uid for uid, _ in uploads]
            take = extractor.borrow_hidden_weights if borrowed else extractor.extract_hidden_weights
            dispatched.append(take(fed.users[0].pair.student))
            return [(uid, dispatched[-1]) for uid in uids]

        monkeypatch.setattr(Federation, "_run_epoch", run_epoch)
        monkeypatch.setattr(WeightBundle, "copy", copy)
        monkeypatch.setitem(strategies.ROUNDS, "efdls", (round_row, "load_teacher"))
        datasets = [(f"w{i}", "synthetic") for i in range(3)]
        fed = Federation(toy_config(n_tot=3, fles=3, datasets=datasets, transport=transport))
        _, ledger = fed.run()
        assert epochs == [1, 2, 3] and len(dispatched) == 3
        assert len(ledger) == 2 * 3 * 3
        assert dict(copies) == ({1: 1, 2: 1} if borrowed else {})
        student = model_arrays(fed.users[0].pair.student)
        for user in fed.users:
            for key, arr in extractor.hidden_arrays(user.pair.teacher).items():
                assert not any(np.shares_memory(arr, s) for s in student.values()), key
                # in-process a teacher keeps the bundle that went out
                assert np.shares_memory(arr, dispatched[1].arrays[key]) == \
                    (transport == "inproc" and not borrowed), key

    @pytest.mark.parametrize("strategy", ["fedavg", "fkd"])
    def test_a_mean_beyond_float32_is_refused_naming_the_user_and_epoch(self, monkeypatch,
                                                                        strategy):
        real = strategies.fedavg_aggregate

        def aggregate(bundles):
            mean = real(bundles)
            mean.arrays["dense.bias"][0] = 1e39
            return mean

        monkeypatch.setattr(strategies, "fedavg_aggregate", aggregate)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^bundle array 'dense.bias' of user 0 at "
                                                 r"epoch 1 holds non-finite values in float32$"):
                run_federation(toy_config(strategy=strategy))


class TestFloat32Users:
    """A run's users store and compute in the wire's float32; a float64 run
    of the same config, whose users are rebuilt by hand, is the oracle."""

    BLOCKS = ((5, 16), (3, 32), (3, 16))  # MINI widths score 0.5 for every user
    build_users = staticmethod(federation.build_users)  # before a test replaces it

    @staticmethod
    def float64_users(config):
        """``build_users``, with each student rebuilt in float64 from its seed
        and its Adam state to match."""
        users = TestFloat32Users.build_users(config)
        for user in users:
            student = extractor.FeatureExtractor(
                num_classes=user.dataset.num_classes, blocks=config.blocks,
                hidden_dim=config.hidden_dim, bn_paper_literal=config.bn_paper_literal,
                seed=federation.seed_material(config.seed, user.user_id, salt=1),
                dtype=np.float64)
            user.pair = fbst.FBSTPair(student)
            user.adam = nncore.AdamState.for_params(student.parameters(), lr=config.lr,
                                                    weight_decay=config.weight_decay)
        return users

    @staticmethod
    def run(config):
        final = {}
        fed = Federation(config)
        report, _ = fed.run(on_epoch=lambda uid, k, rep: final.__setitem__(uid, rep.total))
        return fed, report, final

    def test_users_hold_every_array_in_the_wire_dtype(self):
        fed = Federation(toy_config(strategy="fkd"))
        for user in fed.users:
            for arrays in (model_arrays(user.pair.student), user.adam.first_moment,
                           user.adam.second_moment):
                assert all(a.dtype == federation.WIRE_DTYPE for a in arrays.values())
        fed.run()
        for user in fed.users:
            arrays = [*model_arrays(user.pair.student).values(),
                      *model_arrays(user.pair.teacher).values()]
            assert all(a.dtype == federation.WIRE_DTYPE for a in arrays), user.user_id

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("strategy", ["efdls", "fkd", "fedavg", "baseline"])
    def test_run_matches_float64_users(self, monkeypatch, strategy, seed):
        datasets = [(f"w{i}", "synthetic") for i in range(5)]
        config = toy_config(n_tot=5, conn_ratio=0.6, fles=3, seed=seed, strategy=strategy,
                            datasets=datasets, blocks=self.BLOCKS, hidden_dim=16)
        fed, report, final = self.run(config)
        monkeypatch.setattr(federation, "build_users", self.float64_users)
        wide_fed, wide_report, wide_final = self.run(config)
        assert all(u.pair.student.hidden.weight.dtype == np.float64 for u in wide_fed.users)
        for user in fed.users:
            uid = user.user_id
            assert final[uid] == pytest.approx(wide_final[uid], rel=1e-5), uid
            n_test = user.dataset.y_test.shape[0]
            rows_off = abs(report.table.values[uid, 0] - wide_report.table.values[uid, 0]) * n_test
            assert rows_off < 1.5, uid  # at most one test row


class TestBlockShapeLimits:
    @pytest.mark.parametrize("ndim,dims,payload", [
        (65, (1,) * 65, bytes(4)),  # more dims than numpy can hold
        (40, (1,) * 40, bytes(4)),  # more than the wire limit
        (18, (0,) + (2 ** 32 - 1,) * 17, b""),  # size 0, other dims overflow
        (3, (2 ** 32 - 1, 0, 2 ** 32 - 1), b""),  # "array is too big"
        (2, (0, 3), b""),  # an empty array
    ])
    def test_crafted_block_shape_is_malformed_at_block_offset(self, ndim, dims, payload):
        with pytest.raises(MalformedMessageError) as err:
            decode_weight_message(_single_block_message(ndim, dims, payload))
        assert err.value.offset == 14

    def test_wire_limit_round_trips(self):
        arr = np.full((1,) * federation.MAX_WIRE_NDIM, 2.5, dtype=np.float32)
        data = encode_weight_message(WeightBundle({"conv1.kernel": arr}), 0, 0)
        assert decode_weight_message(data)[0].arrays["conv1.kernel"].shape == arr.shape

    def test_every_first_block_ndim_byte_decodes_or_is_malformed(self):
        # a zero payload reads back as zero dims wherever ndim runs past the
        # real dims, which is what reaches numpy's reshape limits
        bundle = random_bundle(np.random.default_rng(12))
        for arr in bundle.arrays.values():
            arr[...] = 0.0
        data = bytes(encode_weight_message(bundle, 0, 0))
        for value in range(256):
            buf = bytearray(data)
            buf[15] = value
            try:
                decode_weight_message(bytes(buf))
            except MalformedMessageError:
                pass

    @pytest.mark.parametrize("shape", [(1,) * (federation.MAX_WIRE_NDIM + 1), (0, 3)])
    def test_encoder_refuses_what_the_decoder_rejects(self, shape):
        bundle = WeightBundle({"conv1.kernel": np.zeros(shape, dtype=np.float32)})
        with pytest.raises(ValueError, match="wire format range"):
            encode_weight_message(bundle, 0, 0)


def test_config_to_dict_keys_are_the_dataclass_fields_in_order():
    assert list(toy_config().to_dict()) == [f.name for f in fields(FederationConfig)]
