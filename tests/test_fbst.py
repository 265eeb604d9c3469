import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MINI_HIDDEN, mini_model, model_arrays, random_bundle
from efdls import dataio, extractor, fbst, metrics, nncore
from efdls.fbst import (
    ConfigError, FBSTConfig, FBSTPair, kd_loss, local_train_epoch, sup_loss, total_loss,
)


def make_trace(rng, num_classes=3, batch=2, length=10, channels=(3, 4, 3), hidden=3):
    o1 = rng.standard_normal((batch, channels[0], length))
    o2 = rng.standard_normal((batch, channels[1], length))
    o3 = rng.standard_normal((batch, channels[2], length))
    o4 = rng.standard_normal((batch, hidden))
    logits = rng.standard_normal((batch, num_classes))
    probs = nncore.softmax(logits)
    return extractor.ForwardTrace(o1=o1, o2=o2, o3=o3, o4=o4, logits=logits, probs=probs)


def clone_trace(trace):
    return extractor.ForwardTrace(**{f: getattr(trace, f).copy()
                                     for f in ("o1", "o2", "o3", "o4", "logits", "probs")})


class TestKDLoss:
    def test_identical_traces_zero(self):
        t = make_trace(np.random.default_rng(0))
        assert kd_loss(t, clone_trace(t)) == 0.0

    def test_unit_difference_in_o4(self):
        t = make_trace(np.random.default_rng(1), batch=1, hidden=2)
        other = clone_trace(t)
        other.o4 = t.o4 + 1.0  # two features each differing by 1, batch of 1
        assert kd_loss(t, other) == pytest.approx(2.0, abs=1e-12)

    def test_matches_per_element_summation_oracle(self):
        rng = np.random.default_rng(2)
        a, b = make_trace(rng), make_trace(rng)
        expected = 0.0
        for field in ("o1", "o2", "o3", "o4"):
            s, t = getattr(a, field), getattr(b, field)
            batch = s.shape[0]
            acc = 0.0
            for i in np.ndindex(s.shape):
                acc += (s[i] - t[i]) ** 2
            expected += acc / batch
        assert kd_loss(a, b) == pytest.approx(expected, rel=1e-6)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        a, b = make_trace(rng), make_trace(rng)
        assert kd_loss(a, b) == pytest.approx(kd_loss(b, a), abs=1e-9)

    def test_batch_mean_reduction_is_batch_size_independent(self):
        rng = np.random.default_rng(4)
        a1, b1 = make_trace(rng, batch=1), make_trace(rng, batch=1)
        a2 = extractor.ForwardTrace(**{f: np.repeat(getattr(a1, f), 3, axis=0)
                                       for f in ("o1", "o2", "o3", "o4", "logits", "probs")})
        b2 = extractor.ForwardTrace(**{f: np.repeat(getattr(b1, f), 3, axis=0)
                                       for f in ("o1", "o2", "o3", "o4", "logits", "probs")})
        assert kd_loss(a2, b2) == pytest.approx(kd_loss(a1, b1), rel=1e-12)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(5)
        with pytest.raises(nncore.ShapeError):
            kd_loss(make_trace(rng, length=10), make_trace(rng, length=11))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("layout", ["c", "obl"])
    @pytest.mark.parametrize("shape", [(16, 128, 256), (16, 256, 256), (16, 256, 24)])
    def test_equals_the_widened_expression_bit_for_bit(self, shape, layout, dtype):
        # conv block outputs are stored [C, B, L]-ordered ("obl")
        rng = np.random.default_rng(6)

        def stage(stage_shape):
            a = rng.standard_normal(stage_shape).astype(dtype)
            if layout == "obl" and a.ndim == 3:
                return np.ascontiguousarray(a.transpose(1, 0, 2)).transpose(1, 0, 2)
            return a

        def trace():
            blocks = {f: stage(shape) for f in ("o1", "o2", "o3")}
            logits = stage((shape[0], 3))
            return extractor.ForwardTrace(**blocks, o4=stage(shape[:2]), logits=logits,
                                          probs=nncore.softmax(logits))

        a, b = trace(), trace()
        expected = 0.0
        for name in extractor.ForwardTrace.HIDDEN_FIELDS:
            s, t = getattr(a, name), getattr(b, name)
            diff = s.astype(np.float64) - t.astype(np.float64)
            expected += float(np.sum(diff * diff) / s.shape[0])
        assert kd_loss(a, b) == expected


class TestSupLoss:
    def test_one_hot_correct_is_zero(self):
        probs = np.eye(3)
        assert sup_loss(probs, np.array([0, 1, 2])) == pytest.approx(0.0, abs=1e-9)

    def test_uniform_two_classes_is_ln2(self):
        probs = np.full((4, 2), 0.5)
        assert sup_loss(probs, np.array([0, 1, 0, 1])) == pytest.approx(math.log(2), abs=1e-12)

    def test_hand_summed_oracle(self):
        probs = np.array([[0.7, 0.2, 0.1],
                          [0.1, 0.8, 0.1],
                          [0.25, 0.25, 0.5]])
        labels = np.array([0, 2, 1])
        expected = -(math.log(0.7) + math.log(0.1) + math.log(0.25)) / 3.0
        assert sup_loss(probs, labels) == pytest.approx(expected, abs=1e-9)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="range"):
            sup_loss(np.full((2, 2), 0.5), np.array([0, 2]))

    def test_zero_probability_is_clamped(self):
        probs = np.array([[1.0, 0.0]])
        val = sup_loss(probs, np.array([1]))
        assert np.isfinite(val)
        assert val == pytest.approx(-math.log(1e-12), rel=1e-6)


class TestTotalLoss:
    def test_papers_operating_point(self):
        assert total_loss(1.0, 2.0, 0.9) == pytest.approx(1.1, abs=1e-12)

    def test_zero_kd(self):
        assert total_loss(0.42, 0.0, 0.9) == pytest.approx(0.9 * 0.42, abs=1e-12)

    @given(x=st.floats(0.0, 100.0, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_equal_terms_fixed_point(self, x):
        assert total_loss(x, x, 0.5) == pytest.approx(x, rel=1e-12)

    @given(sup=st.floats(0, 10), kd=st.floats(0, 10),
           d=st.floats(0.01, 5), eps=st.floats(0.01, 0.99))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_both_terms(self, sup, kd, d, eps):
        base = total_loss(sup, kd, eps)
        assert total_loss(sup + d, kd, eps) > base
        assert total_loss(sup, kd + d, eps) > base

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.1, 1.5])
    def test_epsilon_outside_open_interval_rejected(self, eps):
        with pytest.raises(ConfigError):
            total_loss(1.0, 1.0, eps)
        with pytest.raises(ConfigError):
            FBSTConfig(epsilon=eps)

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.1, 1.5])
    def test_distillation_loss_rejects_epsilon_outside_open_interval(self, eps):
        with pytest.raises(ConfigError, match="strictly inside"):
            fbst.DistillationLoss(teacher_trace=None, labels=np.zeros(2), epsilon=eps)


def small_problem(seed=0, n=12, length=16, num_classes=2):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 1, length))
    y = rng.integers(0, num_classes, size=n)
    return x, y


class TestBatchIteration:
    def test_covers_every_index_once_and_keeps_short_tail(self):
        batches = list(fbst.iter_batches(10, 4, np.random.default_rng(0)))
        assert [len(b) for b in batches] == [4, 4, 2]
        assert sorted(np.concatenate(batches).tolist()) == list(range(10))

    def test_shuffling_is_seeded(self):
        a = list(fbst.iter_batches(10, 4, np.random.default_rng(5)))
        b = list(fbst.iter_batches(10, 4, np.random.default_rng(5)))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


def float32_bundle(bundle: extractor.WeightBundle) -> extractor.WeightBundle:
    """The bundle as it arrives from the wire."""
    return extractor.WeightBundle({k: v.astype(np.float32) for k, v in bundle.arrays.items()})


class TestTeacherLifecycle:
    def test_no_teacher_until_first_load(self):
        pair = FBSTPair(mini_model(num_classes=2, seed=40))
        assert pair.teacher is None
        x, y = small_problem(seed=41)
        adam = nncore.AdamState.for_params(pair.student.parameters())
        report = local_train_epoch(pair, x, y, FBSTConfig(), k=3, adam=adam,
                                   rng=np.random.default_rng(42))
        assert pair.teacher is None
        assert report.kd == 0.0

    def test_first_load_builds_teacher_holding_the_bundle(self, monkeypatch):
        clones = []
        real_clone = extractor.clone_model
        monkeypatch.setattr(extractor, "clone_model",
                            lambda model, *rest: clones.append(model) or real_clone(model, *rest))
        pair = FBSTPair(mini_model(num_classes=2, seed=43))
        source = extractor.extract_hidden_weights(mini_model(num_classes=2, seed=44))
        pair.load_teacher(source)
        assert clones == [pair.student]
        teacher = pair.teacher
        for key, arr in extractor.hidden_arrays(teacher).items():
            assert np.array_equal(arr, source.arrays[key]), key
            # the teacher keeps the bundle's own array, read-only
            assert np.shares_memory(arr, source.arrays[key]), key
            assert not arr.flags.writeable, key
        # every later load clones the student again, onto the new bundle
        later = extractor.extract_hidden_weights(pair.student)
        pair.load_teacher(later)
        assert pair.teacher is not teacher and clones == [pair.student] * 2
        for key, arr in extractor.hidden_arrays(pair.teacher).items():
            assert np.array_equal(arr, later.arrays[key]), key
            assert np.shares_memory(arr, later.arrays[key]), key

    def test_loaded_teacher_shares_no_memory_with_student(self):
        pair = FBSTPair(mini_model(num_classes=2, seed=45))
        pair.load_teacher(extractor.extract_hidden_weights(pair.student))
        teacher, student = model_arrays(pair.teacher), model_arrays(pair.student)
        for key, arr in teacher.items():
            for other in student.values():
                assert not np.shares_memory(arr, other), key

    def test_rejected_first_load_leaves_no_teacher(self):
        pair = FBSTPair(mini_model(num_classes=2, seed=46))
        bundle = extractor.extract_hidden_weights(pair.student)
        bundle.arrays["dense.bias"] = np.zeros(MINI_HIDDEN + 1)
        with pytest.raises(extractor.IncompatibleBundleError):
            pair.load_teacher(bundle)
        assert pair.teacher is None

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_teacher_holds_each_bundle_in_the_students_dtype(self, dtype):
        pair = FBSTPair(mini_model(num_classes=2, seed=47, dtype=dtype))
        wide = extractor.extract_hidden_weights(mini_model(num_classes=2, seed=48))
        wire = float32_bundle(extractor.extract_hidden_weights(mini_model(num_classes=2, seed=49)))
        pair.load_teacher(wide)
        for source in (wire, wide, wire):
            pair.load_teacher(source)
            for key, arr in extractor.hidden_arrays(pair.teacher).items():
                assert arr.dtype == dtype, key
                assert np.array_equal(arr, source.arrays[key].astype(dtype)), key
                # a bundle in the student's dtype is kept, any other is cast
                assert np.shares_memory(arr, source.arrays[key]) == \
                    (source.arrays[key].dtype == dtype), key
                assert not arr.flags.writeable, key
        # a rejected later load leaves the teacher as it was
        teacher = pair.teacher
        held = {k: v.copy() for k, v in extractor.hidden_arrays(teacher).items()}
        bad = wide.copy()
        bad.arrays["dense.bias"] = np.zeros(MINI_HIDDEN + 1)
        with pytest.raises(extractor.IncompatibleBundleError):
            pair.load_teacher(bad)
        assert pair.teacher is teacher
        for key, arr in extractor.hidden_arrays(teacher).items():
            assert arr.dtype == dtype and np.array_equal(arr, held[key]), key

    def test_only_student_loads_are_hidden_weight_loads(self, monkeypatch):
        loads = []
        clones = []
        real_load = extractor.load_hidden_weights
        real_clone = extractor.clone_model
        monkeypatch.setattr(extractor, "load_hidden_weights",
                            lambda model, bundle: loads.append(model) or real_load(model, bundle))
        monkeypatch.setattr(extractor, "clone_model",
                            lambda model, bundle: clones.append(bundle) or real_clone(model, bundle))
        pair = FBSTPair(mini_model(num_classes=2, seed=50))
        teachers = [random_bundle(np.random.default_rng(51)) for _ in range(2)]
        for bundle in teachers:
            pair.load_teacher(bundle)
        pair.load_student(random_bundle(np.random.default_rng(52)))
        # a teacher load is a clone onto the bundle, a student load a copy
        assert clones == teachers
        assert loads == [pair.student]


class TestLocalTrainEpoch:
    def test_first_epoch_is_supervised_only(self):
        pair = FBSTPair(mini_model(num_classes=2, seed=1))
        x, y = small_problem(seed=2)
        adam = nncore.AdamState.for_params(pair.student.parameters())
        report = local_train_epoch(pair, x, y, FBSTConfig(), k=1, adam=adam,
                                   rng=np.random.default_rng(3))
        assert report.kd == 0.0
        assert report.total == pytest.approx(report.sup, abs=1e-12)

    def test_first_epoch_ignores_a_loaded_teacher(self):
        pair = FBSTPair(mini_model(num_classes=2, seed=1))
        pair.load_teacher(extractor.extract_hidden_weights(mini_model(num_classes=2, seed=0)))
        x, y = small_problem(seed=2)
        adam = nncore.AdamState.for_params(pair.student.parameters())
        report = local_train_epoch(pair, x, y, FBSTConfig(), k=1, adam=adam,
                                   rng=np.random.default_rng(3))
        assert report.kd == 0.0

    def test_self_teacher_first_batch_kd_zero(self):
        pair = FBSTPair(mini_model(num_classes=2, seed=4))
        x, y = small_problem(seed=5, n=8)
        pair.load_teacher(extractor.extract_hidden_weights(pair.student))
        adam = nncore.AdamState.for_params(pair.student.parameters())
        # one batch covering the whole set: the reported kd is exactly the
        # first-batch kd, computed before any update
        cfg = FBSTConfig(batch_size=8)
        report = local_train_epoch(pair, x, y, cfg, k=2, adam=adam,
                                   rng=np.random.default_rng(6))
        assert report.kd == 0.0
        assert report.total == pytest.approx(0.9 * report.sup + 0.1 * report.kd, abs=1e-9)

    def test_total_is_affine_mix_when_teacher_active(self):
        pair = FBSTPair(mini_model(num_classes=2, seed=7))
        teacher_src = mini_model(num_classes=2, seed=8)
        pair.load_teacher(extractor.extract_hidden_weights(teacher_src))
        x, y = small_problem(seed=9)
        adam = nncore.AdamState.for_params(pair.student.parameters())
        cfg = FBSTConfig(epsilon=0.9)
        report = local_train_epoch(pair, x, y, cfg, k=3, adam=adam,
                                   rng=np.random.default_rng(10))
        assert report.kd > 0.0
        assert report.total == pytest.approx(0.9 * report.sup + 0.1 * report.kd, abs=1e-9)

    @pytest.mark.parametrize("k", [1, 3])  # supervised-only, distillation
    def test_report_is_the_mean_of_the_objectives_parts(self, k):
        # lr = 0 keeps the student fixed, so every batch's parts can be replayed
        pair = FBSTPair(mini_model(num_classes=2, seed=30))
        pair.load_teacher(extractor.extract_hidden_weights(mini_model(num_classes=2, seed=31)))
        x, y = small_problem(seed=32)
        cfg = FBSTConfig(local_epochs=2, batch_size=5)
        adam = nncore.AdamState.for_params(pair.student.parameters(), lr=0.0)
        report = local_train_epoch(pair, x, y, cfg, k=k, adam=adam,
                                   rng=np.random.default_rng(33))
        replay = np.random.default_rng(33)
        parts = []
        for _ in range(cfg.local_epochs):
            for idx in fbst.iter_batches(x.shape[0], cfg.batch_size, replay):
                objective = fbst.SupervisedLoss(y[idx])
                if k > 1:
                    teacher_trace = pair.teacher.forward(x[idx], training=True,
                                                         update_running=False)
                    objective = fbst.DistillationLoss(teacher_trace, y[idx], cfg.epsilon)
                parts.append(objective.parts(pair.student.forward(x[idx], training=True)))
        assert len(parts) == 6
        assert (report.kd > 0.0) == (k > 1)
        for field in ("kd", "sup", "total"):
            mean = sum(getattr(p, field) for p in parts) / len(parts)
            assert getattr(report, field) == pytest.approx(mean, rel=1e-12, abs=0.0)

    def test_no_batch_outlives_its_step(self, monkeypatch):
        # the teacher's trace is dead when the student's backward starts, and
        # nothing of the previous batch's step is alive when the next
        # forward starts; the cache is a dict, so its pooled features stand
        # for it
        pair = FBSTPair(mini_model(num_classes=2, seed=35))
        pair.load_teacher(extractor.extract_hidden_weights(mini_model(num_classes=2, seed=36)))
        x, y = small_problem(seed=37)
        real_forward, real_backward = extractor.FeatureExtractor.forward, \
            extractor.FeatureExtractor.backward
        step_refs, teacher_refs, backwards = [], [], []

        def forward(self, xb, *args, **kwargs):
            if kwargs.get("want_cache"):
                assert all(ref() is None for ref in step_refs), "a previous batch is alive"
                trace, cache = real_forward(self, xb, *args, **kwargs)
                step_refs.extend(weakref.ref(a) for a in (trace, cache["pooled"], xb))
                return trace, cache
            trace = real_forward(self, xb, *args, **kwargs)
            teacher_refs.append(weakref.ref(trace))
            step_refs.append(teacher_refs[-1])
            return trace

        def backward(self, cache, output_grads):
            assert teacher_refs[-1]() is None, "the teacher's trace is alive"
            backwards.append(len(teacher_refs))
            grads = real_backward(self, cache, output_grads)
            step_refs.extend(weakref.ref(g) for g in grads.values())
            return grads

        monkeypatch.setattr(extractor.FeatureExtractor, "forward", forward)
        monkeypatch.setattr(extractor.FeatureExtractor, "backward", backward)
        adam = nncore.AdamState.for_params(pair.student.parameters())
        local_train_epoch(pair, x, y, FBSTConfig(local_epochs=2, batch_size=5), k=2,
                          adam=adam, rng=np.random.default_rng(38))
        assert backwards == [1, 2, 3, 4, 5, 6]
        assert all(ref() is None for ref in step_refs)

    def test_kd_gradients_live_in_the_teacher_traces_arrays(self, monkeypatch):
        # a step's KD gradients are written into the arrays of the teacher's
        # trace of the same batch, and equal the pure gradients bit for bit
        pair = FBSTPair(mini_model(num_classes=2, seed=39))
        pair.load_teacher(extractor.extract_hidden_weights(mini_model(num_classes=2, seed=40)))
        x, y = small_problem(seed=41)
        fields = extractor.ForwardTrace.HIDDEN_FIELDS
        real_forward, real_backward = extractor.FeatureExtractor.forward, \
            extractor.FeatureExtractor.backward
        teacher_refs, checked = [], []

        def forward(self, xb, *args, **kwargs):
            result = real_forward(self, xb, *args, **kwargs)
            if not kwargs.get("want_cache"):
                teacher_refs.append({f: weakref.ref(getattr(result, f)) for f in fields})
            return result

        def backward(self, cache, output_grads):
            refs = teacher_refs[-1]
            assert all(output_grads[f] is refs[f]() for f in fields)
            checked.append(True)
            return real_backward(self, cache, output_grads)

        monkeypatch.setattr(extractor.FeatureExtractor, "forward", forward)
        monkeypatch.setattr(extractor.FeatureExtractor, "backward", backward)
        adam = nncore.AdamState.for_params(pair.student.parameters())
        local_train_epoch(pair, x, y, FBSTConfig(batch_size=5), k=2, adam=adam,
                          rng=np.random.default_rng(42))
        assert len(checked) == 3

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_consumed_kd_gradients_equal_the_pure_ones(self, dtype):
        rng = np.random.default_rng(43)

        def trace():
            t = make_trace(rng)
            return extractor.ForwardTrace(**{f: getattr(t, f).astype(dtype)
                                             for f in ("o1", "o2", "o3", "o4", "logits",
                                                       "probs")})

        student, teacher = trace(), trace()
        labels = np.array([0, 2])
        pure = fbst.DistillationLoss(clone_trace(teacher), labels, epsilon=0.7)
        consumed = fbst.DistillationLoss(teacher, labels, epsilon=0.7)
        expected = pure.output_grads(student)
        grads = consumed.output_grads(student, consume=True)
        assert consumed.teacher_trace is None
        for name in extractor.ForwardTrace.HIDDEN_FIELDS:
            assert grads[name] is getattr(teacher, name)
        for name, g in expected.items():
            assert g.dtype == grads[name].dtype
            assert g.tobytes() == grads[name].tobytes()

    def test_output_grads_leave_the_loss_value_unchanged(self):
        # finite_diff_gradcheck evaluates the loss again after taking its
        # gradients, so output_grads must not write into the teacher trace
        rng = np.random.default_rng(44)
        student, teacher = make_trace(rng), make_trace(rng)
        held = clone_trace(teacher)
        loss = fbst.DistillationLoss(teacher, np.array([1, 0]), epsilon=0.9)
        before = loss.value(student)
        loss.output_grads(student)
        assert loss.value(student) == before
        for name in ("o1", "o2", "o3", "o4", "logits", "probs"):
            assert getattr(teacher, name).tobytes() == getattr(held, name).tobytes()

    def test_loss_objects_value_is_the_total_of_their_parts(self):
        rng = np.random.default_rng(34)
        student, teacher = make_trace(rng), make_trace(rng)
        labels = np.array([0, 2])
        supervised = fbst.SupervisedLoss(labels)
        distillation = fbst.DistillationLoss(teacher, labels, epsilon=0.7)
        sup, kd = sup_loss(student.probs, labels), kd_loss(student, teacher)
        assert supervised.parts(student) == fbst.LossReport(kd=0.0, sup=sup, total=sup)
        assert distillation.parts(student) == fbst.LossReport(
            kd=kd, sup=sup, total=total_loss(sup, kd, 0.7))
        for objective in (supervised, distillation):
            assert objective.value(student) == objective.parts(student).total

    def test_lr_zero_leaves_learnables_bitwise_unchanged(self):
        pair = FBSTPair(mini_model(num_classes=2, seed=11))
        before = {k: v.copy() for k, v in pair.student.parameters().items()}
        x, y = small_problem(seed=12)
        adam = nncore.AdamState.for_params(pair.student.parameters(), lr=0.0)
        local_train_epoch(pair, x, y, FBSTConfig(), k=1, adam=adam,
                          rng=np.random.default_rng(13))
        for key, arr in pair.student.parameters().items():
            assert np.array_equal(arr, before[key]), key

    def test_teacher_parameters_bitwise_constant(self):
        pair = FBSTPair(mini_model(num_classes=2, seed=14))
        pair.load_teacher(extractor.extract_hidden_weights(mini_model(num_classes=2, seed=15)))
        before = {k: v.copy() for k, v in pair.teacher.parameters().items()}
        x, y = small_problem(seed=16)
        adam = nncore.AdamState.for_params(pair.student.parameters(), lr=1e-3)
        for k in (2, 3, 4):
            local_train_epoch(pair, x, y, FBSTConfig(), k=k, adam=adam,
                              rng=np.random.default_rng(17))
        for key, arr in pair.teacher.parameters().items():
            assert np.array_equal(arr, before[key]), key

    def test_loss_nonincreasing_over_first_steps_on_frozen_batch(self):
        # fixed batch, fixed teacher, lr=1e-4: the first three updates must
        # not increase the training loss on that same batch
        pair = FBSTPair(mini_model(num_classes=2, seed=18))
        pair.load_teacher(extractor.extract_hidden_weights(mini_model(num_classes=2, seed=19)))
        x, y = small_problem(seed=20, n=8)
        cfg = FBSTConfig(batch_size=8)
        adam = nncore.AdamState.for_params(pair.student.parameters(), lr=1e-4)
        losses = []
        for step in range(3):
            report = local_train_epoch(pair, x, y, cfg, k=2 + step, adam=adam,
                                       rng=np.random.default_rng(0))
            losses.append(report.total)
        assert losses[1] <= losses[0] + 1e-12
        assert losses[2] <= losses[1] + 1e-12

    def test_empty_dataset_rejected(self):
        pair = FBSTPair(mini_model(num_classes=2, seed=21))
        adam = nncore.AdamState.for_params(pair.student.parameters())
        with pytest.raises(ValueError, match="non-empty"):
            local_train_epoch(pair, np.zeros((0, 1, 8)), np.zeros(0, dtype=int),
                              FBSTConfig(), k=1, adam=adam, rng=np.random.default_rng(0))

    def test_synthetic_separable_set_reaches_perfect_train_accuracy(self):
        ds = dataio.make_synthetic_waves(n_train=20, n_test=20, length=64, seed=3)
        pair = FBSTPair(extractor.FeatureExtractor(num_classes=2, blocks=((9, 16), (5, 16), (3, 16)),
                                                   hidden_dim=16, seed=5))
        adam = nncore.AdamState.for_params(pair.student.parameters(), lr=1e-3)
        rng = np.random.default_rng(11)
        reached = False
        for epoch in range(1, 11):
            local_train_epoch(pair, ds.train_tensor(), ds.y_train, FBSTConfig(), k=epoch,
                              adam=adam, rng=rng)
            acc = metrics.top1_accuracy(pair.student.predict(ds.train_tensor()), ds.y_train)
            if acc == 1.0:
                reached = True
                break
        assert reached, "separable set not fit within 10 local epochs"
