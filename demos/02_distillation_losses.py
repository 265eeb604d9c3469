"""The student-teacher loss, piece by piece.

Each user trains a student under a frozen teacher. The feature-matching
(KD) term compares the four hidden-stage outputs; the supervised term is
cross-entropy; the total mixes them with epsilon = 0.9.
"""
import numpy as np

from efdls import dataio, extractor, fbst, metrics, nncore

rng = np.random.default_rng(3)

ds = dataio.make_synthetic_waves(n_train=20, n_test=40, length=64, seed=3)
student = extractor.FeatureExtractor(num_classes=2, blocks=((9, 16), (5, 16), (3, 16)),
                                     hidden_dim=16, seed=5)
pair = fbst.FBSTPair(student)

# A teacher holding the student's own weights reproduces its trace exactly,
# so the feature-matching term starts at zero.
pair.load_teacher(extractor.extract_hidden_weights(pair.student))
x = ds.train_tensor()[:8]
s_trace = pair.student.forward(x, training=True, update_running=False)
t_trace = pair.teacher.forward(x, training=True, update_running=False)
print("self-teacher KD loss:", fbst.kd_loss(s_trace, t_trace))

# The loss pieces and the epsilon mix.
sup = fbst.sup_loss(s_trace.probs, ds.y_train[:8])
kd = 1.7  # any KD value
print(f"sup={sup:.4f}  kd={kd}  total(eps=0.9) = {fbst.total_loss(sup, kd, 0.9):.4f}")

# First federated epoch trains supervised-only; from the second epoch on the
# teacher holds whatever the server handed down last round. Here we mimic a
# round trip by reloading the teacher with a snapshot of the student's hidden
# layers taken at the end of the previous epoch, so the KD term tracks how far
# one epoch moves the student.
adam = nncore.AdamState.for_params(pair.student.parameters(), lr=1e-3)
config = fbst.FBSTConfig()
for k in range(1, 11):
    if k > 1:
        pair.load_teacher(extractor.extract_hidden_weights(pair.student))
    report = fbst.local_train_epoch(pair, ds.train_tensor(), ds.y_train, config, k, adam, rng)
    if k in (1, 2, 5, 10):
        acc = metrics.top1_accuracy(pair.student.predict(ds.train_tensor()), ds.y_train)
        print(f"epoch {k:2d}: sup={report.sup:.4f} kd={report.kd:.4f} "
              f"total={report.total:.4f} train acc={acc:.2f}")
