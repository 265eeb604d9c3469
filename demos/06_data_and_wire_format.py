"""Dataset ingestion and the binary weight-message format.

Ingestion: tab- or whitespace-separated files, label first. Labels remap to
contiguous 0-based indices, every instance is z-normalized on its own, and
variable-length instances are zero-padded on the right after normalization.

Wire format: hidden-layer bundles travel as binary messages with an `EFDL`
magic, a version byte, epoch/user ids, and one block per array. Float32 on
the wire; decoding is strict and reports the byte offset of any damage.
"""
import os
import tempfile

import numpy as np

from efdls import dataio, extractor, federation

# -- ingestion ---------------------------------------------------------------

with tempfile.TemporaryDirectory() as tmp:
    d = os.path.join(tmp, "Toy")
    os.makedirs(d)
    with open(os.path.join(d, "Toy_TRAIN.tsv"), "w") as fh:
        fh.write("5\t0.0\t2.0\t4.0\n")          # label 5, length 3
        fh.write("7\t1.0\t3.0\tNaN\n")          # label 7, trailing NaN = length 2
        fh.write("5\t9.0\t9.0\t9.0\n")          # constant series
    with open(os.path.join(d, "Toy_TEST.tsv"), "w") as fh:
        fh.write("7\t0.0\t1.0\t2.0\n")
    ds = dataio.load_ucr_tsv(d)
    print("label map (original -> contiguous):", ds.label_map)
    print("train labels:", ds.y_train, " series length:", ds.series_length)
    print("normalized rows (constant series maps to zeros, short row zero-padded):")
    print(np.round(ds.x_train, 4))

# -- wire format ---------------------------------------------------------------

model = extractor.FeatureExtractor(num_classes=2, blocks=((3, 4), (3, 6), (3, 4)),
                                   hidden_dim=4, seed=0)
bundle = extractor.extract_hidden_weights(model)
message = federation.encode_weight_message(bundle, epoch=3, user_id=12)
frame = bytes(message)  # the version-1 frame a socket carries
print(f"\nencoded {len(bundle.arrays)} arrays into {len(message):,} bytes")
print("header:", frame[:4], "version", frame[4])

decoded, epoch, uid = federation.decode_weight_message(message)
print(f"decoded epoch={epoch} user={uid}; values exact at single precision:",
      all(np.array_equal(decoded.arrays[k], v.astype(np.float32))
          for k, v in bundle.arrays.items()))

try:
    federation.decode_weight_message(frame[:-3])
except federation.MalformedMessageError as err:
    print(f"truncated message rejected: {err}")
