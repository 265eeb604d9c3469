"""Server-side weight matching: who is whose partner?

The server collects every connected user's hidden-layer bundle, computes all
pairwise squared distances over learnable parameters, and gives each user the
bundle of its nearest other user (ties to the lowest index). Users with
similar weights, i.e. similar expertise, end up teaching each other.
"""
import numpy as np

from efdls import dbwm, extractor, federation

rng = np.random.default_rng(7)

# Five users: three initialized near each other, two elsewhere.
def make_bundle(base_seed, nudge):
    model = extractor.FeatureExtractor(num_classes=2, blocks=((3, 4), (3, 6), (3, 4)),
                                       hidden_dim=4, seed=base_seed)
    bundle = extractor.extract_hidden_weights(model)
    for _, arr in bundle.learnable_items():
        arr += nudge * rng.standard_normal(arr.shape)
    return bundle

bundles = [make_bundle(0, 0.01), make_bundle(0, 0.01), make_bundle(0, 0.015),
           make_bundle(99, 0.01), make_bundle(99, 0.012)]
uploads = list(enumerate(bundles))

d = dbwm.pairwise_distances(bundles)
print("pairwise squared distances (diagonal undefined):")
print(np.array2string(d, precision=2))

partners = dbwm.match_partners(d)
print("\npartners:", dict(enumerate(partners)))
# the first three users pair among themselves, the last two with each other

dispatched = dbwm.dispatch_matched(uploads, partners)
uid, received = dispatched[0]
print(f"\nuser {uid} receives user {partners[0]}'s bundle "
      f"({received.num_learnable_params()} learnable parameters)")

# The server hands over the uploaded bundle itself, so users who share a
# partner share one bundle. Each download is encoded for the wire and decoded
# on arrival: in-process into read-only views of the message's payloads, which
# the user's load copies into its own arrays, and from a socket's byte frame
# into the user's own copy.
print("server hands over the upload itself:", received is bundles[partners[0]])
message = federation.encode_weight_message(received, epoch=1, user_id=uid)
borrowed, _, _ = federation.decode_weight_message(message)
print("in-process download is read-only:", not borrowed.arrays["dense.bias"].flags.writeable)
own, _, _ = federation.decode_weight_message(bytes(message))
own.arrays["dense.bias"][:] = 1e9
print("upload untouched by a change to the user's copy:",
      not np.array_equal(bundles[partners[0]].arrays["dense.bias"], own.arrays["dense.bias"]))
