import os

import numpy as np
import pytest

from efdls import extractor

# Skinny widths keep exhaustive finite differences and brute-force matching
# fast; the topology is the full one (three conv blocks + pool + two denses).
MINI_BLOCKS = ((3, 3), (3, 4), (3, 3))
MINI_HIDDEN = 3


def mini_model(num_classes=3, seed=0, **kwargs) -> extractor.FeatureExtractor:
    return extractor.FeatureExtractor(num_classes=num_classes, blocks=MINI_BLOCKS,
                                      hidden_dim=MINI_HIDDEN, seed=seed, **kwargs)


def random_bundle(rng: np.random.Generator) -> extractor.WeightBundle:
    """Canonically keyed bundle with miniature shapes and random values."""
    bundle = extractor.extract_hidden_weights(mini_model(seed=0))
    for key, arr in bundle.arrays.items():
        arr[...] = rng.standard_normal(arr.shape)
        if key.endswith("running_var"):
            arr[...] = np.abs(arr)
    return bundle


def model_arrays(model: extractor.FeatureExtractor) -> dict:
    """Live views of every array a model owns: the hidden layers, running
    statistics included, and the classifier."""
    arrays = dict(extractor.hidden_arrays(model))
    arrays["classifier.weight"] = model.classifier.weight
    arrays["classifier.bias"] = model.classifier.bias
    return arrays


def ucr_data_dir() -> str | None:
    d = os.environ.get("EFDLS_DATA_DIR")
    return d if d and os.path.isdir(d) else None


def dataset_available(name: str) -> bool:
    d = ucr_data_dir()
    if d is None:
        return False
    return os.path.exists(os.path.join(d, name, f"{name}_TRAIN.tsv"))


def requires_datasets(*names):
    missing = [n for n in names if not dataset_available(n)]
    return pytest.mark.skipif(
        bool(missing),
        reason=f"UCR archive files not present in this environment (set EFDLS_DATA_DIR); missing: {missing}",
    )
