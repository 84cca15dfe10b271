"""Bundled synthetic image-like datasets for desk-scale experiments.

Each class is a fixed random prototype image; samples are the prototype plus
pixel noise, clipped to [0, 1]. A family seed fixes the prototypes, so two
datasets from the same family are identically distributed, while a different
family plays the role of out-of-domain data with matching shape and range.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset
from .errors import check_int, check_real, too_large


def make_class_prototypes(num_classes=10, side=8, family_seed=7):
    rng = np.random.default_rng(np.random.SeedSequence([family_seed, 2051]))
    return rng.uniform(0.2, 0.8, size=(num_classes, side * side))


def make_synthetic_classes(
    num_samples,
    num_classes=10,
    side=8,
    noise=0.1,
    family_seed=7,
    sample_seed=0,
) -> Dataset:
    """Draw a labeled dataset of noisy class prototypes (labels 1..C)."""
    num_samples = check_int("num_samples", num_samples, 0)
    num_classes, side = check_int("num_classes", num_classes, 1), check_int("side", side, 1)
    seeds = [check_int("family_seed", family_seed, 0), check_int("sample_seed", sample_seed, 0)]
    check_real("noise", noise, 0, np.inf, "[)")
    with too_large("dataset"):
        prototypes = make_class_prototypes(num_classes, side, family_seed)
        rng = np.random.default_rng(np.random.SeedSequence(seeds))
        labels = 1 + (np.arange(num_samples) % num_classes)
        rng.shuffle(labels)
        features = prototypes[labels - 1] + rng.normal(0.0, noise, (num_samples, side * side))
        return Dataset(features=np.clip(features, 0.0, 1.0), labels=labels)


def make_uniform_noise(num_samples, side=8, seed=0) -> Dataset:
    """Shape-matched uniform noise, for out-of-domain scoring."""
    shape = (check_int("num_samples", num_samples, 0), check_int("side", side, 1) ** 2)
    rng = np.random.default_rng(check_int("seed", seed, 0))
    with too_large("dataset"):
        return Dataset(features=rng.uniform(0.0, 1.0, size=shape))
