"""The test suite's labelled data: isotropic Gaussian blobs drawn from
one SplitMix64 stream, through the zoo generator's own point draw."""
import numpy as np

from terank import EmbeddingSet
from terank.rng import SplitMix64
from terank.synth import SYNTH_DATASET, _class_draws


def draw_points(rng: SplitMix64, centroids: np.ndarray, per_class: int,
                noise: float) -> np.ndarray:
    """The float32 class blocks of `synth._class_draws`, stacked in class
    order: per_class rows around each centroid."""
    return np.concatenate(list(_class_draws(rng, centroids, per_class, noise)))


def gen_class_gaussians(
    classes: int,
    per_class: int,
    dim: int,
    rho: float,
    noise: float,
    seed: int,
) -> EmbeddingSet:
    """Isotropic Gaussian blobs: centroids from N(0, rho^2 I), then
    per_class points per class from N(centroid, noise^2 I).

    One stream in class-major, dimension-minor order makes the output
    bit-deterministic: the centroids are drawn first, then the points
    by the zoo generator's `synth._class_draws`, one block per class, so
    a zoo model's training set equals this set for the same parameters
    and the seed seed XOR m.
    """
    rng = SplitMix64(seed)
    centroids = rho * rng.gaussians(classes * dim).reshape(classes, dim)
    return EmbeddingSet(
        features=draw_points(rng, centroids, per_class, noise),
        labels=np.repeat(np.arange(classes, dtype=np.int64), per_class),
        model_id="synthetic",
        dataset_id=SYNTH_DATASET,
    )
