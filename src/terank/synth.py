"""Deterministic synthetic embeddings and model zoos for desk-scale runs.

Every draw comes from the SplitMix64 stream, so generation is a pure
function of its config: the same seed produces byte-identical EMB1 files
on any platform.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingSet
from .errors import DataError, NumericError
from .evaluation import TruthTable
from .rng import SplitMix64

SYNTH_DATASET = "synthetic"
SYNTH_REGIME = "synthetic"
SYNTH_POOL = "synthetic"

# the most float64 values one numpy array can hold: its byte size is an intp
_MAX_FLOAT64S = np.iinfo(np.intp).max // 8


@dataclass(frozen=True)
class ZooConfig:
    """Geometry of a synthetic model pool.

    Model m draws class centroids from N(0, rhos[m]^2 I) and samples from
    N(centroid, noises[m]^2 I); larger rho/noise means an easier, better
    "model".
    """

    models: int
    classes: int
    per_class: int
    dim: int
    rhos: tuple[float, ...]
    noises: tuple[float, ...]
    seed: int

    def __post_init__(self):
        if self.models < 2 or self.classes < 2 or self.per_class < 2 or self.dim < 2:
            raise DataError("need models >= 2, classes >= 2, per_class >= 2, dim >= 2")
        # centroids, then a training and a held-out draw of per_class each
        draws = self.classes * self.dim * (1 + 2 * self.per_class)
        if draws > _MAX_FLOAT64S:
            raise DataError(
                f"a model of {self.classes} classes x {self.per_class} per class "
                f"x {self.dim} dims needs {draws} draws; a float64 array holds "
                f"at most {_MAX_FLOAT64S}"
            )
        if len(self.rhos) != self.models or len(self.noises) != self.models:
            raise DataError("rhos and noises must list one value per model")
        if any(r <= 0 for r in self.rhos) or any(s <= 0 for s in self.noises):
            raise DataError("rho and noise values must be > 0")


def _draw_points(
    rng: SplitMix64, centroids: np.ndarray, per_class: int, noise: float
) -> np.ndarray:
    """per_class points around each centroid, noise * g + centroid, as
    float32 rows in class order.

    The draws come one class at a time, each formed in its own float64
    buffer and rounded once to float32, so only one class of float64
    draws is alive. The stream order, and the spare an odd draw carries
    into the next class, are those of one draw of every point, so the
    bits equal (repeat(centroids) + noise * g).astype(float32).
    """
    classes, dim = centroids.shape
    points = np.empty((classes * per_class, dim), dtype=np.float32)
    for c, centroid in enumerate(centroids):
        g = rng.gaussians(per_class * dim).reshape(per_class, dim)
        g *= noise
        g += centroid  # the sum is commutative: centroid + noise * g
        points[c * per_class:(c + 1) * per_class] = g
    return points


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
    bit-deterministic.
    """
    rng = SplitMix64(seed)
    centroids = rho * rng.gaussians(classes * dim).reshape(classes, dim)
    return EmbeddingSet(
        features=_draw_points(rng, centroids, per_class, noise),
        labels=np.repeat(np.arange(classes, dtype=np.int64), per_class),
        class_count=classes,
        model_id="synthetic",
        dataset_id=SYNTH_DATASET,
    )


def nearest_centroid_accuracy(
    train_features: np.ndarray,
    train_labels: np.ndarray,
    test_features: np.ndarray,
    test_labels: np.ndarray,
    class_count: int,
) -> float:
    """Fraction of held-out points whose nearest training-class centroid
    matches their label. Ties go to the lowest class index.

    Distances are computed in float64. Besides the inputs, one
    full-size float64 array is alive at a time: the squared test set
    while its row norms are summed, then twice the test set. Each
    centroid is the mean of its class's rows cast on their own.
    """
    train_features = np.asarray(train_features)
    test_features = np.asarray(test_features)
    centroids = np.stack([
        np.asarray(train_features[train_labels == c], dtype=np.float64).mean(axis=0)
        for c in range(class_count)
    ])
    te_sq = np.sum(np.square(test_features, dtype=np.float64), axis=1)
    # doubling is exact, so these are the bits of 2.0 * test in float64
    te2 = np.multiply(test_features, 2.0, dtype=np.float64)
    d2 = (
        te_sq[:, None]
        - te2 @ centroids.T
        + np.sum(centroids * centroids, axis=1)
    )
    return float(np.mean(np.argmin(d2, axis=1) == test_labels))


def gen_zoo_model(cfg: ZooConfig, m: int) -> tuple[EmbeddingSet, float]:
    """Generate model m of the zoo: its embedding set and its oracle
    accuracy in percent.

    The model uses the stream seeded with seed XOR m: centroids, then the
    training draw, then a fresh held-out draw of the same size. Its
    "fine-tuning accuracy" is the held-out nearest-centroid accuracy.
    Models share no state, so they can be generated in any order or
    concurrently with identical output. Raises NumericError when the
    draws or their float32 cast overflow.

    Both draws go straight into float32 sets one class at a time, so
    beside the two float32 sets a model holds one class of float64 draws
    and, while its accuracy is measured, the float64 doubled held-out
    set: about 4.4 times the training set's float32 bytes.
    """
    rng = SplitMix64(cfg.seed ^ m)
    centroids = cfg.rhos[m] * rng.gaussians(cfg.classes * cfg.dim).reshape(
        cfg.classes, cfg.dim
    )
    train = _draw_points(rng, centroids, cfg.per_class, cfg.noises[m])
    test = _draw_points(rng, centroids, cfg.per_class, cfg.noises[m])
    # finite flags can still overflow the draws or their float32 cast
    if not (np.isfinite(train).all() and np.isfinite(test).all()):
        raise NumericError(
            f"model-{m:02d}: generated features are not finite in float32 "
            f"(rho {cfg.rhos[m]:g}, noise {cfg.noises[m]:g})"
        )
    labels = np.repeat(np.arange(cfg.classes, dtype=np.int64), cfg.per_class)
    ds = EmbeddingSet(
        features=train,
        labels=labels,
        class_count=cfg.classes,
        model_id=f"model-{m:02d}",
        dataset_id=SYNTH_DATASET,
    )
    acc = nearest_centroid_accuracy(
        ds.features, labels, test, labels, cfg.classes
    )
    return ds, 100.0 * acc


def zoo_truth(accuracies: Iterable[tuple[str, float]]) -> TruthTable:
    """The oracle truth table of a zoo's `(model id, accuracy)` pairs under
    the synthetic dataset, regime and pool. An accuracy outside (0, 100]
    is a data error that names its model."""
    return TruthTable(records={
        (model_id, SYNTH_DATASET, SYNTH_REGIME, SYNTH_POOL): acc
        for model_id, acc in accuracies
    })


def gen_model_zoo(cfg: ZooConfig) -> tuple[list[EmbeddingSet], TruthTable]:
    """Generate every model of the zoo in order with `gen_zoo_model`, and
    its truth table from `zoo_truth`.

    All the sets are held at once; `terank synth` instead writes each
    model's file as soon as it is generated.
    """
    results = [gen_zoo_model(cfg, m) for m in range(cfg.models)]
    truth = zoo_truth((ds.model_id, acc) for ds, acc in results)
    return [ds for ds, _ in results], truth
