"""Deterministic synthetic embeddings and model zoos for desk-scale runs.

Every draw comes from the SplitMix64 stream, so generation is a pure
function of its config: the same seed produces byte-identical EMB1 files
on any platform.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator
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


def _class_draws(
    rng: SplitMix64, centroids: np.ndarray, per_class: int, noise: float
) -> Iterator[np.ndarray]:
    """per_class points around each centroid, noise * g + centroid, as one
    float32 block per class, in class order, each drawn when it is taken.

    Each block is formed in its own float64 buffer, freed once it is
    rounded to float32, so at most one class of float64 draws is alive.
    The stream order, and the spare an odd draw carries into the next
    class, are those of one draw of every point, so the stacked blocks
    equal (repeat(centroids) + noise * g).astype(float32) bit for bit.
    """
    dim = centroids.shape[1]

    def draw(centroid: np.ndarray) -> np.ndarray:
        g = rng.gaussians(per_class * dim).reshape(per_class, dim)
        g *= noise
        g += centroid  # the sum is commutative: centroid + noise * g
        return g.astype(np.float32)

    return map(draw, centroids)


def _draw_points(
    rng: SplitMix64, centroids: np.ndarray, per_class: int, noise: float
) -> np.ndarray:
    """The blocks of `_class_draws` as one float32 array of rows in class
    order."""
    classes, dim = centroids.shape
    points = np.empty((classes * per_class, dim), dtype=np.float32)
    for c, block in enumerate(_class_draws(rng, centroids, per_class, noise)):
        points[c * per_class:(c + 1) * per_class] = block
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


def _sq_distances(features: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Squared float64 distances of each row of `features` to each
    centroid, as ||t||^2 - 2 t.mu + ||mu||^2. A row's distances do not
    depend on which other rows share its call."""
    features = np.asarray(features)
    te_sq = np.sum(np.square(features, dtype=np.float64), axis=1)
    # doubling is exact, so these are the bits of 2.0 * features in float64
    te2 = np.multiply(features, 2.0, dtype=np.float64)
    return te_sq[:, None] - te2 @ centroids.T + np.sum(centroids * centroids, axis=1)


def nearest_centroid_accuracy(
    train_features: np.ndarray,
    train_labels: np.ndarray,
    held_out: Iterable[tuple[np.ndarray, np.ndarray | int]],
    class_count: int,
) -> float:
    """Fraction of held-out points whose nearest training-class centroid
    matches their label. Ties go to the lowest class index.

    `held_out` yields `(features, labels)` blocks, where labels may be
    one class index for the whole block; a caller with whole arrays
    passes one block. Each block is reduced to its hit count before the
    next is taken, so a generator of blocks never has the whole held-out
    set alive: besides the training set, one block and its block-sized
    float64 double are. Distances are computed in float64 by
    `_sq_distances`, whose rows do not depend on the other rows of their
    block, so any split into blocks gives the same bits. Each centroid
    is the mean of its class's rows cast on their own.
    """
    train_features = np.asarray(train_features)
    centroids = np.stack([
        np.asarray(train_features[train_labels == c], dtype=np.float64).mean(axis=0)
        for c in range(class_count)
    ])
    hits = total = 0
    for features, labels in held_out:
        nearest = np.argmin(_sq_distances(features, centroids), axis=1)
        hits += int(np.count_nonzero(nearest == labels))
        total += len(nearest)
    if not total:
        raise DataError("no held-out points")
    return hits / total


def gen_zoo_model(cfg: ZooConfig, m: int) -> tuple[EmbeddingSet, float]:
    """Generate model m of the zoo: its embedding set and its oracle
    accuracy in percent.

    The model uses the stream seeded with seed XOR m: centroids, then the
    training draw, then a fresh held-out draw of the same size. Its
    "fine-tuning accuracy" is the held-out nearest-centroid accuracy.
    Models share no state, so they can be generated in any order or
    concurrently with identical output. Raises NumericError when the
    draws or their float32 cast overflow.

    The training set is drawn into float32 one class at a time. The
    held-out set is drawn class by class while its accuracy is measured,
    each class checked, counted and dropped before the next is drawn, so
    it never exists whole. Beside the float32 training set a model holds
    one class of draws and their distances: a traced peak, save_emb1
    included, of about 1.8 times the training set's float32 bytes.
    """
    model_id = f"model-{m:02d}"

    def finite(points: np.ndarray) -> np.ndarray:
        # finite flags can still overflow the draws or their float32 cast
        if not np.isfinite(points).all():
            raise NumericError(
                f"{model_id}: generated features are not finite in float32 "
                f"(rho {cfg.rhos[m]:g}, noise {cfg.noises[m]:g})"
            )
        return points

    rng = SplitMix64(cfg.seed ^ m)
    centroids = cfg.rhos[m] * rng.gaussians(cfg.classes * cfg.dim).reshape(
        cfg.classes, cfg.dim
    )
    ds = EmbeddingSet(
        features=finite(_draw_points(rng, centroids, cfg.per_class, cfg.noises[m])),
        labels=np.repeat(np.arange(cfg.classes, dtype=np.int64), cfg.per_class),
        class_count=cfg.classes,
        model_id=model_id,
        dataset_id=SYNTH_DATASET,
    )
    held_out = (
        (finite(block), c)
        for c, block in enumerate(
            _class_draws(rng, centroids, cfg.per_class, cfg.noises[m]))
    )
    acc = nearest_centroid_accuracy(ds.features, ds.labels, held_out, cfg.classes)
    return ds, 100.0 * acc


def zoo_truth(accuracies: Iterable[tuple[str, float]]) -> TruthTable:
    """The oracle truth table of a zoo's `(model id, accuracy)` pairs under
    the synthetic dataset, regime and pool. An accuracy outside (0, 100]
    is a data error that names its model."""
    return TruthTable(records={
        (model_id, SYNTH_DATASET, SYNTH_REGIME, SYNTH_POOL): acc
        for model_id, acc in accuracies
    })

