"""Deterministic synthetic embeddings and model zoos for desk-scale runs.

Every draw comes from the SplitMix64 stream, so generation is a pure
function of its config: the same seed produces byte-identical EMB1 files
on any platform.
"""
from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingSet
from .errors import DataError, NumericError
from .evaluation import (SYNTH_DATASET, SYNTH_POOL, SYNTH_REGIME, TruthTable,
                         check_truth_record)
from .rng import SplitMix64

# the most float64 values one numpy array can hold: its byte size is an intp
_MAX_FLOAT64S = np.iinfo(np.intp).max // 8


@dataclass(frozen=True)
class ZooConfig:
    """Geometry of a synthetic model pool of one model per entry of `rhos`.

    Model m draws class centroids from N(0, rhos[m]^2 I) and samples from
    N(centroid, noises[m]^2 I); larger rho/noise means an easier, better
    "model".
    """

    classes: int
    per_class: int
    dim: int
    rhos: tuple[float, ...]
    noises: tuple[float, ...]
    seed: int

    def __post_init__(self):
        if len(self.rhos) < 2 or self.classes < 2 or self.per_class < 2 or self.dim < 2:
            raise DataError("need models >= 2, classes >= 2, per_class >= 2, dim >= 2")
        # centroids, then a training and a held-out draw of per_class each
        draws = self.classes * self.dim * (1 + 2 * self.per_class)
        if draws > _MAX_FLOAT64S:
            raise DataError(
                f"a model of {self.classes} classes x {self.per_class} per class "
                f"x {self.dim} dims needs {draws} draws; a float64 array holds "
                f"at most {_MAX_FLOAT64S}"
            )
        if len(self.noises) != len(self.rhos):
            raise DataError("rhos and noises must list one value per model")
        for name in ("rhos", "noises"):
            for m, value in enumerate(getattr(self, name)):
                # NaN fails the bound and infinity would reach the draws
                if not 0 < value < math.inf:
                    raise DataError(f"rho and noise values must be > 0 and finite, "
                                    f"got {name}[{m}] = {value}")

    @property
    def model_ids(self) -> tuple[str, ...]:
        """Each model's id, which is also its EMB1 file stem, in model order."""
        return tuple(f"model-{m:02d}" for m in range(len(self.rhos)))

    @property
    def labels(self) -> np.ndarray:
        """Each model's row labels: per_class rows of each class, in class
        order, as `draw_zoo_model` hands on the training blocks."""
        return np.repeat(np.arange(self.classes, dtype=np.int64), self.per_class)


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
    centroids: np.ndarray,
    held_out: Iterable[tuple[np.ndarray, np.ndarray | int]],
) -> float:
    """Fraction of held-out points whose nearest of the float64
    `centroids` (one row per class) is the class of their label. Ties go
    to the lowest class index.

    `held_out` yields `(features, labels)` blocks, where labels may be
    one class index for the whole block; a caller with whole arrays
    passes one block. Each block is reduced to its hit count before the
    next is taken, so a generator of blocks never has the whole held-out
    set alive: besides the centroids, one block and its block-sized
    float64 double are. Distances are computed in float64 by
    `_sq_distances`, whose rows do not depend on the other rows of their
    block, so any split into blocks gives the same bits.
    """
    hits = total = 0
    for features, labels in held_out:
        nearest = np.argmin(_sq_distances(features, centroids), axis=1)
        hits += int(np.count_nonzero(nearest == labels))
        total += len(nearest)
    if not total:
        raise DataError("no held-out points")
    return hits / total


def draw_zoo_model(cfg: ZooConfig, m: int,
                   consume: Callable[[np.ndarray], object]) -> float:
    """Draw model m of the zoo: hand its training set to `consume` as one
    float32 block per class, in class order, and return its oracle
    accuracy in percent.

    The model uses the stream seeded with seed XOR m: centroids, then the
    training draw, then a fresh held-out draw of the same size. Its
    "fine-tuning accuracy" is the held-out nearest-centroid accuracy.
    Models share no state, so they can be drawn in any order or
    concurrently with identical output. Raises NumericError when the
    draws or their float32 cast overflow, at the first such class.

    Each training block is checked and handed on as soon as it is drawn;
    only its float64 class mean stays, which is the oracle's centroid.
    The held-out set is drawn class by class while the oracle counts its
    hits. So the draw holds one class of draws and their distances, never
    the training or held-out set.
    """
    model_id = cfg.model_ids[m]

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
    means = np.empty_like(centroids)
    for c, block in enumerate(
            _class_draws(rng, centroids, cfg.per_class, cfg.noises[m])):
        consume(finite(block))
        # the class's rows in input order, cast on their own: the bits of
        # the mean of its EmbeddingSet.class_rows block
        means[c] = np.asarray(block, dtype=np.float64).mean(axis=0)
    held_out = (
        (finite(block), c)
        for c, block in enumerate(
            _class_draws(rng, centroids, cfg.per_class, cfg.noises[m]))
    )
    return 100.0 * nearest_centroid_accuracy(means, held_out)


def gen_zoo_model(cfg: ZooConfig, m: int) -> tuple[EmbeddingSet, float]:
    """Generate model m of the zoo: its embedding set and its oracle
    accuracy in percent, as `draw_zoo_model` draws them.

    The set's float32 array is filled class by class as the blocks are
    drawn, so beside it a model holds one class of draws and their
    distances. `synth` does not call this: it writes each block to the
    model's EMB1 file as it is drawn, so it never holds the set.
    """
    features = np.empty((cfg.classes, cfg.per_class, cfg.dim), dtype=np.float32)
    class_blocks = iter(features)
    acc = draw_zoo_model(cfg, m, lambda block: np.copyto(next(class_blocks), block))
    ds = EmbeddingSet(
        features=features.reshape(-1, cfg.dim),
        labels=cfg.labels,
        model_id=cfg.model_ids[m],
        dataset_id=SYNTH_DATASET,
    )
    return ds, acc


def zoo_truth(accuracies: Iterable[tuple[str, float]]) -> TruthTable:
    """The oracle truth table of a zoo's `(model id, accuracy)` pairs under
    the synthetic dataset, regime and pool, each pair checked once: an
    accuracy outside (0, 100] is a data error that names its model."""
    records = {}
    for model_id, acc in accuracies:
        key = (model_id, SYNTH_DATASET, SYNTH_REGIME, SYNTH_POOL)
        check_truth_record(key, acc)
        records[key] = acc
    return TruthTable(records=records)

