"""Spread and attract feature perturbations in the PCA-reduced space.

Spread pushes every sample one unit away from its class centroid,
inflating intra-class variance. Attract then translates each class as a
rigid body according to how far its centroid gaps to the other classes
sit from the equilibrium separation sigma * (R_u + R_v).
"""
from __future__ import annotations

import logging
import time
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingSet
from .errors import DataError
from .reduction import fit_pca
from .vocabulary import AttractDirection, PerturbMode

log = logging.getLogger(__name__)

_DEGENERATE_NORM = 1e-12


@dataclass(frozen=True)
class PerturbConfig:
    alpha: float = 0.005
    sigma: float = 0.6
    mode: PerturbMode = PerturbMode.SA
    attract_direction: AttractDirection = AttractDirection.TOWARD

    def __post_init__(self):
        if self.alpha < 0:
            raise DataError(f"alpha must be >= 0, got {self.alpha}")
        if self.sigma < 0:
            raise DataError(f"sigma must be >= 0, got {self.sigma}")
        object.__setattr__(self, "mode", PerturbMode(self.mode))
        object.__setattr__(
            self, "attract_direction", AttractDirection(self.attract_direction)
        )


@dataclass(frozen=True)
class ClassGeometry:
    """Per-class centroids and RMS radii, snapshotted before any move."""

    centroids: np.ndarray  # (C, k)
    radii: np.ndarray  # (C,)


def class_radius(points: np.ndarray, centroid: np.ndarray) -> float:
    """Root-mean-square distance to the centroid.

    Equals the Euclidean norm of the per-dimension population standard
    deviations when the centroid is the mean of the points.
    """
    points = np.asarray(points, dtype=np.float64)
    diff = points - np.asarray(centroid, dtype=np.float64)
    return float(np.sqrt(np.mean(np.sum(diff * diff, axis=1))))


def class_geometry(ds: EmbeddingSet) -> ClassGeometry:
    """Each class's centroid and RMS radius over its `ds.class_rows`."""
    x = np.asarray(ds.features, dtype=np.float64)
    cents = np.empty((ds.class_count, x.shape[1]))
    radii = np.empty(ds.class_count)
    for c, pts in enumerate(ds.class_rows(x)):
        cents[c] = pts.mean(axis=0)
        radii[c] = class_radius(pts, cents[c])
    return ClassGeometry(centroids=cents, radii=radii)


def spread(ds: EmbeddingSet, geometry: ClassGeometry) -> EmbeddingSet:
    """Displace every sample one unit along its ray from the class
    centroid in `geometry`. Samples sitting on their centroid have no
    defined ray and are left unchanged."""
    x = np.asarray(ds.features, dtype=np.float64)
    if geometry.centroids.shape[0] != ds.class_count:
        raise DataError("geometry does not match the embedding set")
    diff = x - geometry.centroids[ds.labels]
    norms = np.linalg.norm(diff, axis=1)
    moved = norms > _DEGENERATE_NORM
    # formed inside diff; the unmoved rows then get their exact bits back
    np.divide(diff, norms[:, None], out=diff, where=moved[:, None])
    diff += x
    diff[~moved] = x[~moved]
    return ds.with_features(diff)


def attract(
    ds: EmbeddingSet, geometry: ClassGeometry, cfg: PerturbConfig
) -> EmbeddingSet:
    """Translate each class rigidly by alpha times its net displacement.

    The displacement of class u sums, over every other class v, the unit
    centroid direction scaled by (‖C_u - C_v‖ - sigma*(R_u + R_v)).
    Pairs with coincident centroids contribute nothing (warned, not an
    error). Centroids and radii come from the snapshot in `geometry`, so
    no class sees another's updated position.
    """
    cents = geometry.centroids
    radii = geometry.radii
    c = cents.shape[0]
    if c != ds.class_count:
        raise DataError("geometry does not match the embedding set")

    diffs = cents[:, None, :] - cents[None, :, :]  # (u, v) -> C_u - C_v
    dist = np.linalg.norm(diffs, axis=2)
    off_diag = ~np.eye(c, dtype=bool)
    usable = off_diag & (dist > _DEGENERATE_NORM)

    coincident = np.argwhere(off_diag & ~usable)
    for u, v in coincident:
        if u < v:
            log.warning(
                "classes %d and %d have coincident centroids; pair skipped", u, v
            )

    gap = dist - cfg.sigma * (radii[:, None] + radii[None, :])
    safe_dist = np.where(usable, dist, 1.0)
    units = diffs / safe_dist[:, :, None]
    if cfg.attract_direction is AttractDirection.TOWARD:
        units = -units
    weights = np.where(usable, gap, 0.0)
    disp = np.einsum("uvk,uv->uk", units, weights)

    x = np.asarray(ds.features, dtype=np.float64)
    return ds.with_features(x + cfg.alpha * disp[ds.labels])


def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def sa_perturb(
    raw: EmbeddingSet,
    configs: Sequence[PerturbConfig],
    energy: float | None = None,
    rank: int | None = None,
) -> Iterator[tuple[EmbeddingSet, float]]:
    """The one preprocessing chain: PCA, then spread, then attract.

    Yields a `(set, seconds)` pair per config, in order and lazily, so
    one attracted copy is alive at a time. mode=raw yields `raw` itself
    with 0 seconds; any other mode takes the spread set if it spreads,
    else the reduced set, and attracts it with its class geometry if it
    attracts. Each stage that some config needs runs once, in pipeline
    order, when the first config that is not raw is reached. A raw-only
    run fits no PCA. `seconds` sums the stages the set depends on, each
    timed once.

    Memory per model: the caller's `raw` set, the reduced set, the spread
    set when a config spreads, and one attracted copy; while the PCA
    stage runs, also `fit_pca`'s one float64 copy of `raw`. The CLI
    streams its pool, so at most `--jobs` models hold these at once.
    """
    stages = {}  # stage -> (output, seconds); a set's seconds sum the stages to it
    for cfg in configs:
        if cfg.mode is PerturbMode.RAW:
            yield raw, 0.0
            continue
        if not stages:
            reduced, reduce_s = stages["pca"] = _timed(
                lambda: fit_pca(raw, energy=energy, rank=rank).reduced)
            if any(c.mode.perturbed for c in configs):
                geom, geom_s = stages["pca geometry"] = _timed(class_geometry, reduced)
            if any(c.mode.spreads for c in configs):
                spread_set, spread_s = _timed(spread, reduced, geom)
                stages["spread"] = (spread_set, reduce_s + geom_s + spread_s)
            if any(c.mode.spreads and c.mode.attracts for c in configs):
                stages["spread geometry"] = _timed(class_geometry, spread_set)
        base = "spread" if cfg.mode.spreads else "pca"
        features, seconds = stages[base]
        if cfg.mode.attracts:
            geom, geom_s = stages[f"{base} geometry"]
            features, attract_s = _timed(attract, features, geom, cfg)
            seconds += geom_s + attract_s
        yield features, seconds
