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
from enum import Enum

import numpy as np

from .embeddings import EmbeddingSet
from .errors import DataError
from .reduction import fit_pca, transform

log = logging.getLogger(__name__)

_DEGENERATE_NORM = 1e-12


class PerturbMode(str, Enum):
    RAW = "raw"
    NONE = "none"
    SPREAD = "spread"
    ATTRACT = "attract"
    SA = "sa"

    @property
    def perturbed(self) -> bool:
        """The one baseline rule: raw (the input features) and none (their
        PCA reduction) move no feature; every other mode does."""
        return self not in (PerturbMode.RAW, PerturbMode.NONE)


_SPREADING = frozenset({PerturbMode.SPREAD, PerturbMode.SA})


class AttractDirection(str, Enum):
    # TOWARD moves a class toward its neighbours whenever their centroid
    # gap exceeds the equilibrium separation (and away when they overlap),
    # shrinking inter-class margins. LITERAL keeps the opposite sign
    # convention for strict textual fidelity with the printed update rule.
    TOWARD = "toward"
    LITERAL = "literal"


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
    x = np.asarray(ds.features, dtype=np.float64)
    cents = np.empty((ds.class_count, x.shape[1]))
    radii = np.empty(ds.class_count)
    for c in range(ds.class_count):
        pts = x[ds.labels == c]
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


def _shared_stages(raw: EmbeddingSet, modes: set[PerturbMode],
                   energy: float | None, rank: int | None) -> tuple[dict, dict]:
    """Run and time once each stage that `modes` (none of them raw) share.
    Returns the base sets and the class geometries of the base sets a mode
    attracts with, as `(value, seconds)` pairs keyed by whether the mode
    spreads."""
    reduced, reduce_s = _timed(
        lambda: transform(fit_pca(raw, energy=energy, rank=rank), raw)
    )
    bases = {False: (reduced, reduce_s)}
    geometries = {}
    if any(mode.perturbed for mode in modes):
        geometries[False] = _timed(class_geometry, reduced)
    if modes & _SPREADING:
        geom, geom_s = geometries[False]
        spread_set, spread_s = _timed(spread, reduced, geom)
        bases[True] = (spread_set, reduce_s + geom_s + spread_s)
    if PerturbMode.SA in modes:
        geometries[True] = _timed(class_geometry, bases[True][0])
    return bases, geometries


def sa_perturb(
    raw: EmbeddingSet,
    configs: Sequence[PerturbConfig],
    energy: float | None = None,
    rank: int | None = None,
) -> Iterator[tuple[EmbeddingSet, float]]:
    """The one preprocessing chain: PCA, then spread, then attract.

    Yields a `(set, seconds)` pair per config, in order and lazily, so
    one attracted copy is alive at a time. mode=raw yields `raw` itself
    with 0 seconds; mode=none yields the reduced set; mode=sa attracts
    with the geometry of the spread set. Stages the configs share run
    once, when the first config that is not raw is reached: PCA fit and
    transform, spread, and the class geometry of each base set. A
    raw-only run fits no PCA. `seconds` sums the stages the set depends
    on, each timed once.

    Memory per model: the caller's `raw` set, the reduced set, the spread
    set when a config spreads, and one attracted copy. The CLI streams
    its pool, so at most `--jobs` models hold these at once.
    """
    modes = {cfg.mode for cfg in configs} - {PerturbMode.RAW}
    shared = None
    for cfg in configs:
        if cfg.mode is PerturbMode.RAW:
            yield raw, 0.0
            continue
        if shared is None:
            shared = _shared_stages(raw, modes, energy, rank)
        bases, geometries = shared
        spreads = cfg.mode in _SPREADING
        base, seconds = bases[spreads]
        if cfg.mode in (PerturbMode.ATTRACT, PerturbMode.SA):
            geom, geom_s = geometries[spreads]
            base, attract_s = _timed(attract, base, geom, cfg)
            seconds += geom_s + attract_s
        yield base, seconds
