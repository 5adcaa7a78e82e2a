"""Spread and attract feature perturbations in the PCA-reduced space.

Spread pushes every sample one unit away from its class centroid,
inflating intra-class variance. Attract then translates each class as a
rigid body according to how far its centroid gaps to the other classes
sit from the equilibrium separation sigma * (R_u + R_v).
"""
from __future__ import annotations

import logging
import math
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
        for name in ("alpha", "sigma"):
            value = getattr(self, name)
            # NaN fails the bound, and infinity would end in a numeric failure
            if not 0 <= value < math.inf:
                raise DataError(f"{name} must be >= 0 and finite, got {value}")
        object.__setattr__(self, "mode", PerturbMode(self.mode))
        object.__setattr__(
            self, "attract_direction", AttractDirection(self.attract_direction)
        )


@dataclass(frozen=True)
class ClassGeometry:
    """Per-class centroids and RMS radii, snapshotted before any move."""

    centroids: np.ndarray  # (C, k)
    radii: np.ndarray  # (C,)


def class_geometry(ds: EmbeddingSet) -> ClassGeometry:
    """Each class's centroid and RMS radius over its `ds.class_rows`: the
    root-mean-square distance to the centroid, which equals the Euclidean
    norm of the per-dimension population standard deviations."""
    x = np.asarray(ds.features, dtype=np.float64)
    cents = np.empty((ds.class_count, x.shape[1]))
    radii = np.empty(ds.class_count)
    for c, pts in enumerate(ds.class_rows(x)):
        cents[c] = pts.mean(axis=0)
        diff = pts - cents[c]
        radii[c] = np.sqrt(np.mean(np.sum(diff * diff, axis=1)))
    return ClassGeometry(centroids=cents, radii=radii)


def spread(ds: EmbeddingSet, geometry: ClassGeometry) -> EmbeddingSet:
    """Displace every sample one unit along its ray from the class centroid
    in `geometry`, which must be `class_geometry(ds)`, as `sa_perturb`
    guarantees. A sample on its centroid has no ray and is left unchanged."""
    x = np.asarray(ds.features, dtype=np.float64)
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
    error). `geometry` must be `class_geometry(ds)`, as `sa_perturb`
    guarantees: a snapshot, so no class sees another's updated position.
    """
    cents = geometry.centroids
    radii = geometry.radii
    c = cents.shape[0]

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

    # formed inside the gather: alpha * disp[labels] + x has the bits of
    # x + alpha * disp[labels], since IEEE addition is commutative
    moved = disp[ds.labels]
    moved *= cfg.alpha
    moved += ds.features
    return ds.with_features(moved)


def _timed(fn, *args):
    start = time.perf_counter()
    return fn(*args), time.perf_counter() - start


def _last_reads(modes: Sequence[PerturbMode]) -> dict[str, int]:
    """Each base set that some mode reads (`spread` if it spreads, else
    `pca`) -> the index of the last mode that reads it; the first mode
    that spreads also reads `pca`, which it builds from."""
    last = {}
    for i, mode in enumerate(modes):
        if mode is not PerturbMode.RAW:
            if mode.spreads and "spread" not in last:
                last["pca"] = i
            last["spread" if mode.spreads else "pca"] = i
    return last


def _stage(with_geometry, build, *base):
    """A base set's stage, `(set, seconds, geometry, geometry seconds)`:
    `build(set, geometry)` of the `base` stage, or `build()` without one,
    with the base's seconds added, and its class geometry if asked for."""
    out, seconds = _timed(build, *base[::2])
    geometry, geometry_s = _timed(class_geometry, out) if with_geometry else (None, 0.0)
    return out, seconds + sum(base[1::2]), geometry, geometry_s


def _prepare(cfg, features, seconds, geometry, geometry_s):
    """The set of one config that is not raw, from its base stage, and its seconds."""
    if cfg.mode.attracts:
        features, attract_s = _timed(attract, features, geometry, cfg)
        seconds += geometry_s + attract_s
    return features, seconds


def sa_perturb(
    raw: EmbeddingSet,
    configs: Sequence[PerturbConfig],
    energy: float | None = None,
    rank: int | None = None,
) -> Iterator[tuple[EmbeddingSet, float]]:
    """The one preprocessing chain: PCA, then spread, then attract.

    Yields a `(set, seconds)` pair per config, in order and lazily.
    mode=raw yields `raw` itself with 0 seconds; any other mode takes the
    spread set if it spreads, else the reduced set, and attracts it with
    its class geometry if it attracts. `seconds` sums the stages the set
    depends on, each timed once.

    Two stages, `pca` and `spread`, each hold a set with its class
    geometry, if a config reads that, so `spread` and `attract` only get
    the geometry of the set they move. Each runs once, when a config
    first needs it: `pca` at the first config that is not raw, `spread`
    at the first that spreads. A raw-only run fits no PCA. A stage is
    dropped after the last config that reads it; `pca` stays until the
    spread set is built from it. The generator drops the set it yielded
    before it builds the next one.

    Memory per model, beside the caller's `raw` set: the reduced set
    while a later config reads it, the spread set while one does, and
    the set being built with its inputs, so at most one attracted set if
    the caller keeps none; while the PCA stage runs, also `fit_pca`'s one
    float64 copy of `raw`. The CLI streams its pool, so at most `--jobs`
    models hold these at once.
    """
    modes = [cfg.mode for cfg in configs]
    last = _last_reads(modes)
    stages = {}  # base -> its stage, from its first reader to its last
    for i, cfg in enumerate(configs):
        if cfg.mode is PerturbMode.RAW:
            yield raw, 0.0
            continue
        if "pca" not in stages and i <= last["pca"]:  # the first config not raw
            stages["pca"] = _stage(  # its geometry feeds spread and attract
                any(m.perturbed for m in modes),
                lambda: fit_pca(raw, energy=energy, rank=rank).reduced)
        if cfg.mode.spreads and "spread" not in stages:
            stages["spread"] = _stage(any(m.spreads and m.attracts for m in modes),
                                      spread, *stages["pca"])
        prepared = _prepare(cfg, *stages["spread" if cfg.mode.spreads else "pca"])
        for name in [name for name in stages if last[name] == i]:
            del stages[name]
        yield prepared
        del prepared  # before the next config builds its set
