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

    # formed inside the gather: alpha * disp[labels] + x has the bits of
    # x + alpha * disp[labels], since IEEE addition is commutative
    moved = disp[ds.labels]
    moved *= cfg.alpha
    moved += ds.features
    return ds.with_features(moved)


def _timed(fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - start


def _last_reads(modes: Sequence[PerturbMode]) -> dict[str, int]:
    """Each stage that some mode reads -> the index of the last one that
    reads it. A mode reads its base set (`spread` if it spreads, else
    `pca`) and, if it attracts, that set's geometry; the first mode that
    spreads also reads `pca` and `pca geometry`, which it builds from."""
    last = {}
    for i, mode in enumerate(modes):
        if mode is PerturbMode.RAW:
            continue
        base = "spread" if mode.spreads else "pca"
        if mode.spreads and "spread" not in last:
            last["pca"] = last["pca geometry"] = i
        last[base] = i
        if mode.attracts:
            last[f"{base} geometry"] = i
    return last


def _run_stage(stages, last, name, build, *inputs):
    """Run stage `name` as `build` of its input stages' sets, then its
    geometry if a mode reads that. A set's seconds sum the stages it is
    built from."""
    out, seconds = _timed(build, *(stages[stage][0] for stage in inputs))
    stages[name] = out, seconds + sum(stages[stage][1] for stage in inputs)
    if f"{name} geometry" in last:
        stages[f"{name} geometry"] = _timed(class_geometry, out)


def _prepare(cfg, stages):
    """The set of one config that is not raw, from its stages, and its seconds."""
    base = "spread" if cfg.mode.spreads else "pca"
    features, seconds = stages[base]
    if cfg.mode.attracts:
        geom, geom_s = stages[f"{base} geometry"]
        features, attract_s = _timed(attract, features, geom, cfg)
        seconds += geom_s + attract_s
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

    Each stage runs once, when a config first needs it: `pca` and
    `pca geometry` at the first config that is not raw, `spread` and
    `spread geometry` at the first config that spreads. A raw-only run
    fits no PCA. A stage's set is dropped after the last config that
    reads it; `pca` stays until the spread set is built from it. The
    generator drops the set it yielded before it builds the next one.

    Memory per model, beside the caller's `raw` set: the reduced set
    while a later config reads it, the spread set while one does, and
    the set being built with its inputs, so at most one attracted set if
    the caller keeps none; while the PCA stage runs, also `fit_pca`'s one
    float64 copy of `raw`. The CLI streams its pool, so at most `--jobs`
    models hold these at once.
    """
    last = _last_reads([cfg.mode for cfg in configs])
    stages = {}  # stage -> (output, seconds), from its first reader to its last
    for i, cfg in enumerate(configs):
        if cfg.mode is PerturbMode.RAW:
            yield raw, 0.0
            continue
        if "pca" not in stages and i <= last["pca"]:  # the first config not raw
            _run_stage(stages, last, "pca",
                       lambda: fit_pca(raw, energy=energy, rank=rank).reduced)
        if cfg.mode.spreads and "spread" not in stages:
            _run_stage(stages, last, "spread", spread, "pca", "pca geometry")
        prepared = _prepare(cfg, stages)
        for name in [name for name in stages if last[name] == i]:
            del stages[name]
        yield prepared
        del prepared  # before the next config builds its set
