"""PCA reduction applied to raw extractor features before perturbation.

Fitting centers but never whitens: the downstream displacement rules are
scale-sensitive, and whitening would distort the per-class radii they
depend on.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingSet
from .errors import DataError

DEFAULT_ENERGY = 0.8


@dataclass(frozen=True)
class PcaModel:
    """Mean vector, orthonormal component rows, eigenvalue spectrum."""

    mean: np.ndarray  # (D,)
    components: np.ndarray  # (k, D), rows orthonormal
    eigenvalues: np.ndarray  # (k,), non-increasing, >= 0
    energy_retained: float

    def __post_init__(self):
        k, d = self.components.shape
        gram = self.components @ self.components.T
        if not np.allclose(gram, np.eye(k), atol=1e-5):
            raise DataError("component rows are not orthonormal")
        ev = self.eigenvalues
        slack = (ev[0] if ev.size else 0.0) * 1e-9 + 1e-12
        if (np.diff(ev) > slack).any() or (ev < 0).any():
            raise DataError("eigenvalues must be non-increasing and >= 0")
        if not 0.0 < self.energy_retained <= 1.0 + 1e-12:
            raise DataError("energy_retained must lie in (0, 1]")

    @property
    def rank(self) -> int:
        return self.components.shape[0]


def fit_pca(
    ds: EmbeddingSet,
    energy: float | None = None,
    rank: int | None = None,
) -> PcaModel:
    """Fit the top principal directions of the mean-centered features.

    Exactly one of `energy` (cumulative eigenvalue fraction target) or
    `rank` may be given; with neither, energy defaults to 0.8. The rank
    is always capped at min(N-1, D) and at the effective rank of the
    data. Eigenvalues use the population (1/N) convention.
    """
    if energy is not None and rank is not None:
        raise DataError("give either an energy target or a rank, not both")
    if energy is None and rank is None:
        energy = DEFAULT_ENERGY
    if energy is not None and not 0.0 < energy <= 1.0:
        raise DataError(f"energy target must lie in (0, 1], got {energy}")
    if rank is not None and rank < 1:
        raise DataError(f"rank must be >= 1, got {rank}")

    x = np.asarray(ds.features, dtype=np.float64)
    n, d = x.shape
    mean = x.mean(axis=0)
    xc = x - mean
    max_rank = min(n - 1, d)

    # Eigendecompose whichever of covariance / Gram is smaller; same
    # spectrum either way.
    if d <= n:
        cov = (xc.T @ xc) / n
        evals, evecs = np.linalg.eigh(cov)
        evals = evals[::-1][:max_rank]
        comps = evecs[:, ::-1][:, :max_rank].T
    else:
        gram = (xc @ xc.T) / n
        evals, evecs = np.linalg.eigh(gram)
        evals = evals[::-1][:max_rank]
        u = evecs[:, ::-1][:, :max_rank]
        comps = np.zeros((max_rank, d))
        pos = evals > 0
        if pos.any():
            scale = np.sqrt(n * evals[pos])
            comps[pos] = (xc.T @ u[:, pos] / scale).T
    del xc  # before the x * x temporary below

    evals = np.maximum(evals, 0.0)
    total = float(evals.sum())
    scale_ref = float(np.mean(np.sum(x * x, axis=1)))
    if total <= max(scale_ref, 1.0) * 1e-18:
        raise DataError("features carry no variance (all rows identical)")

    # effective rank: directions with numerically zero variance are never
    # meaningful components
    n_eff = int(np.count_nonzero(evals > evals[0] * 1e-12))
    ratios = np.cumsum(evals) / total
    if rank is not None:
        k = min(rank, max_rank, n_eff)
    else:
        k = int(np.searchsorted(ratios, energy - 1e-12, side="left")) + 1
        k = min(k, n_eff)

    comps = comps[:k].copy()
    # fix each component's sign so its largest-magnitude entry is positive
    for row in comps:
        j = int(np.argmax(np.abs(row)))
        if row[j] < 0:
            row *= -1.0
    return PcaModel(
        mean=mean,
        components=comps,
        eigenvalues=evals[:k].copy(),
        energy_retained=min(float(ratios[k - 1]), 1.0),
    )


def transform(model: PcaModel, ds: EmbeddingSet) -> EmbeddingSet:
    """Project onto the component basis; labels are untouched.

    Output features are float64: downstream displacement and rigidity
    contracts are tighter than float32 resolution.
    """
    if ds.feature_dim != model.components.shape[1]:
        raise DataError(
            f"feature dimension {ds.feature_dim} does not match "
            f"model dimension {model.components.shape[1]}"
        )
    x = np.array(ds.features, dtype=np.float64)  # a copy: centered in place
    x -= model.mean
    return ds.with_features(x @ model.components.T)
