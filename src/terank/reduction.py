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
    """Orthonormal component rows, the share of the spectrum they keep,
    and the fitted set itself projected onto them."""

    components: np.ndarray  # (k, D), rows orthonormal
    energy_retained: float  # in (0, 1]
    reduced: EmbeddingSet  # (N, k) float64 features, the fit's labels

    @property
    def rank(self) -> int:
        return self.components.shape[0]


def _positive_peaks(rows: np.ndarray) -> np.ndarray:
    """Negate in place each row whose first largest-magnitude entry is < 0."""
    peak = rows[np.arange(rows.shape[0]), np.argmax(np.abs(rows), axis=1)]
    rows[peak < 0] *= -1.0
    return rows


def fit_pca(
    ds: EmbeddingSet,
    energy: float | None = None,
    rank: int | None = None,
) -> PcaModel:
    """Fit the top principal directions of the mean-centered features,
    and project `ds` onto them as `reduced`.

    Exactly one of `energy` (cumulative eigenvalue fraction target) or
    `rank` may be given; with neither, energy defaults to 0.8. The rank
    is always capped at min(N-1, D) and at the effective rank of the
    data. Eigenvalues use the population (1/N) convention. `reduced` is
    one float64 copy of the features, centered in place and projected:
    downstream displacement and rigidity contracts are tighter than
    float32 resolution. DataError marks a spectrum summing to at most
    1e-18 of max(1, tr(cov) + |mean|^2), the mean squared row norm.
    """
    if energy is not None and rank is not None:
        raise DataError("give either an energy target or a rank, not both")
    if energy is None and rank is None:
        energy = DEFAULT_ENERGY
    if energy is not None and not 0.0 < energy <= 1.0:
        raise DataError(f"energy target must lie in (0, 1], got {energy}")
    if rank is not None and rank < 1:
        raise DataError(f"rank must be >= 1, got {rank}")

    x = np.array(ds.features, dtype=np.float64)  # a copy: centered in place
    n, d = x.shape
    mean = x.mean(axis=0)
    x -= mean
    max_rank = min(n - 1, d)

    # Eigendecompose whichever of covariance / Gram is smaller; same
    # spectrum, so the same trace, either way.
    m = (x.T @ x) / n if d <= n else (x @ x.T) / n
    scale_ref = float(np.trace(m) + mean @ mean)
    evals, evecs = np.linalg.eigh(m)
    del m
    evals = evals[::-1][:max_rank]
    evecs = evecs[:, ::-1][:, :max_rank]
    if d <= n:
        comps = evecs.T
    else:
        comps = np.zeros((max_rank, d))
        pos = evals > 0
        if pos.any():
            scale = np.sqrt(n * evals[pos])
            comps[pos] = (x.T @ evecs[:, pos] / scale).T
    del evecs  # the full basis goes with `comps` once the kept rows are copied

    evals = np.maximum(evals, 0.0)
    total = float(evals.sum())
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

    comps = _positive_peaks(comps[:k].copy())
    return PcaModel(
        components=comps,
        energy_retained=min(float(ratios[k - 1]), 1.0),
        reduced=ds.with_features(x @ comps.T),
    )
