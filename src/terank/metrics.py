"""Transferability metrics: logme, gbc, nleep, lda.

Every metric consumes (features, labels) and returns one scalar; higher
means the features fit the labels better. In the scoring pipeline the
input is a model's own features (mode raw) or their PCA reduction,
perturbed or not.
"""
from __future__ import annotations

import logging
import math
import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .embeddings import EmbeddingSet
from .errors import DataError, NumericError
from .evaluation import ScoreRecord
from .perturbation import PerturbConfig, sa_perturb
from .rng import SplitMix64
from .vocabulary import MetricId

log = logging.getLogger(__name__)

_VAR_FLOOR = 1e-6
_EMPTY_MASS = 1e-12  # a mixture component of at most this mass is empty
_LOG_2PI = math.log(2.0 * math.pi)
_EM_MAX_ITER = 200
_EM_TOL = 1e-4
_LOGME_MAX_ITER = 100
_LOGME_TOL = 1e-3


# ---------------------------------------------------------------------------
# logme: maximized Bayesian evidence of a linear model from features to
# one-vs-rest targets

def _evidence_basis(features: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, int]:
    """The left singular vectors and squared singular values of the
    feature matrix, and its shape: all the fixed point needs of it. An
    SVD that fails, as on features that are not finite, is a
    NumericError."""
    f = np.asarray(features, dtype=np.float64)
    try:
        u, s, _ = np.linalg.svd(f, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"logme: {exc}") from None
    return u, s**2, *f.shape


def _evidence_fixed_point(
    s2: np.ndarray, z: np.ndarray, ysq: float, n: int, k: int
) -> tuple[float, list[float]]:
    """Maximize the log evidence of y = Fw + noise over the precisions,
    given F's squared singular values `s2`, z = U'y, ||y||^2 and F's shape.

    Isotropic Gaussian prior precision `a` and noise precision `b`, both
    initialized at 1, are iterated with the classic fixed point

        g = sum_i b s_i^2 / (a + b s_i^2)
        a <- g / ||m||^2,   b <- (N - g) / ||Fm - y||^2

    until the relative change of both precisions drops below 1e-3. It
    stops early, with a logged warning, after 100 updates or at an update
    that is not finite. Returns the final log evidence and its
    per-iteration trace, which is non-decreasing.
    """
    zsq = z**2
    s2_zsq = s2 * zsq
    resid_base = max(ysq - float(zsq.sum()), 0.0)
    m = s2.shape[0]

    def state(a: float, b: float) -> tuple[float, float, float, float]:
        denom = a + b * s2
        gamma = float(b * np.add.reduce(s2 / denom))
        msq = float(b * b * np.add.reduce(s2_zsq / denom**2))
        res = float(np.add.reduce((a / denom) ** 2 * zsq)) + resid_base
        log_a = math.log(a)
        ev = 0.5 * (
            k * log_a
            + n * math.log(b)
            - float(np.add.reduce(np.log(denom)))
            - (k - m) * log_a
            - b * res
            - a * msq
            - n * _LOG_2PI
        )
        return ev, gamma, msq, res

    a = b = 1.0
    trace: list[float] = []
    for _ in range(_LOGME_MAX_ITER):
        ev, gamma, msq, res = state(a, b)
        trace.append(ev)
        # a NaN state fails both guards, so its updates are NaN and stop
        # below; features that fit y exactly (N <= k) drive b up until
        # N - g rounds to 0, so its update is not positive
        a_new = a if msq <= 1e-300 else gamma / msq
        b_new = b if res <= 1e-300 else (n - gamma) / res
        why = ("not finite" if not (math.isfinite(a_new) and math.isfinite(b_new))
               else "not positive" if min(a_new, b_new) <= 0 else None)
        if why:
            log.warning(
                "logme fixed point stopped at update %d: the new precisions "
                "are %s", len(trace), why,
            )
            break
        rel = max(abs(a_new - a) / a, abs(b_new - b) / b)
        a, b = a_new, b_new
        if rel < _LOGME_TOL:
            break
    else:
        log.warning(
            "logme fixed point stopped at its %d-iteration cap without "
            "reaching the %g relative tolerance", _LOGME_MAX_ITER, _LOGME_TOL,
        )
    ev, _, _, _ = state(a, b)
    trace.append(ev)
    return ev, trace


def score_logme(ds: EmbeddingSet) -> float:
    """Mean over classes of the maximized one-vs-rest log evidence per
    sample. The SVD of the feature matrix is shared across classes."""
    u, s2, n, k = _evidence_basis(ds.features)
    total = 0.0
    for c in range(ds.class_count):
        y = (ds.labels == c).astype(np.float64)
        ev, _ = _evidence_fixed_point(s2, u.T @ y, float(y @ y), n, k)
        total += ev / n
    return total / ds.class_count


# ---------------------------------------------------------------------------
# gbc: negative sum of pairwise Bhattacharyya coefficients between
# class-conditional diagonal Gaussians

def score_gbc(ds: EmbeddingSet) -> float:
    """- sum over class pairs of exp(-Bhattacharyya distance).

    Per-class Gaussians on `ds.class_rows` are diagonal, variances floored
    at 1e-6. 0 means no overlap anywhere; -C(C-1)/2 means total overlap.
    """
    if ds.class_counts.min() < 2:
        raise DataError(f"class {ds.class_counts.argmin()} has a single sample; "
                        "gbc needs per-class variance")
    x = np.asarray(ds.features, dtype=np.float64)
    c = ds.class_count
    means = np.empty((c, x.shape[1]))
    variances = np.empty((c, x.shape[1]))
    for u_cls, pts in enumerate(ds.class_rows(x)):
        means[u_cls] = pts.mean(axis=0)
        variances[u_cls] = np.maximum(pts.var(axis=0), _VAR_FLOOR)

    mdiff2 = (means[:, None, :] - means[None, :, :]) ** 2
    vbar = (variances[:, None, :] + variances[None, :, :]) / 2.0
    term_mean = 0.125 * np.sum(mdiff2 / vbar, axis=2)
    term_var = 0.5 * np.sum(
        np.log(vbar / np.sqrt(variances[:, None, :] * variances[None, :, :])), axis=2
    )
    d_b = term_mean + term_var
    iu = np.triu_indices(c, k=1)
    return float(-np.sum(np.exp(-d_b[iu])))


# ---------------------------------------------------------------------------
# gmm + nleep

@dataclass(frozen=True)
class GmmModel:
    """Diagonal-covariance Gaussian mixture fit by EM."""

    weights: np.ndarray  # (K,), sums to 1
    means: np.ndarray  # (K, k)
    variances: np.ndarray  # (K, k), floored
    responsibilities: np.ndarray  # (N, K), input row order
    log_likelihood_trace: tuple[float, ...]


def _log_joint(xs, xsq, means, variances, weights, out, scratch):
    """log N(x | mu_j, diag(var_j)) + log w_j into `out`, (K, N) C-order,
    for C-order samples `xs` and `xsq = xs * xs`, with a second (K, N)
    buffer as scratch. The products `inv @ xsq.T` and `(means * inv) @
    xs.T` run on transposed views, the elementwise steps in place in the
    row-major formula's order. They give that formula's bits at the zoo's
    and the golden fits' shapes; elsewhere the BLAS may pick another
    kernel, and tests/test_metrics_gmm.py holds them to 1e-13*max(1, |v|)."""
    inv = 1.0 / variances
    np.matmul(inv, xsq.T, out=out)
    np.matmul(means * inv, xs.T, out=scratch)
    scratch *= 2.0
    out -= scratch
    out += np.sum(means * means * inv, axis=1)[:, None]
    out += (xs.shape[1] * _LOG_2PI + np.sum(np.log(variances), axis=1))[:, None]
    out *= -0.5
    out += np.log(weights)[:, None]
    return out


def _logsumexp_components(a, shifted, rows):
    """log(sum(exp(a), axis=0)) of a (K, N) C-order array, bit-identical
    to scipy.special.logsumexp(a.T, axis=1): the same operations in the
    same order, without its array-API dispatch. The maxima are summed
    apart from the rest, and a column whose result is not finite falls
    back to the direct formula. The shifted exp goes into `shifted` and is
    summed on its (N, K) C-order copy in `rows`, as numpy sums rows."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max(axis=0)
        is_max = a == a_max
        m = is_max.sum(axis=0, dtype=np.float64)
        np.copyto(shifted, a)
        np.copyto(shifted, -np.inf, where=is_max)
        shifted -= a_max
        np.exp(shifted, out=shifted)
        np.copyto(rows, shifted.T)
        s = rows.sum(axis=1)
        s = np.where(s == 0, s, s / m)
        out = np.log1p(s) + np.log(m) + a_max
        bad = ~np.isfinite(out)
        if bad.any():
            out[bad] = np.log(np.exp(a[:, bad]).sum(axis=0))
    return out


def _canonical_order(x: np.ndarray) -> np.ndarray:
    """Row permutation equal to np.lexsort(x.T[::-1]): rows sorted by
    column 0, ties broken by the later columns in turn. A stable sort of
    column 0 alone gives that order when the sorted column is strictly
    increasing; ties, signed zeros and NaN take the full lexsort."""
    if x.shape[1] > 0:
        order = np.argsort(x[:, 0], kind="stable")
        first = x[order, 0]
        if np.all(first[1:] > first[:-1]):
            return order
    return np.lexsort(x.T[::-1])


def _kmeanspp_centers(
    xs: np.ndarray, k: int, rng: SplitMix64, scratch: np.ndarray
) -> np.ndarray:
    # classic D^2-weighted seeding; xs must already be in canonical order,
    # and scratch, an array of its shape, holds the squared differences
    n = xs.shape[0]
    centers = np.empty((k, xs.shape[1]))
    d2 = np.full(n, np.inf)
    total = 0.0  # the first center is drawn uniformly
    for j in range(k):
        if total <= 0.0:
            idx = int(rng.uniform() * n)
        else:
            r = rng.uniform() * total
            idx = min(int(np.searchsorted(np.cumsum(d2), r, side="right")), n - 1)
        centers[j] = xs[idx]
        if j + 1 < k:  # the last center's distances are never read
            np.subtract(xs, centers[j], out=scratch)
            np.multiply(scratch, scratch, out=scratch)
            np.minimum(d2, np.add.reduce(scratch, axis=1), out=d2)
            total = float(d2.sum())
    return centers


def fit_gmm(features: np.ndarray, components: int, seed: int) -> GmmModel:
    """EM with diagonal covariances, variance floor 1e-6, and D^2-weighted
    seeding driven by the SplitMix64 stream for `seed`.

    Stops when the relative log-likelihood change falls below 1e-4, or
    after 200 iterations with a logged warning; the likelihood trace is
    non-decreasing. An E-step whose log-likelihood is not finite (the
    features overflowed) raises NumericError. The same seed yields
    bit-identical parameters, and the fit does not depend on the row
    order of `features`: seeding and accumulation both run over a
    canonical (lexicographically sorted) view of the data. That row order
    and the numpy-side reductions (`_canonical_order`,
    `_logsumexp_components`, the column sums) are pinned.

    Each step's arrays are (K, N) C-order buffers allocated once per fit.
    Its matrix products take their bits from the kernel the BLAS picks for
    their shapes and thread count (`_log_joint` says which bits its two
    keep): the M-step's `resp @ xs` differs between one and two OpenBLAS
    threads. ROADMAP items 1-3 set the tolerance a faster kernel must meet.
    """
    x = np.asarray(features, dtype=np.float64)
    n = x.shape[0]
    if components < 1:
        raise DataError(f"component count must be >= 1, got {components}")
    if components > n:
        raise DataError(f"cannot fit {components} components to {n} samples")

    order = _canonical_order(x)
    xs = x[order]
    variances = np.tile(np.maximum(xs.var(axis=0), _VAR_FLOOR), (components, 1))
    xsq = np.empty_like(xs)  # the seeding's scratch, then xs * xs
    means = _kmeanspp_centers(xs, components, SplitMix64(seed), xsq)
    np.multiply(xs, xs, out=xsq)
    weights = np.full(components, 1.0 / components)

    resp = np.empty((components, n))  # log-joint, then posteriors
    shifted = np.empty_like(resp)
    rows = np.empty((n, components))  # posteriors, sample-major
    trace: list[float] = []
    for _ in range(_EM_MAX_ITER):
        # E-step
        _log_joint(xs, xsq, means, variances, weights, resp, shifted)
        log_norm = _logsumexp_components(resp, shifted, rows)
        resp -= log_norm
        np.exp(resp, out=resp)
        np.copyto(rows, resp.T)
        ll = float(log_norm.sum())
        if not math.isfinite(ll):
            raise NumericError(
                f"gmm log-likelihood is not finite ({ll}) at EM step {len(trace) + 1}"
            )
        if trace and abs(ll - trace[-1]) / max(abs(trace[-1]), 1e-12) < _EM_TOL:
            trace.append(ll)
            break
        trace.append(ll)
        if len(trace) == _EM_MAX_ITER:
            # stop before the M-step: the parameters are the posteriors'
            log.warning(
                "gmm EM stopped at its %d-iteration cap without reaching the "
                "%g relative tolerance", _EM_MAX_ITER, _EM_TOL,
            )
            break
        # M-step; components that lost all responsibility keep their
        # previous parameters
        nk = rows.sum(axis=0)
        alive = nk > _EMPTY_MASS
        weights = nk / n
        live = resp if alive.all() else resp[alive]
        means[alive] = (live @ xs) / nk[alive, None]
        ex2 = (live @ xsq) / nk[alive, None]
        variances[alive] = np.maximum(ex2 - means[alive] ** 2, _VAR_FLOOR)

    del xsq, shifted  # free the fit's buffers before the output's
    resp_out = np.empty_like(rows)
    resp_out[order] = rows
    return GmmModel(
        weights=weights,
        means=means,
        variances=variances,
        responsibilities=resp_out,
        log_likelihood_trace=tuple(trace),
    )


def nleep_from_responsibilities(resp: np.ndarray, labels: np.ndarray) -> float:
    """Mean log expected empirical prediction of `labels` given mixture posteriors.

    Components with total responsibility of at most 1e-12 (empty to EM
    too) are dropped (logged) before P(y | component) is formed. The
    mean, not each sample's term, is capped at 0 against rounding.
    """
    col_total = resp.sum(axis=0)
    keep = col_total > _EMPTY_MASS
    if not keep.all():
        log.info("dropping %d empty mixture components", int((~keep).sum()))
        resp = resp[:, keep]
        col_total = col_total[keep]
    onehot = np.zeros((labels.max() + 1, resp.shape[0]))
    onehot[labels, np.arange(resp.shape[0])] = 1.0
    cond = (onehot @ resp) / col_total  # P(y | v), shape (C, K')
    per_sample = np.einsum("nk,nk->n", cond[labels], resp)
    return min(float(np.mean(np.log(np.maximum(per_sample, 1e-300)))), 0.0)


def score_nleep(
    ds: EmbeddingSet, components: int | None = None, seed: int = 0
) -> float:
    """Fit a GMM (component count defaults to the class count) and return
    the soft LEEP-style score. Always <= 0."""
    k = components if components is not None else ds.class_count
    gmm = fit_gmm(ds.features, k, seed)
    return nleep_from_responsibilities(gmm.responsibilities, ds.labels)


# ---------------------------------------------------------------------------
# lda: mean softmax probability of the true class under discriminant
# scores in the regularized discriminant projection

def score_lda(ds: EmbeddingSet, eps_scale: float = 1e-4) -> float:
    """Mean softmax probability of each sample's true class.

    Discriminant directions solve the generalized eigenproblem
    S_b v = lambda (S_w + eps I) v of the between-class scatter against
    the ridged within-class scatter, with numpy alone. The ridge eps is
    `eps_scale` times the mean diagonal of S_w, so it survives feature
    rescaling, and the top min(C-1, k) pairs are kept. With the Cholesky
    factor L L' = S_w + eps I and S_b = B B' (B is k x C, one column per
    class offset scaled by sqrt(count)), A = L^-1 B turns it into the
    C x C symmetric problem A'A w = lambda w. Each kept pair maps back to
    v = L'^-1 A w / sqrt(lambda), which satisfies v' (S_w + eps I) v = 1.
    Pairs with lambda <= lambda_max * C * machine eps are null directions
    of S_b: they shift every class score alike, so they are dropped.
    Class means and S_w are taken over `ds.class_rows`. A sample f scores
    f' U U' mu_c - mu_c' U U' mu_c / 2 + log prior for class c. Always
    in [0, 1]; a scatter that overflowed raises NumericError.
    """
    if not eps_scale > 0:
        raise DataError(f"eps_scale must be > 0, got {eps_scale}")
    if ds.class_counts.min() < 2:
        raise DataError(f"class {ds.class_counts.argmin()} has a single sample; "
                        "lda needs per-class scatter")
    x = np.asarray(ds.features, dtype=np.float64)
    n, k = x.shape
    c = ds.class_count

    grand_mean = x.mean(axis=0)
    means = np.empty((c, k))
    scatter_within = np.zeros((k, k))
    for cls, pts in enumerate(ds.class_rows(x)):
        means[cls] = pts.mean(axis=0)
        centered = pts - means[cls]
        scatter_within += centered.T @ centered
    offset = means - grand_mean
    between_root = offset.T * np.sqrt(ds.class_counts)  # S_b = B B'

    eps = eps_scale * float(np.trace(scatter_within)) / k
    if eps <= 0.0:
        eps = eps_scale
    if not (math.isfinite(eps) and np.isfinite(scatter_within).all()
            and np.isfinite(between_root).all()):
        raise NumericError("lda: class scatter is not finite")
    rank = min(c - 1, k)
    try:
        chol = np.linalg.cholesky(scatter_within + eps * np.eye(k))
        whitened = np.linalg.solve(chol, between_root)  # A = L^-1 B, (k, C)
        vals, vecs = np.linalg.eigh(whitened.T @ whitened)
        # top eigenpairs, largest first; scaled so the projected
        # within-class covariance is the identity (the discriminant
        # assumes unit-variance classes), which also sends U -> 0 as the
        # ridge grows
        vals, vecs = vals[::-1][:rank], vecs[:, ::-1][:, :rank]
        keep = vals > max(float(vals[0]), 0.0) * c * np.finfo(np.float64).eps
        vals, vecs = vals[keep], vecs[:, keep]
        u = np.linalg.solve(chol.T, whitened @ vecs / np.sqrt(vals)) * math.sqrt(n)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"lda: {exc}") from None

    proj_means = means @ (u @ u.T)  # (C, k)
    delta = x @ proj_means.T  # f' U U' mu_c
    delta += -0.5 * np.einsum("ck,ck->c", means, proj_means) + np.log(ds.class_counts / n)
    delta -= delta.max(axis=1, keepdims=True)
    probs = np.exp(delta)
    probs /= probs.sum(axis=1, keepdims=True)
    return float(np.mean(probs[np.arange(n), ds.labels]))


# ---------------------------------------------------------------------------
# uniform scoring front end

def score_model(
    raw: EmbeddingSet,
    metrics: Sequence[MetricId],
    configs: Sequence[PerturbConfig],
    energy: float | None = None,
    rank: int | None = None,
    seed: int = 0,
    nleep_components: int | None = None,
    eps_scale: float = 1e-4,
) -> list[ScoreRecord]:
    """Score one model's raw embeddings under every config and metric.

    The features are prepared once for all configs (`sa_perturb`), and
    the records come in (config, metric) order. A record's wall time is
    the seconds of the stages its score depends on, so perturbed and
    baseline runs can be compared for overhead. A score that is not
    finite raises NumericError.
    """
    metrics = [MetricId(m) for m in metrics]
    records = []
    for cfg, (prepared, prepare_s) in zip(
        configs, sa_perturb(raw, configs, energy=energy, rank=rank)
    ):
        for metric in metrics:
            start = time.perf_counter()
            # names looked up per call, not a table built at import, so a
            # patched metrics.score_* (the benchmark's tracer) is what runs
            if metric is MetricId.LOGME:
                value = score_logme(prepared)
            elif metric is MetricId.GBC:
                value = score_gbc(prepared)
            elif metric is MetricId.NLEEP:
                value = score_nleep(prepared, components=nleep_components, seed=seed)
            else:
                value = score_lda(prepared, eps_scale=eps_scale)
            if not math.isfinite(value):
                raise NumericError(f"{metric.value} score is not finite ({value})")
            records.append(
                ScoreRecord(
                    model_id=raw.model_id,
                    dataset_id=raw.dataset_id,
                    metric=metric.value,
                    mode=cfg.mode.value,
                    score=float(value),
                    wall_time_s=prepare_s + time.perf_counter() - start,
                )
            )
    return records
