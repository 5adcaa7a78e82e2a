"""Mixture fitting and the nleep score built on its posteriors."""
import hashlib
import logging
import math
import tracemalloc

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from numpy.lib.introspect import opt_func_info

from terank import EmbeddingSet, score_nleep
from terank import metrics
from terank.errors import DataError, NumericError
from terank.metrics import (
    _canonical_order,
    _kmeanspp_centers,
    _log_joint,
    _logsumexp_components,
    fit_gmm,
    nleep_from_responsibilities,
)
from terank.rng import SplitMix64
from terank.synth import gen_class_gaussians


def _row_major_log_joint(x, means, variances, weights):
    """The oracle for `_log_joint`: the same E-step formula on (N, K)
    products, `xsq @ inv.T` and `x @ (means * inv).T`."""
    inv = 1.0 / variances
    quad = (
        (x * x) @ inv.T
        - 2.0 * (x @ (means * inv).T)
        + np.sum(means * means * inv, axis=1)
    )
    logp = -0.5 * (x.shape[1] * math.log(2.0 * math.pi)
                   + np.sum(np.log(variances), axis=1) + quad)
    return logp + np.log(weights)


def _posteriors(x, gmm):
    # one E-step from a fit's returned parameters, in input row order
    log_joint = _row_major_log_joint(
        np.asarray(x, dtype=np.float64), gmm.means, gmm.variances, gmm.weights)
    return np.exp(log_joint - scipy.special.logsumexp(log_joint, axis=1)[:, None])


def _row_major_fit(features, k, seed):
    """fit_gmm's EM on the row-major oracle formula and scipy's
    logsumexp: the posteriors in input row order and the EM step count."""
    x = np.asarray(features, dtype=np.float64)
    n = x.shape[0]
    order = _canonical_order(x)
    xs = x[order]
    means = _kmeanspp_centers(xs, k, SplitMix64(seed), np.empty_like(xs))
    variances = np.tile(np.maximum(xs.var(axis=0), 1e-6), (k, 1))
    weights = np.full(k, 1.0 / k)
    trace = []
    for _ in range(metrics._EM_MAX_ITER):
        log_joint = _row_major_log_joint(xs, means, variances, weights)
        log_norm = scipy.special.logsumexp(log_joint, axis=1)
        resp = np.exp(log_joint - log_norm[:, None])
        ll = float(log_norm.sum())
        if trace and abs(ll - trace[-1]) / max(abs(trace[-1]), 1e-12) < metrics._EM_TOL:
            trace.append(ll)
            break
        trace.append(ll)
        nk = resp.sum(axis=0)
        alive = nk > metrics._EMPTY_MASS
        weights = nk / n
        means, variances = means.copy(), variances.copy()
        means[alive] = (resp.T[alive] @ xs) / nk[alive, None]
        ex2 = (resp.T[alive] @ (xs * xs)) / nk[alive, None]
        variances[alive] = np.maximum(ex2 - means[alive] ** 2, 1e-6)
    out = np.empty_like(resp)
    out[order] = resp
    return out, len(trace)


def test_single_component_closed_form():
    ds = gen_class_gaussians(2, 30, 4, rho=2.0, noise=1.5, seed=1)
    x = ds.features.astype(np.float64)
    gmm = fit_gmm(x, 1, seed=2)
    assert gmm.weights.tolist() == [1.0]
    np.testing.assert_allclose(gmm.means[0], x.mean(axis=0), rtol=1e-12)
    np.testing.assert_allclose(
        gmm.variances[0], np.maximum(x.var(axis=0), 1e-6), rtol=1e-12
    )
    assert np.allclose(gmm.responsibilities, 1.0)


def test_two_separated_blobs_get_clean_responsibilities():
    ds = gen_class_gaussians(2, 200, 4, rho=8.0, noise=0.5, seed=11)
    gmm = fit_gmm(ds.features, 2, seed=13)
    own = gmm.responsibilities.max(axis=1)
    assert own.min() >= 0.99
    # each blob claims one component
    assign = gmm.responsibilities.argmax(axis=1)
    assert len(set(assign[ds.labels == 0])) == 1
    assert len(set(assign[ds.labels == 1])) == 1
    assert assign[ds.labels == 0][0] != assign[ds.labels == 1][0]


def test_same_seed_bit_identical():
    ds = gen_class_gaussians(3, 60, 5, rho=2.0, noise=1.0, seed=21)
    a = fit_gmm(ds.features, 3, seed=5)
    b = fit_gmm(ds.features, 3, seed=5)
    assert a.means.tobytes() == b.means.tobytes()
    assert a.variances.tobytes() == b.variances.tobytes()
    assert a.weights.tobytes() == b.weights.tobytes()
    assert a.responsibilities.tobytes() == b.responsibilities.tobytes()


def test_log_likelihood_never_decreases():
    for seed in range(6):
        ds = gen_class_gaussians(3, 50, 4, rho=1.0, noise=1.0, seed=seed)
        gmm = fit_gmm(ds.features, 4, seed=seed + 100)
        diffs = np.diff(np.asarray(gmm.log_likelihood_trace))
        assert (diffs >= -1e-8).all()


def test_weights_sum_to_one_and_variances_floored():
    ds = gen_class_gaussians(4, 40, 3, rho=3.0, noise=0.01, seed=31)
    gmm = fit_gmm(ds.features, 4, seed=7)
    assert gmm.weights.sum() == pytest.approx(1.0, abs=1e-9)
    assert (gmm.variances >= 1e-6).all()


def test_too_many_components_rejected():
    ds = gen_class_gaussians(2, 3, 2, rho=1.0, noise=1.0, seed=41)
    with pytest.raises(DataError):
        fit_gmm(ds.features, 7, seed=0)


def test_fit_is_row_order_invariant():
    ds = gen_class_gaussians(3, 50, 4, rho=2.0, noise=1.0, seed=51)
    x = ds.features.astype(np.float64)
    perm = np.random.default_rng(0).permutation(x.shape[0])
    a = fit_gmm(x, 3, seed=9)
    b = fit_gmm(x[perm], 3, seed=9)
    np.testing.assert_allclose(a.means, b.means, atol=1e-9)
    np.testing.assert_allclose(a.responsibilities[perm], b.responsibilities, atol=1e-9)


def _golden_input(tied: bool) -> np.ndarray:
    # three shifted blobs of SplitMix64 Gaussians; `tied` rounds column 0 so
    # the canonical order needs the later columns to break ties
    x = SplitMix64(2024).gaussians(300 * 6).reshape(300, 6)
    x[:, :2] += np.repeat(np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]]), 100, axis=0)
    if tied:
        x[:, 0] = np.round(x[:, 0], 1)
    return x


# sha256 over weights, means, variances, responsibilities and the likelihood
# trace of fit_gmm(_golden_input(tied), 4, seed), keyed by the SIMD target
# numpy runs float64 exp and log on, under its names since numpy 2.4 (the
# floor in pyproject.toml): the AVX-512 (X86_V4) and AVX2 (X86_V3) loops
# give other last bits. The X86_V4 digests were recorded before the
# EM kernels were rewritten, and a kernel change may not move one bit of
# them; the X86_V3 ones are of the same code with numpy 2.4's AVX-512
# targets disabled (NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
GOLDEN_FITS = {
    "X86_V4": {
        (False, 0): "a678503882b7bf4e7974e5855c230f485e91e325e78fd88dbb2454ad96cf157c",
        (False, 7): "0093eb608f6b445510fc246535d1a96ba5dd0a0339926f96737b77e8529edd97",
        (True, 0): "2648c778d1c986e353247114137e58b3c4ccae81d4fcff903c5dcfc545866be4",
        (True, 7): "96f56bb79a9b36bf075a6663f75088ef5d121a0c78397eda5bd318f8ef1d686c",
    },
    "X86_V3": {
        (False, 0): "1e72619036ac4291d918c522e8ba35efbbb3e35692f6482f2e5375d31add3e1e",
        (False, 7): "168d50fb6040a38bf7767d16833232c51a31814e1ce738d9a9866da29f5c9cc7",
        (True, 0): "5c3cf0407523b4106685c8d4b3b88dea7e12c0b5d38fc7ca6e6915ed82babafa",
        (True, 7): "2025e673d6c36697883926d265e13462b9d7e444343913ab7d76f8e6e4c4b5aa",
    },
}


def _exp_log_target() -> str:
    """The dispatch target that numpy's float64 exp and log loops run on
    this machine, such as X86_V4; the two joined by "+" if they differ."""
    info = opt_func_info(func_name="^(exp|log)$", signature="float64")
    return "+".join(sorted({loop["current"] for f in info.values() for loop in f.values()}))


@pytest.mark.parametrize("tied,seed", sorted(GOLDEN_FITS["X86_V4"]))
def test_fit_is_bit_identical_to_golden(tied, seed):
    target = _exp_log_target()
    assert target in GOLDEN_FITS, f"no golden digests for numpy SIMD target {target}"
    gmm = fit_gmm(_golden_input(tied), 4, seed)
    h = hashlib.sha256()
    for a in (gmm.weights, gmm.means, gmm.variances, gmm.responsibilities,
              np.array(gmm.log_likelihood_trace)):
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    assert h.hexdigest() == GOLDEN_FITS[target][(tied, seed)], target


def _order_cases():
    rng = np.random.default_rng(5)
    distinct = rng.normal(size=(50, 4))
    ties = distinct.copy()
    ties[:, 0] = np.round(ties[:, 0])
    dupes = np.vstack([distinct[:10], distinct[:10], distinct[3:7]])
    zeros = distinct[:6].copy()
    zeros[:, 0] = [0.0, -0.0, 0.0, -0.0, 1.0, -1.0]
    zeros[:, 1] = [-0.0, 0.0, 0.0, -0.0, 2.0, 2.0]
    infs = distinct[:8].copy()
    infs[:, 0] = [np.inf, -np.inf, 0.5, np.inf, -np.inf, -1.0, 2.0, 3.0]
    one_inf = distinct[:5].copy()
    one_inf[2, 0] = np.inf
    nans = distinct[:8].copy()
    nans[[1, 4], 0] = np.nan
    nans[6, 2] = np.nan
    return {
        "distinct": distinct, "ties": ties, "duplicate-rows": dupes,
        "signed-zeros": zeros, "infs": infs, "one-inf": one_inf, "nans": nans,
        "one-row": distinct[:1], "one-column": ties[:, :1],
        "no-rows": distinct[:0],
    }


@pytest.mark.parametrize("case", sorted(_order_cases()))
def test_canonical_order_equals_lexsort(case):
    x = _order_cases()[case]
    np.testing.assert_array_equal(_canonical_order(x), np.lexsort(x.T[::-1]))


def _lse_cases():
    rng = np.random.default_rng(9)
    a = rng.normal(scale=30.0, size=(40, 7))
    tied = a.copy()
    tied[::3, 2] = tied[::3, 5] = tied[::3].max(axis=1) + 1.0
    dead = a.copy()
    dead[:, 1] = -np.inf  # a component with weight 0 gives log(0)
    dead[5] = -np.inf
    equal = np.full((6, 4), -3.25)
    odd = a[:8].copy()
    odd[0, 0] = np.inf
    odd[1, 3] = np.nan
    odd[2] = [np.inf, np.inf, 1.0, 2.0, 0.0, -np.inf, 3.0]
    # a row max of +0.0 tied with -0.0, in either column order
    zeros = np.array([[0.0, -0.0, -1.0], [-0.0, 0.0, -1.0], [-0.0, -0.0, -2.0],
                      [-1.0, -0.0, 0.0], [0.0, 0.0, 0.0], [-0.0, -3.0, -0.0]])
    column = np.array([[0.0], [-0.0], [np.inf], [-np.inf], [np.nan], [-7.5]])
    return {
        "plain": a, "tied-maxima": tied, "dead-components": dead,
        "all-equal": equal, "scaled-1e3": a * 1e3, "scaled-1e-3": a * 1e-3,
        "one-column": a[:, :1], "inf-and-nan": odd, "signed-zero-ties": zeros,
        "one-column-non-finite": column,
    }


@pytest.mark.parametrize("case", sorted(_lse_cases()))
def test_logsumexp_rows_equals_scipy(case):
    a = _lse_cases()[case]
    with np.errstate(all="ignore"):
        expected = scipy.special.logsumexp(a, axis=1)
    cols = np.ascontiguousarray(a.T)
    got = _logsumexp_components(cols, np.empty_like(cols), np.empty_like(a))
    # NaN counts as equal
    np.testing.assert_array_equal(got, expected)


def test_overflowing_rows_raise_instead_of_nan_responsibilities():
    x = np.array([[1e300, -1e300], [-1e300, 1e300], [1e300, 1e300], [0.0, 1.0]])
    with np.errstate(all="ignore"), pytest.raises(NumericError, match="not finite"):
        fit_gmm(x, 2, seed=0)


def test_em_cap_hit_is_logged(monkeypatch, caplog):
    ds = gen_class_gaussians(3, 50, 4, rho=1.0, noise=1.0, seed=3)
    with caplog.at_level(logging.WARNING, logger="terank.metrics"):
        gmm = fit_gmm(ds.features, 3, seed=1)
    assert "cap" not in caplog.text
    np.testing.assert_allclose(_posteriors(ds.features, gmm), gmm.responsibilities,
                               rtol=0, atol=1e-12)
    for cap in (1, 3):
        monkeypatch.setattr(metrics, "_EM_MAX_ITER", cap)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="terank.metrics"):
            gmm = fit_gmm(ds.features, 3, seed=1)
        assert len(gmm.log_likelihood_trace) == cap
        assert f"{cap}-iteration cap" in caplog.text
        # the fit stops before the M-step: the returned parameters are the
        # ones its posteriors and trace came from, not one step ahead
        np.testing.assert_allclose(_posteriors(ds.features, gmm),
                                   gmm.responsibilities, rtol=0, atol=1e-12)


@given(classes=st.integers(2, 8), per_class=st.integers(2, 40),
       dim=st.integers(1, 300), data=st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_log_joint_is_within_1e13_of_the_row_major_formula(
    classes, per_class, dim, data
):
    # the E-step products run on transposed views; where the BLAS picks
    # another kernel for them than for the row-major products, their bits
    # may move, by at most 1e-13 * max(1, |v|)
    n = classes * per_class
    k = data.draw(st.integers(1, min(5 * classes, n)), label="components")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    ds = gen_class_gaussians(classes, per_class, dim, rho=2.0, noise=1.0, seed=seed)
    x = ds.features.astype(np.float64)
    rng = np.random.default_rng(seed)
    means = x[rng.choice(n, k, replace=False)]
    variances = np.maximum(x.var(axis=0), 1e-6) * rng.uniform(0.5, 2.0, (k, dim))
    weights = rng.dirichlet(np.ones(k))
    got = _log_joint(x, x * x, means, variances, weights,
                     np.empty((k, n)), np.empty((k, n)))
    want = _row_major_log_joint(x, means, variances, weights).T
    assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, np.abs(want)))


# shapes at which OpenBLAS picked another kernel for the transposed E-step
# products than for the row-major ones, so the fit's last bits moved
@pytest.mark.parametrize("n,dim,k", [(500, 33, 50), (1500, 64, 25), (2000, 64, 250)])
def test_nleep_is_within_1e12_of_the_row_major_fit(n, dim, k):
    ds = gen_class_gaussians(10, n // 10, dim, rho=1.0, noise=1.0, seed=k)
    gmm = fit_gmm(ds.features, k, seed=1)
    resp, steps = _row_major_fit(ds.features, k, seed=1)
    assert len(gmm.log_likelihood_trace) == steps
    got = nleep_from_responsibilities(gmm.responsibilities, ds.labels, 10)
    want = nleep_from_responsibilities(resp, ds.labels, 10)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_fit_peaks_under_two_and_a_half_copies_of_the_input():
    # at the zoo's prepared shape: the sorted copy and its square, which
    # doubles as the seeding's scratch, plus the (K, N) buffers; a
    # separate seeding temporary took the peak to 3.07 copies
    x = SplitMix64(5).gaussians(2000 * 91).reshape(2000, 91)
    tracemalloc.start()
    try:
        fit_gmm(x, 10, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * x.nbytes


# --- nleep -------------------------------------------------------------------

def test_nleep_never_positive():
    for seed in range(5):
        ds = gen_class_gaussians(3, 30, 4, rho=float(seed + 1) / 2, noise=1.0,
                                 seed=seed)
        assert score_nleep(ds, seed=seed) <= 0.0
    # every component nearly pure: the mean log prediction rounds a few
    # ulps above 0 unless the mean is capped
    ds = gen_class_gaussians(10, 200, 64, rho=1.0, noise=1.0, seed=250)
    assert score_nleep(ds, components=250, seed=1) <= 0.0


def test_nleep_near_zero_for_tight_blobs():
    ds = gen_class_gaussians(4, 100, 8, rho=10.0, noise=0.2, seed=3)
    assert score_nleep(ds, seed=5) > -0.05


def test_nleep_drops_under_label_shuffle():
    ds = gen_class_gaussians(4, 80, 6, rho=5.0, noise=1.0, seed=61)
    rng = np.random.default_rng(62)
    labels = ds.labels.copy()
    rng.shuffle(labels)
    broken = EmbeddingSet(
        features=ds.features, labels=labels, class_count=ds.class_count
    )
    assert score_nleep(broken, seed=63) < score_nleep(ds, seed=63)


def test_nleep_component_count_defaults_to_class_count():
    ds = gen_class_gaussians(3, 40, 4, rho=3.0, noise=1.0, seed=71)
    assert score_nleep(ds, seed=1) == score_nleep(ds, components=3, seed=1)
    assert score_nleep(ds, components=5, seed=1) != score_nleep(ds, seed=1)


def test_nleep_sample_order_invariant():
    ds = gen_class_gaussians(3, 60, 4, rho=2.0, noise=1.0, seed=81)
    perm = np.random.default_rng(82).permutation(ds.sample_count)
    permuted = EmbeddingSet(
        features=ds.features[perm], labels=ds.labels[perm], class_count=3
    )
    assert score_nleep(permuted, seed=83) == pytest.approx(
        score_nleep(ds, seed=83), abs=1e-9
    )


def test_empty_components_are_dropped_and_logged(caplog):
    # a dead column in the posteriors must not poison the conditional
    resp = np.array(
        [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0]]
    )
    labels = np.array([0, 0, 1, 1])
    with caplog.at_level(logging.INFO):
        val = nleep_from_responsibilities(resp, labels, 2)
    assert "dropping" in caplog.text
    assert val == pytest.approx(0.0, abs=1e-12)


def test_a_component_of_exactly_the_empty_mass_is_dropped():
    # fit_gmm's M-step counts a component of mass 1e-12 as empty, so nleep
    # must score the posteriors as if that column were not there
    resp = np.array([[0.7, 0.3, 1e-12], [0.4, 0.6, 0.0],
                     [0.2, 0.8, 0.0], [0.9, 0.1, 0.0]])
    assert resp[:, 2].sum() == 1e-12
    labels = np.array([0, 0, 1, 1])
    assert nleep_from_responsibilities(resp, labels, 2) == \
        nleep_from_responsibilities(resp[:, :2], labels, 2)
