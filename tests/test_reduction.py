"""PCA fitting and projection contracts."""
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from terank import EmbeddingSet
from terank.errors import DataError
from terank.reduction import _positive_peaks, fit_pca
from class_gaussians import gen_class_gaussians


def make_set(features, labels=None, classes=2):
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    if labels is None:
        labels = np.arange(n) % classes
    return EmbeddingSet(
        features=features.astype(np.float32), labels=labels
    )


def gaussian_cloud(n, d, seed, scale=None):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d))
    if scale is not None:
        x = x * scale
    return make_set(x)


def spectrum(ds):
    """fit_pca's eigenvalues, largest first: the population (1/N) spectrum
    of the centered features, from the smaller of covariance and Gram."""
    x = ds.features.astype(np.float64)
    x -= x.mean(axis=0)
    n, d = x.shape
    m = (x.T @ x) / n if d <= n else (x @ x.T) / n
    return np.maximum(np.linalg.eigh(m)[0][::-1][:min(n - 1, d)], 0.0)


def test_collinear_data_is_rank_one():
    t = np.linspace(-3, 3, 12)
    ds = make_set(np.stack([t, 2 * t], axis=1))
    evals = spectrum(ds)
    for energy in (0.2, 0.8, 1.0):
        model = fit_pca(ds, energy=energy)
        assert model.rank == 1
        assert evals[0] / evals.sum() == pytest.approx(1.0)
        assert model.energy_retained == pytest.approx(1.0)


def test_energy_one_keeps_min_n1_d_components():
    assert fit_pca(gaussian_cloud(20, 5, 0), energy=1.0).rank == 5
    assert fit_pca(gaussian_cloud(4, 8, 1), energy=1.0).rank == 3


def test_reconstruction_error_with_all_components():
    ds = gaussian_cloud(40, 6, 7)
    model = fit_pca(ds, energy=1.0)
    x = ds.features.astype(np.float64)
    mean = x.mean(axis=0)
    proj = (x - mean) @ model.components.T
    recon = proj @ model.components + mean
    rel = np.linalg.norm(recon - x) / np.linalg.norm(x)
    assert rel < 1e-4


def test_transform_centers_columns():
    ds = gaussian_cloud(50, 8, 3, scale=[1, 5, 0.2, 2, 1, 1, 3, 1])
    out = fit_pca(ds, energy=0.9).reduced
    assert np.abs(out.features.mean(axis=0)).max() < 1e-5
    assert out.labels.tolist() == ds.labels.tolist()


def test_full_rank_transform_is_isometric():
    ds = gaussian_cloud(30, 4, 11)
    out = fit_pca(ds, energy=1.0).reduced
    assert out.feature_dim == 4
    x = ds.features.astype(np.float64)
    y = out.features
    dx = np.linalg.norm(x[:, None] - x[None, :], axis=2)
    dy = np.linalg.norm(y[:, None] - y[None, :], axis=2)
    np.testing.assert_allclose(dy, dx, rtol=1e-5, atol=1e-7)


def test_output_column_variance_matches_eigenvalue():
    ds = gaussian_cloud(200, 6, 13, scale=[3, 2, 1.5, 1, 0.5, 0.1])
    model = fit_pca(ds, energy=1.0)
    out = model.reduced
    variances = out.features.var(axis=0)  # population, matching fit
    np.testing.assert_allclose(variances, spectrum(ds)[:model.rank], rtol=1e-4)


def test_transform_is_affine_on_rows():
    ds = gaussian_cloud(20, 5, 17)
    model = fit_pca(ds, energy=0.9)
    mean = ds.features.astype(np.float64).mean(axis=0)

    def apply(rows):
        return (rows - mean) @ model.components.T

    rng = np.random.default_rng(1)
    x, y = rng.normal(size=(2, 5))
    for a in (0.0, 0.25, 0.5, 1.0):
        blend = apply((a * x + (1 - a) * y)[None, :])
        parts = a * apply(x[None, :]) + (1 - a) * apply(y[None, :])
        np.testing.assert_allclose(blend, parts, atol=1e-6)


def test_variance_never_increases():
    ds = gaussian_cloud(60, 7, 19)
    x = ds.features.astype(np.float64)
    for energy in (0.3, 0.7, 1.0):
        out = fit_pca(ds, energy=energy).reduced
        assert out.features.var(axis=0).sum() <= x.var(axis=0).sum() + 1e-6


def rows_around(offset, n, d, dtype, step=0.0):
    """n copies of the row (offset + 0.1) * (1, 1.1, 1.2, ...), the first
    entry of the second row moved by `step`."""
    x = np.tile((offset + 0.1) * (1 + np.arange(d) / 10), (n, 1))
    x[1, 0] += step
    return EmbeddingSet(features=x.astype(dtype), labels=np.arange(n) % 2)


SHAPES = [pytest.param(7, 3, id="covariance"), pytest.param(3, 9, id="gram")]


@pytest.mark.parametrize("n,d", SHAPES)
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("offset", [0.0, 1e6, 1e15])
def test_identical_rows_are_degenerate(offset, dtype, n, d):
    # in float64 the mean of these equal rows rounds off the row, so the
    # centered copy is not all zero: the check is relative to the rows' norm
    with pytest.raises(DataError, match="features carry no variance"):
        fit_pca(rows_around(offset, n, d, dtype))


@pytest.mark.parametrize("n,d", SHAPES)
@pytest.mark.parametrize("offset", [0.0, 1e6, 1e15])
def test_small_real_variance_still_fits(offset, n, d):
    # one entry moved by 1e-7 of the scale: a variance 120 to 2,200 times
    # the no-variance threshold, 1e-18 of the mean squared row norm
    model = fit_pca(rows_around(offset, n, d, np.float64, 1e-7 * max(offset, 1.0)))
    assert model.rank == 1
    assert np.abs(model.components[0]).argmax() == 0


def test_component_sign_convention():
    for seed in range(5):
        model = fit_pca(gaussian_cloud(30, 6, seed), energy=1.0)
        for row in model.components:
            assert row[np.argmax(np.abs(row))] > 0


def loop_positive_peaks(rows):
    """The per-row sign rule that `_positive_peaks` vectorises."""
    for row in rows:
        j = int(np.argmax(np.abs(row)))
        if row[j] < 0:
            row *= -1.0
    return rows


# entries with repeated magnitudes of both signs, zeros of both signs, so
# that drawn rows have ties for the peak, zero rows and -0.0 entries
ENTRIES = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0])


@settings(max_examples=200, deadline=None)
@given(rows=st.integers(1, 6).flatmap(lambda d: st.lists(
    st.lists(ENTRIES | st.floats(-3, 3, width=64), min_size=d, max_size=d),
    min_size=1, max_size=6)))
def test_vectorised_sign_rule_equals_the_row_loop(rows):
    rows = np.array(rows, dtype=np.float64)
    assert _positive_peaks(rows.copy()).tobytes() == \
        loop_positive_peaks(rows.copy()).tobytes()


def test_gram_path_matches_covariance_path():
    # d > n forces the Gram route; verify against a direct covariance
    # eigendecomposition done here
    ds = gaussian_cloud(6, 10, 23)
    model = fit_pca(ds, energy=1.0)
    x = ds.features.astype(np.float64)
    xc = x - x.mean(axis=0)
    evals, evecs = np.linalg.eigh(xc.T @ xc / x.shape[0])
    evals = evals[::-1][: model.rank]
    comps = evecs[:, ::-1][:, : model.rank].T.copy()
    for row in comps:
        j = np.argmax(np.abs(row))
        if row[j] < 0:
            row *= -1
    # the projected columns' population variances are fit_pca's eigenvalues
    np.testing.assert_allclose(model.reduced.features.var(axis=0), np.maximum(evals, 0),
                               atol=1e-10)
    np.testing.assert_allclose(model.components, comps, atol=1e-8)


def test_orthonormal_components():
    model = fit_pca(gaussian_cloud(25, 8, 29), energy=1.0)
    gram = model.components @ model.components.T
    np.testing.assert_allclose(gram, np.eye(model.rank), atol=1e-5)


@st.composite
def pca_inputs(draw):
    """Sets on both of fit_pca's paths (D <= N covariance, D > N Gram),
    built from a few distinct rows repeated, in classes of 2 rows or more."""
    n = draw(st.integers(4, 30))
    d = draw(st.integers(1, 40))
    distinct = draw(st.integers(2, n))
    classes = draw(st.integers(2, n // 2))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.normal(size=(distinct, d)) * scale + rng.normal(size=d) * scale
    return EmbeddingSet(features=rows[np.arange(n) % distinct].astype(dtype),
                        labels=np.arange(n) % classes)


@settings(max_examples=150, deadline=None)
@given(ds=pca_inputs(),
       pca_kwargs=st.sampled_from([{}, {"energy": 0.5}, {"energy": 1.0},
                                   {"rank": 1}, {"rank": 3}]))
def test_fit_pca_output_invariants(ds, pca_kwargs):
    # the checks PcaModel once ran on every fit, held here instead
    model = fit_pca(ds, **pca_kwargs)
    n, d = ds.features.shape
    assert isinstance(model.rank, int) and 1 <= model.rank <= min(n - 1, d)
    gram = model.components @ model.components.T
    np.testing.assert_allclose(gram, np.eye(model.rank), atol=1e-5)
    assert 0.0 < model.energy_retained <= 1.0
    assert model.reduced.features.shape == (n, model.rank)


def test_rank_is_clamped():
    ds = gaussian_cloud(10, 4, 31)
    assert fit_pca(ds, rank=50).rank == 4
    ds2 = gaussian_cloud(3, 6, 31)
    assert fit_pca(ds2, rank=50).rank == 2


def test_energy_and_rank_are_exclusive():
    ds = gaussian_cloud(10, 4, 37)
    with pytest.raises(DataError, match="either an energy target or a rank"):
        fit_pca(ds, energy=0.5, rank=2)


@pytest.mark.parametrize("kwargs, message", [
    ({"energy": 0.0}, "energy target must lie in (0, 1], got 0.0"),
    ({"energy": 1.5}, "energy target must lie in (0, 1], got 1.5"),
    ({"rank": 0}, "rank must be >= 1, got 0"),
], ids=["energy-0", "energy-1.5", "rank-0"])
def test_a_target_outside_its_range_is_refused(kwargs, message):
    with pytest.raises(DataError, match=re.escape(message)):
        fit_pca(gaussian_cloud(10, 4, 37), **kwargs)


def test_default_energy_is_080():
    ds = gen_class_gaussians(3, 40, 12, rho=4.0, noise=1.0, seed=43)
    assert fit_pca(ds).energy_retained >= 0.8
    expect = fit_pca(ds, energy=0.8)
    assert fit_pca(ds).rank == expect.rank


def test_fit_and_projection_hold_one_float64_copy_of_the_input():
    # the fit centers one float64 copy in place and projects it; a
    # separate projection pass, or any N x D temporary, would hold a
    # second copy at once
    ds = gaussian_cloud(4000, 64, 47)
    copy_bytes = ds.features.size * 8
    tracemalloc.start()
    try:
        fit_pca(ds, rank=2).reduced
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * copy_bytes
