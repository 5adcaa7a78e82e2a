"""The prepare stages and the zoo draw allocate less than their first
formulas did, but must give the same bits: `fit_pca` centers one copy in
place and projects that copy onto the kept components, `spread` forms its
output inside the displacement array and copies the unmoved rows back,
`attract` scales the gathered class displacements in place and adds the
features to them, and `synth`'s `_class_draws` adds the centroids inside
the Gaussian draw. Each is compared byte for byte with the formula it
replaced."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from terank import EmbeddingSet, PerturbConfig
from terank.perturbation import attract, class_geometry, spread
from terank.reduction import DEFAULT_ENERGY, fit_pca
from terank.rng import SplitMix64
from terank.vocabulary import AttractDirection
from class_gaussians import draw_points


@st.composite
def embedding_sets(draw):
    n = draw(st.integers(3, 40))
    d = draw(st.integers(1, 48))  # d > n reaches fit_pca's Gram branch
    classes = draw(st.integers(2, min(4, n)))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    seed = draw(st.integers(0, 2**32 - 1))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, d)) * scale + rng.normal(size=d) * scale
    labels = np.arange(n) % classes
    return EmbeddingSet(features=x.astype(dtype), labels=labels)


def on_centroid_set(dtype):
    # spread leaves three samples in place: class 0's middle one sits
    # exactly on its centroid, and class 1's first one within
    # _DEGENERATE_NORM of its centroid but not on it. Class 2's second
    # coordinate is -0.0 throughout, so the displacement there is +0.0 and
    # only the copy-back keeps the sign of its unmoved middle sample
    x = np.array([[-1.0, 2.0], [0.0, 2.0], [1.0, 2.0],
                  [3e-13, 5.0], [-1.0, 4.0], [1.0, 6.0],
                  [6.0, -0.0], [7.0, -0.0], [8.0, -0.0],
                  [4.0, -1.0], [5.0, 0.5], [7.0, 3.0]])
    return EmbeddingSet(features=x.astype(dtype),
                        labels=[0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3])


def old_fit_pca(ds, energy=None, rank=None):
    """fit_pca's body before it centered its copy in place."""
    if energy is None and rank is None:
        energy = DEFAULT_ENERGY
    x = np.asarray(ds.features, dtype=np.float64)
    n, d = x.shape
    mean = x.mean(axis=0)
    xc = x - mean
    max_rank = min(n - 1, d)
    if d <= n:
        evals, evecs = np.linalg.eigh((xc.T @ xc) / n)
        evals = evals[::-1][:max_rank]
        comps = evecs[:, ::-1][:, :max_rank].T
    else:
        evals, evecs = np.linalg.eigh((xc @ xc.T) / n)
        evals = evals[::-1][:max_rank]
        u = evecs[:, ::-1][:, :max_rank]
        comps = np.zeros((max_rank, d))
        pos = evals > 0
        if pos.any():
            comps[pos] = (xc.T @ u[:, pos] / np.sqrt(n * evals[pos])).T
    evals = np.maximum(evals, 0.0)
    total = float(evals.sum())
    n_eff = int(np.count_nonzero(evals > evals[0] * 1e-12))
    ratios = np.cumsum(evals) / total
    if rank is not None:
        k = min(rank, max_rank, n_eff)
    else:
        k = min(int(np.searchsorted(ratios, energy - 1e-12, side="left")) + 1, n_eff)
    comps = comps[:k].copy()
    for row in comps:
        j = int(np.argmax(np.abs(row)))
        if row[j] < 0:
            row *= -1.0
    return mean, comps, min(float(ratios[k - 1]), 1.0)


def old_spread(ds, geometry):
    x = np.asarray(ds.features, dtype=np.float64)
    diff = x - geometry.centroids[ds.labels]
    norms = np.linalg.norm(diff, axis=1)
    moved = norms > 1e-12
    out = x.copy()
    out[moved] += diff[moved] / norms[moved, None]
    return out


def old_attract(ds, geometry, cfg):
    """attract's output before it was formed inside the gathered
    displacements: x + alpha * disp[labels]."""
    cents, radii = geometry.centroids, geometry.radii
    diffs = cents[:, None, :] - cents[None, :, :]
    dist = np.linalg.norm(diffs, axis=2)
    usable = ~np.eye(cents.shape[0], dtype=bool) & (dist > 1e-12)
    gap = dist - cfg.sigma * (radii[:, None] + radii[None, :])
    units = diffs / np.where(usable, dist, 1.0)[:, :, None]
    if cfg.attract_direction is AttractDirection.TOWARD:
        units = -units
    disp = np.einsum("uvk,uv->uk", units, np.where(usable, gap, 0.0))
    x = np.asarray(ds.features, dtype=np.float64)
    return x + cfg.alpha * disp[ds.labels]


# both directions, at an alpha grid from 0 (where alpha * disp is a signed
# zero) to 1, and two sigmas
ATTRACT_CONFIGS = [PerturbConfig(alpha=alpha, sigma=sigma, attract_direction=direction)
                   for alpha in (0.0, 0.001, 0.005, 0.05, 1.0)
                   for sigma in (0.0, 0.6)
                   for direction in AttractDirection]


def assert_same_bits(new, old):
    assert new.dtype == old.dtype and new.shape == old.shape
    assert new.tobytes() == old.tobytes()


def check_stages(ds, pca_kwargs):
    before = ds.features.tobytes()
    model = fit_pca(ds, **pca_kwargs)
    assert ds.features.tobytes() == before  # centered a copy, not the input
    mean, comps, energy = old_fit_pca(ds, **pca_kwargs)
    assert_same_bits(model.components, comps)
    assert model.energy_retained == energy

    x = np.asarray(ds.features, dtype=np.float64)
    reduced = model.reduced
    assert_same_bits(reduced.features, (x - mean) @ model.components.T)
    assert reduced.labels.tobytes() == ds.labels.tobytes()

    for base in (ds, reduced):
        geom = class_geometry(base)
        assert_same_bits(spread(base, geom).features, old_spread(base, geom))
        for cfg in ATTRACT_CONFIGS:
            assert_same_bits(attract(base, geom, cfg).features,
                             old_attract(base, geom, cfg))


@settings(max_examples=60, deadline=None)
@given(ds=embedding_sets(),
       pca_kwargs=st.sampled_from([{}, {"energy": 0.5}, {"energy": 1.0},
                                   {"rank": 1}, {"rank": 3}]))
def test_prepare_stages_match_their_old_formulas(ds, pca_kwargs):
    check_stages(ds, pca_kwargs)


def test_spread_on_centroid_sample_matches_old_formula():
    for dtype in (np.float32, np.float64):
        ds = on_centroid_set(dtype)
        geom = class_geometry(ds)
        out = spread(ds, geom).features
        assert_same_bits(out, old_spread(ds, geom))
        x = np.asarray(ds.features, dtype=np.float64)
        for row in (1, 3, 7):  # left in place, bit for bit
            assert out[row].tobytes() == x[row].tobytes()
        assert np.signbit(out[7, 1])
        check_stages(ds, {"energy": 1.0})


def old_draw_points(rng, centroids, per_class, noise):
    """The point draw before it formed the sum inside the draw, with the
    float32 cast its callers made; it now draws one class at a time."""
    classes, dim = centroids.shape
    g = rng.gaussians(classes * per_class * dim).reshape(classes * per_class, dim)
    return (np.repeat(centroids, per_class, axis=0) + noise * g).astype(np.float32)


@settings(max_examples=80, deadline=None)
@given(classes=st.integers(1, 5),
       # 3 x 1367 x 3 = 12303 draws: odd, and past one 8192-draw fill block
       per_class=st.one_of(st.integers(0, 7), st.just(1367)),
       dim=st.integers(1, 7),
       lead=st.integers(0, 3),  # an odd lead leaves a Box-Muller spare pending
       seed=st.integers(0, 2**64 - 1),
       rho=st.sampled_from([1e-3, 1.0, 1e3]),
       noise=st.sampled_from([1e-300, 1e-9, 0.5, 1.0, 3.0, 1e9, 1e300]))
def test_draw_points_matches_old_formula(classes, per_class, dim, lead, seed,
                                         rho, noise):
    def draw(fn):
        rng = SplitMix64(seed)
        rng.gaussians(lead)
        centroids = rho * rng.gaussians(classes * dim).reshape(classes, dim)
        with np.errstate(over="ignore"):  # 1e300 x a large draw is inf in both
            points = fn(rng, centroids, per_class, noise)
        return points, rng.gaussians(3)  # the stream state after the draw

    (new, after_new), (old, after_old) = draw(draw_points), draw(old_draw_points)
    assert_same_bits(new, old)
    assert_same_bits(after_new, after_old)
