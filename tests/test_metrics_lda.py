"""Discriminant-projection score contracts."""
import math

import numpy as np
import pytest
import scipy.linalg

from terank import EmbeddingSet, score_lda
from terank.errors import DataError, NumericError
from terank.synth import gen_class_gaussians


def scipy_lda(ds, eps_scale=1e-4):
    """The reference score: directions from scipy's generalized eigh of
    (S_b, S_w + eps I), all k of them, then the top min(C-1, k)."""
    x = np.asarray(ds.features, dtype=np.float64)
    n, k = x.shape
    c = ds.class_count
    counts = np.bincount(ds.labels, minlength=c).astype(np.float64)
    means = np.stack([x[ds.labels == j].mean(axis=0) for j in range(c)])
    centered = x - means[ds.labels]
    offset = means - x.mean(axis=0)
    scatter_within = centered.T @ centered
    scatter_between = (offset * counts[:, None]).T @ offset
    eps = eps_scale * float(np.trace(scatter_within)) / k
    rank = min(c - 1, k)
    _, vecs = scipy.linalg.eigh(scatter_between, scatter_within + eps * np.eye(k))
    u = vecs[:, ::-1][:, :rank] * math.sqrt(n)
    proj_means = means @ (u @ u.T)
    delta = (x @ proj_means.T - 0.5 * np.einsum("ck,ck->c", means, proj_means)
             + np.log(counts / n))
    probs = np.exp(delta - delta.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    return float(np.mean(probs[np.arange(n), ds.labels]))


def random_set(seed):
    """2 to 6 classes, 1 to 8 dims (k < C-1 included), 2 to 11 samples
    per class, centroid scale log-uniform over two decades."""
    rng = np.random.default_rng(seed)
    c, k = 2 + seed % 5, 1 + seed // 5 % 8
    labels = rng.permutation(np.repeat(np.arange(c), rng.integers(2, 12)))
    centroids = rng.normal(size=(c, k)) * 10.0 ** rng.uniform(-1, 1)
    x = centroids[labels] + rng.normal(size=(labels.size, k))
    return EmbeddingSet(features=x.astype(np.float32), labels=labels, class_count=c)


def test_matches_scipy_generalized_eigh():
    cases = set()
    for seed in range(210):
        ds = random_set(seed)
        c, k = ds.class_count, ds.feature_dim
        np.testing.assert_allclose(score_lda(ds), scipy_lda(ds), rtol=1e-12,
                                   err_msg=f"seed {seed}")
        cases.add("k<C-1" if k < c - 1 else "k>=C-1")
    assert cases == {"k<C-1", "k>=C-1"}


def test_coincident_class_means_score_the_prior():
    # every class holds the same points, so S_b = 0 and no direction is
    # kept: the score is the prior-only softmax
    base = np.array([[1.0, -2.0, 0.5], [-1.0, 2.0, -0.5], [3.0, 1.0, 1.0],
                     [-3.0, -1.0, -1.0]])
    for counts in ((1, 1, 1), (2, 1, 1)):
        x = np.concatenate([np.tile(base, (m, 1)) for m in counts])
        labels = np.repeat(np.arange(3), [4 * m for m in counts])
        ds = EmbeddingSet(features=x, labels=labels, class_count=3)
        priors = np.array(counts) / sum(counts)
        val = score_lda(ds)
        assert math.isfinite(val) and 0.0 <= val <= 1.0
        assert val == pytest.approx(float(priors @ priors), rel=1e-12)


def test_overflowed_scatter_is_a_numeric_error():
    ds = gen_class_gaussians(3, 10, 4, rho=2.0, noise=1.0, seed=3)
    huge = ds.with_features(ds.features.astype(np.float64) * 1e200)
    with np.errstate(all="ignore"), pytest.raises(NumericError):
        score_lda(huge)


def test_score_stays_in_unit_interval():
    for seed in range(6):
        ds = gen_class_gaussians(
            3, 40, 5, rho=0.2 + 0.5 * seed, noise=1.0, seed=seed
        )
        val = score_lda(ds)
        assert 0.0 <= val <= 1.0


def test_separable_blobs_score_high():
    ds = gen_class_gaussians(2, 100, 6, rho=8.0, noise=0.5, seed=5)
    assert score_lda(ds) > 0.95


def test_shuffled_labels_score_at_chance():
    ds = gen_class_gaussians(4, 250, 8, rho=5.0, noise=1.0, seed=7)
    rng = np.random.default_rng(0)
    labels = ds.labels.copy()
    rng.shuffle(labels)
    shuffled = EmbeddingSet(features=ds.features, labels=labels, class_count=4)
    assert score_lda(shuffled) == pytest.approx(0.25, abs=0.05)


def test_large_ridge_degrades_to_prior_score():
    # moderate separation so the degradation is visible
    ds = gen_class_gaussians(3, 60, 6, rho=0.8, noise=1.0, seed=9)
    counts = np.bincount(ds.labels)
    priors = counts / counts.sum()
    # balanced classes: prior-only softmax picks each class with its prior
    prior_score = float(np.sum(priors * priors) / np.sum(priors))
    gaps = []
    for scale in (1e-4, 1.0, 1e4):
        val = score_lda(ds, eps_scale=scale)
        gaps.append(abs(val - prior_score))
    assert gaps[0] >= gaps[1] >= gaps[2]
    assert gaps[2] < 0.02


def test_sample_order_invariant():
    ds = gen_class_gaussians(3, 50, 5, rho=2.0, noise=1.0, seed=11)
    perm = np.random.default_rng(12).permutation(ds.sample_count)
    permuted = EmbeddingSet(
        features=ds.features[perm], labels=ds.labels[perm], class_count=3
    )
    assert score_lda(permuted) == pytest.approx(score_lda(ds), abs=1e-9)


def test_singleton_class_rejected():
    ds = EmbeddingSet(
        features=np.array([[0.0, 0], [1, 0], [2, 1]], dtype=np.float32),
        labels=np.array([0, 0, 1]),
        class_count=2,
    )
    with pytest.raises(DataError, match="single sample; lda needs") as err:
        score_lda(ds)
    assert "class 1" in str(err.value)


def test_config_validation():
    ds = gen_class_gaussians(3, 10, 4, rho=2.0, noise=1.0, seed=13)
    for bad in (0.0, -1e-4, math.nan):
        with pytest.raises(DataError, match="eps_scale must be > 0"):
            score_lda(ds, eps_scale=bad)
