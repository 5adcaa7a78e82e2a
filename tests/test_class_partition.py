"""One class partition per embedding set: `EmbeddingSet.class_counts` and
`class_rows` replace a boolean mask per class in the class geometry, gbc,
lda and synth's oracle. Each is compared, with `==` and no tolerance, to
the mask formula it replaced, kept here as the bit reference."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from terank import (
    EmbeddingSet,
    PerturbConfig,
    ZooConfig,
    gen_zoo_model,
    score_gbc,
    score_lda,
)
from terank.errors import DataError
from terank.perturbation import class_geometry, sa_perturb
from terank.synth import nearest_centroid_accuracy
from terank.vocabulary import PerturbMode

_VAR_FLOOR = 1e-6


def mask_geometry(ds):
    x = np.asarray(ds.features, dtype=np.float64)
    cents = np.empty((ds.class_count, x.shape[1]))
    radii = np.empty(ds.class_count)
    for c in range(ds.class_count):
        pts = x[ds.labels == c]
        cents[c] = pts.mean(axis=0)
        diff = pts - cents[c]
        radii[c] = np.sqrt(np.mean(np.sum(diff * diff, axis=1)))
    return cents, radii


def mask_gbc(ds):
    x = np.asarray(ds.features, dtype=np.float64)
    c = ds.class_count
    means = np.empty((c, x.shape[1]))
    variances = np.empty((c, x.shape[1]))
    for u_cls in range(c):
        pts = x[ds.labels == u_cls]
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


def mask_lda(ds, eps_scale=1e-4):
    x = np.asarray(ds.features, dtype=np.float64)
    n, k = x.shape
    c = ds.class_count
    counts = np.bincount(ds.labels, minlength=c).astype(np.float64)
    grand_mean = x.mean(axis=0)
    means = np.empty((c, k))
    scatter_within = np.zeros((k, k))
    for cls in range(c):
        pts = x[ds.labels == cls]
        means[cls] = pts.mean(axis=0)
        centered = pts - means[cls]
        scatter_within += centered.T @ centered
    between_root = (means - grand_mean).T * np.sqrt(counts)
    eps = eps_scale * float(np.trace(scatter_within)) / k
    if eps <= 0.0:
        eps = eps_scale
    chol = np.linalg.cholesky(scatter_within + eps * np.eye(k))
    whitened = np.linalg.solve(chol, between_root)
    vals, vecs = np.linalg.eigh(whitened.T @ whitened)
    rank = min(c - 1, k)
    vals, vecs = vals[::-1][:rank], vecs[:, ::-1][:, :rank]
    keep = vals > max(float(vals[0]), 0.0) * c * np.finfo(np.float64).eps
    vals, vecs = vals[keep], vecs[:, keep]
    u = np.linalg.solve(chol.T, whitened @ vecs / np.sqrt(vals)) * math.sqrt(n)
    proj_means = means @ (u @ u.T)
    delta = x @ proj_means.T
    delta += -0.5 * np.einsum("ck,ck->c", means, proj_means) + np.log(counts / n)
    delta -= delta.max(axis=1, keepdims=True)
    probs = np.exp(delta)
    probs /= probs.sum(axis=1, keepdims=True)
    return float(np.mean(probs[np.arange(n), ds.labels]))


def mask_centroids(ds):
    """The oracle's training centroids: each class's rows cast on their own."""
    x = np.asarray(ds.features)
    return np.stack([np.asarray(x[ds.labels == c], dtype=np.float64).mean(axis=0)
                     for c in range(ds.class_count)])


def assert_partition_keeps_the_mask_bits(ds):
    x = ds.features
    assert ds.class_counts.tolist() == np.bincount(ds.labels).tolist()
    rows = list(ds.class_rows())
    assert len(rows) == ds.class_count
    stable = x[np.argsort(ds.labels, kind="stable")]
    assert np.concatenate(rows).tobytes() == stable.tobytes()

    geometry = class_geometry(ds)
    cents, radii = mask_geometry(ds)
    assert geometry.centroids.tobytes() == cents.tobytes()
    assert geometry.radii.tobytes() == radii.tobytes()
    assert score_gbc(ds) == mask_gbc(ds)
    assert score_lda(ds) == mask_lda(ds)

    # held out: the training rows and each pair of centroids' midpoint, a
    # near tie that only the reference's centroid bits decide its way
    oracle_cents = mask_centroids(ds)
    mids = (oracle_cents[:, None] + oracle_cents[None]) / 2
    held_out = np.vstack([x.astype(np.float64), mids.reshape(-1, x.shape[1])])
    d2 = (np.sum(held_out * held_out, axis=1)[:, None]
          - 2.0 * held_out @ oracle_cents.T
          + np.sum(oracle_cents * oracle_cents, axis=1))
    pred = np.argmin(d2, axis=1)
    truth = np.concatenate([ds.labels, np.repeat(np.arange(ds.class_count),
                                                 ds.class_count)])
    assert nearest_centroid_accuracy(ds, [(held_out, pred)]) == 1.0
    assert nearest_centroid_accuracy(ds, [(held_out, truth)]) == np.mean(pred == truth)


@st.composite
def shuffled_sets(draw):
    classes = draw(st.integers(2, 5))
    sizes = draw(st.lists(st.integers(2, 6), min_size=classes, max_size=classes))
    dim = draw(st.integers(1, 6))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    labels = np.repeat(np.arange(classes), sizes)
    labels = np.array(draw(st.permutations(labels.tolist())), dtype=np.int64)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(len(labels), dim)) * scale + rng.normal(size=dim) * scale
    return EmbeddingSet(features=x.astype(dtype), labels=labels, class_count=classes)


@settings(max_examples=150, deadline=None)
@given(ds=shuffled_sets())
def test_partition_keeps_the_mask_bits(ds):
    assert_partition_keeps_the_mask_bits(ds)


def test_the_first_class_of_one_row_is_named():
    x = np.array([[0.0, 1.0], [2.0, 0.0], [1.0, 1.0], [3.0, 2.0], [0.5, 0.0]])
    ds = EmbeddingSet(features=x, labels=[3, 1, 0, 1, 2], class_count=4)
    assert ds.class_counts.tolist() == [1, 2, 1, 1]
    with pytest.raises(DataError, match="^class 0 has a single sample; gbc needs"):
        score_gbc(ds)
    with pytest.raises(DataError, match="^class 0 has a single sample; lda needs"):
        score_lda(ds)


@pytest.fixture(scope="module")
def zoo_sets():
    """The benchmark zoo's sets at seed 0 (8 models, 10 classes of 200
    rows, 128 dims): raw, and prepared in modes none and sa."""
    cfg = ZooConfig(models=8, classes=10, per_class=200, dim=128,
                    rhos=tuple(np.linspace(0.25, 1.0, 8).tolist()),
                    noises=(1.0,) * 8, seed=0)
    configs = [PerturbConfig(mode=PerturbMode.NONE), PerturbConfig(mode=PerturbMode.SA)]
    sets = {}
    for m in range(cfg.models):
        raw, _ = gen_zoo_model(cfg, m)
        sets[f"{raw.model_id}-raw"] = raw
        for mode, (ds, _) in zip(("none", "sa"), sa_perturb(raw, configs)):
            sets[f"{raw.model_id}-{mode}"] = ds
    return sets


@pytest.mark.parametrize("shuffled", [False, True], ids=["file-order", "shuffled"])
def test_zoo_sets_keep_the_mask_bits(zoo_sets, shuffled):
    assert len(zoo_sets) == 24
    for i, ds in enumerate(zoo_sets.values()):
        if shuffled:
            perm = np.random.default_rng(i).permutation(ds.sample_count)
            ds = EmbeddingSet(features=ds.features[perm], labels=ds.labels[perm],
                              class_count=ds.class_count)
        assert_partition_keeps_the_mask_bits(ds)
