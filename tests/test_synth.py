"""Synthetic generation: stream order, blob statistics, zoo oracle truth."""
import numpy as np
import pytest

from terank import (
    SplitMix64,
    ZooConfig,
    gen_class_gaussians,
    gen_model_zoo,
    nearest_centroid_accuracy,
    save_emb1,
)
from terank.errors import DataError
from terank.synth import SYNTH_DATASET, SYNTH_POOL, SYNTH_REGIME


def zoo_config(**overrides):
    base = dict(
        models=4,
        classes=3,
        per_class=50,
        dim=6,
        rhos=(1.0, 2.0, 3.0, 4.0),
        noises=(1.0, 1.0, 1.0, 1.0),
        seed=17,
    )
    base.update(overrides)
    return ZooConfig(**base)


def test_stream_first_output():
    assert SplitMix64(0).next_u64() == 0xE220A8397B1DCDAF


def test_generation_order_is_class_major_dimension_minor():
    # reconstruct the expected layout from the raw stream by hand
    classes, per_class, dim, rho, noise, seed = 2, 3, 2, 1.5, 0.5, 23
    rng = SplitMix64(seed)
    cents = (rho * rng.gaussians(classes * dim)).reshape(classes, dim)
    flat = rng.gaussians(classes * per_class * dim)
    expected = np.repeat(cents, per_class, axis=0) + noise * flat.reshape(-1, dim)
    ds = gen_class_gaussians(classes, per_class, dim, rho, noise, seed)
    np.testing.assert_array_equal(ds.features, expected.astype(np.float32))
    assert ds.labels.tolist() == [0, 0, 0, 1, 1, 1]


def test_near_zero_noise_collapses_to_centroids():
    ds = gen_class_gaussians(3, 20, 4, rho=1.0, noise=1e-9, seed=2)
    x = ds.features.astype(np.float64)
    for c in range(3):
        pts = x[ds.labels == c]
        assert np.abs(pts - pts.mean(axis=0)).max() < 1e-6


def test_rms_radius_matches_chi_statistics():
    # per-class RMS distance to the centroid concentrates at noise*sqrt(dim)
    dim, noise = 10, 0.7
    ds = gen_class_gaussians(3, 1000, dim, rho=5.0, noise=noise, seed=3)
    x = ds.features.astype(np.float64)
    for c in range(3):
        pts = x[ds.labels == c]
        rms = np.sqrt(np.mean(np.sum((pts - pts.mean(axis=0)) ** 2, axis=1)))
        assert rms == pytest.approx(noise * np.sqrt(dim), rel=0.05)


def test_same_seed_byte_identical_emb1(tmp_path):
    a, b = tmp_path / "a.emb1", tmp_path / "b.emb1"
    save_emb1(gen_class_gaussians(3, 30, 5, rho=2.0, noise=1.0, seed=9), a)
    save_emb1(gen_class_gaussians(3, 30, 5, rho=2.0, noise=1.0, seed=9), b)
    assert a.read_bytes() == b.read_bytes()


def test_zoo_is_deterministic():
    sets_a, truth_a = gen_model_zoo(zoo_config())
    sets_b, truth_b = gen_model_zoo(zoo_config())
    for a, b in zip(sets_a, sets_b):
        assert a.features.tobytes() == b.features.tobytes()
    assert truth_a.records == truth_b.records


def test_zoo_training_set_matches_standalone_generator():
    # the zoo's training draw is the prefix of the per-model stream, so it
    # equals gen_class_gaussians for the same parameters
    cfg = zoo_config()
    sets, _ = gen_model_zoo(cfg)
    for m, ds in enumerate(sets):
        solo = gen_class_gaussians(
            cfg.classes, cfg.per_class, cfg.dim, cfg.rhos[m], cfg.noises[m],
            cfg.seed ^ m,
        )
        assert ds.features.tobytes() == solo.features.tobytes()


def test_high_separation_model_scores_above_99():
    cfg = zoo_config(rhos=(100.0, 100.0, 1.0, 1.0), noises=(1.0, 1.0, 1.0, 1.0))
    _, truth = gen_model_zoo(cfg)
    acc = truth.accuracy("model-00", SYNTH_DATASET, SYNTH_REGIME, SYNTH_POOL)
    assert acc > 99.0


def test_identical_geometry_identical_accuracy():
    cfg = zoo_config(rhos=(2.0, 2.0, 2.0, 2.0))
    _, truth = gen_model_zoo(cfg)
    # models share geometry parameters but not seeds, so accuracies are
    # close yet generally distinct; rerunning the same config must
    # reproduce them exactly
    _, truth2 = gen_model_zoo(cfg)
    assert truth.records == truth2.records


def test_accuracy_monotone_in_separation_at_fixed_seed():
    # scaling rho with everything else fixed (same seed) scales the
    # centroids linearly, so margins grow and the oracle cannot get worse
    classes, per_class, dim, noise, seed = 4, 80, 8, 1.0, 31
    accs = []
    for rho in (0.2, 0.4, 0.8, 1.6, 3.2):
        rng = SplitMix64(seed)
        cents = rho * rng.gaussians(classes * dim).reshape(classes, dim)
        labels = np.repeat(np.arange(classes), per_class)

        def draw(rng_):
            g = rng_.gaussians(classes * per_class * dim)
            return np.repeat(cents, per_class, axis=0) + noise * g.reshape(-1, dim)

        train = draw(rng)
        test = draw(rng)
        accs.append(
            nearest_centroid_accuracy(train, labels, test, labels, classes)
        )
    assert all(b >= a for a, b in zip(accs, accs[1:]))


def test_oracle_accuracy_bounded_by_chance_and_one():
    for seed in range(5):
        cfg = zoo_config(seed=seed, rhos=(0.01, 0.5, 1.0, 10.0))
        _, truth = gen_model_zoo(cfg)
        for acc in truth.records.values():
            assert 100.0 / cfg.classes * 0.5 <= acc <= 100.0


def test_config_validation():
    with pytest.raises(DataError, match="need models >= 2"):
        zoo_config(models=1, rhos=(1.0,), noises=(1.0,))
    with pytest.raises(DataError, match="one value per model"):
        zoo_config(rhos=(1.0, 2.0))  # wrong length
    with pytest.raises(DataError, match="values must be > 0"):
        zoo_config(noises=(0.0, 1.0, 1.0, 1.0))


def test_config_rejects_a_model_no_float64_array_holds():
    # a model draws classes*dim centroids plus two sets of classes*per_class*dim
    # points; 2^60 - 1 float64s is the most whose byte size fits an intp
    limit = np.iinfo(np.intp).max // 8
    assert limit % 15 == 0  # so classes 3 x (1 + 2 x per_class 2) hits it exactly
    zoo_config(classes=3, per_class=2, dim=limit // 15)
    with pytest.raises(DataError, match="needs .* draws; a float64 array holds"):
        zoo_config(classes=3, per_class=2, dim=limit // 15 + 1)
