"""Spread / attract displacement rules and the combined pipeline."""
import logging
import tracemalloc
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from terank import EmbeddingSet, PerturbConfig, ZooConfig, gen_zoo_model, score_model
from terank.errors import DataError
from terank.perturbation import attract, class_geometry, sa_perturb, spread
from terank.reduction import fit_pca
from terank.vocabulary import AttractDirection, MetricId, PerturbMode
from class_gaussians import gen_class_gaussians


def make_set(features, labels, classes):
    return EmbeddingSet(
        features=np.asarray(features, dtype=np.float64),
        labels=np.asarray(labels),
    )


# --- radius ------------------------------------------------------------------

def rms_radius(points):
    """`class_geometry`'s radius of `points` as class 0 of a set whose
    class 1 is one more row."""
    points = np.asarray(points, dtype=np.float64)
    labels = np.r_[np.zeros(len(points), dtype=np.int64), 1]
    ds = make_set(np.vstack([points, points[:1]]), labels, 2)
    return float(class_geometry(ds).radii[0])


def test_radius_examples():
    assert rms_radius([[1.0, 0.0], [-1.0, 0.0]]) == 1.0
    assert rms_radius([[3.0, 4.0]]) == 0.0


def test_radius_equals_norm_of_stds():
    rng = np.random.default_rng(2)
    for _ in range(100):
        pts = rng.normal(size=(int(rng.integers(2, 50)), int(rng.integers(1, 9))))
        pts *= rng.uniform(0.05, 20.0)
        rms = rms_radius(pts)
        norm_of_stds = float(np.linalg.norm(pts.std(axis=0)))
        assert abs(rms - norm_of_stds) < 1e-6


# --- spread ------------------------------------------------------------------

def test_spread_unit_step_along_ray():
    ds = make_set([[2.0, 0.0], [-2.0, 0.0], [0.0, 5.0], [0.0, 7.0]], [0, 0, 1, 1], 2)
    out = spread(ds, class_geometry(ds))
    # class 0 centroid is the origin: (2,0) -> (3,0)
    assert out.features[0].tolist() == [3.0, 0.0]
    assert out.features[1].tolist() == [-3.0, 0.0]


def test_spread_leaves_centroid_point_unchanged():
    # three identical points put every sample exactly on the centroid
    ds = make_set([[1.0, 1.0], [1.0, 1.0], [4.0, 0.0], [6.0, 0.0]], [0, 0, 1, 1], 2)
    out = spread(ds, class_geometry(ds))
    assert out.features[0].tolist() == [1.0, 1.0]
    assert out.features[1].tolist() == [1.0, 1.0]


def test_spread_increases_distance_by_exactly_one():
    ds = gen_class_gaussians(3, 167, 4, rho=3.0, noise=1.0, seed=10)  # 501 points
    out = spread(ds, class_geometry(ds))
    x = ds.features.astype(np.float64)
    cents = class_geometry(ds).centroids
    before = np.linalg.norm(x - cents[ds.labels], axis=1)
    after = np.linalg.norm(out.features - cents[ds.labels], axis=1)
    moved = before > 1e-12
    assert moved.all()
    np.testing.assert_allclose(after[moved] - before[moved], 1.0, atol=1e-5)


def test_spread_preserves_ray_direction():
    ds = gen_class_gaussians(3, 60, 5, rho=2.0, noise=1.0, seed=12)
    out = spread(ds, class_geometry(ds))
    cents = class_geometry(ds).centroids
    u = ds.features.astype(np.float64) - cents[ds.labels]
    v = out.features - cents[ds.labels]
    cos = np.einsum("ij,ij->i", u, v) / (
        np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1)
    )
    assert cos.min() >= 1.0 - 1e-9


def test_spread_grows_every_class_radius():
    ds = gen_class_gaussians(4, 30, 6, rho=2.0, noise=0.7, seed=14)
    before = class_geometry(ds).radii
    after = class_geometry(spread(ds, class_geometry(ds))).radii
    assert (after > before).all()


# --- attract -----------------------------------------------------------------

def equilibrium_pair():
    # class 0: symmetric pair around the origin, radius 1
    # class 1: symmetric pair around (d, 0), radius 2, with d at equilibrium
    sigma = 0.6
    d = sigma * (1.0 + 2.0)
    pts = [[-1.0, 0.0], [1.0, 0.0], [d - 2.0, 0.0], [d + 2.0, 0.0]]
    return make_set(pts, [0, 0, 1, 1], 2), sigma


def test_attract_equilibrium_is_identity():
    ds, sigma = equilibrium_pair()
    out = attract(ds, class_geometry(ds), PerturbConfig(alpha=0.005, sigma=sigma))
    np.testing.assert_allclose(out.features, ds.features, atol=1e-9)


def test_attract_zero_alpha_is_identity():
    ds = gen_class_gaussians(3, 20, 4, rho=2.0, noise=1.0, seed=16)
    out = attract(ds, class_geometry(ds), PerturbConfig(alpha=0.0))
    assert np.array_equal(out.features, ds.features.astype(np.float64))


def test_attract_singleton_hand_example():
    ds = make_set([[0.0, 0.0], [10.0, 0.0]], [0, 1], 2)
    geo = class_geometry(ds)
    toward = attract(ds, geo, PerturbConfig(alpha=0.005, sigma=0.6))
    np.testing.assert_allclose(toward.features, [[0.05, 0.0], [9.95, 0.0]], atol=1e-12)
    literal = attract(
        ds,
        geo,
        PerturbConfig(
            alpha=0.005, sigma=0.6, attract_direction=AttractDirection.LITERAL
        ),
    )
    np.testing.assert_allclose(
        literal.features, [[-0.05, 0.0], [10.05, 0.0]], atol=1e-12
    )


def test_attract_is_rigid_per_class():
    ds = gen_class_gaussians(4, 40, 5, rho=1.5, noise=1.0, seed=18)
    out = attract(ds, class_geometry(ds), PerturbConfig(alpha=0.01, sigma=0.6))
    x = ds.features.astype(np.float64)
    y = out.features
    for c in range(4):
        xi = x[ds.labels == c]
        yi = y[ds.labels == c]
        dx = np.linalg.norm(xi[:, None] - xi[None, :], axis=2)
        dy = np.linalg.norm(yi[:, None] - yi[None, :], axis=2)
        np.testing.assert_allclose(dy, dx, atol=1e-9)


def test_attract_moves_toward_equilibrium():
    # two-class spring property: |gap - equilibrium| strictly shrinks for
    # small alpha, whether the classes start too far or too close
    rng = np.random.default_rng(20)
    for start in ("far", "near"):
        base = rng.normal(size=(30, 3))
        offset = np.zeros(3)
        offset[0] = 12.0 if start == "far" else 0.3
        pts = np.vstack([base, base + offset])
        labels = np.array([0] * 30 + [1] * 30)
        ds = make_set(pts, labels, 2)
        cfg = PerturbConfig(alpha=0.04, sigma=0.6)  # below 0.1 / C
        geo = class_geometry(ds)
        out = attract(ds, geo, cfg)
        geo2 = class_geometry(out)

        def excess(g):
            gap = np.linalg.norm(g.centroids[0] - g.centroids[1])
            return abs(gap - cfg.sigma * (g.radii[0] + g.radii[1]))

        assert excess(geo2) < excess(geo)


def test_attract_warns_on_coincident_centroids(caplog):
    pts = [[-1.0, 0.0], [1.0, 0.0], [0.0, -2.0], [0.0, 2.0], [5.0, 0.0], [7.0, 0.0]]
    ds = make_set(pts, [0, 0, 1, 1, 2, 2], 3)  # classes 0 and 1 share a centroid
    with caplog.at_level(logging.WARNING):
        out = attract(ds, class_geometry(ds), PerturbConfig(alpha=0.01))
    assert "coincident" in caplog.text
    assert np.isfinite(out.features).all()


# --- pipeline ----------------------------------------------------------------

def test_mode_none_is_reduction_only():
    ds = gen_class_gaussians(3, 50, 10, rho=3.0, noise=1.0, seed=22)
    [(out, _)] = sa_perturb(ds, [PerturbConfig(mode=PerturbMode.NONE)], energy=0.9)
    expect = fit_pca(ds, energy=0.9).reduced
    assert np.array_equal(out.features, expect.features)


def test_mode_sa_equals_manual_composition():
    ds = gen_class_gaussians(3, 50, 10, rho=3.0, noise=1.0, seed=24)
    cfg = PerturbConfig(alpha=0.01, sigma=0.7)
    [(out, _)] = sa_perturb(ds, [cfg], energy=0.9)
    reduced = fit_pca(ds, energy=0.9).reduced
    spread_set = spread(reduced, class_geometry(reduced))
    expect = attract(spread_set, class_geometry(spread_set), cfg)
    assert np.array_equal(out.features, expect.features)


def test_each_mode_says_which_stages_it_runs():
    rows = {mode: (mode.spreads, mode.attracts, mode.perturbed) for mode in PerturbMode}
    assert rows == {
        PerturbMode.RAW: (False, False, False),
        PerturbMode.NONE: (False, False, False),
        PerturbMode.SPREAD: (True, False, True),
        PerturbMode.ATTRACT: (False, True, True),
        PerturbMode.SA: (True, True, True),
    }


def log_stage_calls(monkeypatch) -> list[str]:
    """The names of the stage functions `sa_perturb` calls, in call order."""
    import terank.perturbation as perturbation

    calls = []
    for name in ("fit_pca", "spread", "class_geometry"):
        def logged(*args, _fn=getattr(perturbation, name), _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(perturbation, name, logged)
    return calls


NONE = PerturbConfig(mode=PerturbMode.NONE)
SA = PerturbConfig()


@pytest.mark.parametrize("configs,calls_per_set", [
    # the PCA stage and its geometry run at the first config that is not
    # raw, the spread stage and its geometry at the first that spreads
    pytest.param([NONE, SA], [["fit_pca", "class_geometry"],
                              ["spread", "class_geometry"]], id="none-sa"),
    pytest.param([SA, NONE], [["fit_pca", "class_geometry", "spread",
                               "class_geometry"], []], id="sa-none"),
    pytest.param([PerturbConfig(mode=mode) for mode in PerturbMode],
                 [[], ["fit_pca", "class_geometry"], ["spread", "class_geometry"],
                  [], []], id="every-mode"),
])
def test_each_stage_runs_when_a_config_first_needs_it(monkeypatch, configs,
                                                       calls_per_set):
    calls = log_stage_calls(monkeypatch)
    ds = gen_class_gaussians(3, 30, 6, rho=2.0, noise=1.0, seed=28)
    sets = sa_perturb(ds, configs, energy=0.9)
    for expect in calls_per_set:
        calls.clear()
        next(sets)
        assert calls == expect
    assert next(sets, None) is None


# the seconds each stage function takes on a stubbed clock, and so the
# seconds of each mode's set: the sum of the stages it rests on
STAGE_SECONDS = {"fit_pca": 1, "class_geometry": 10, "spread": 100, "attract": 1000}
MODE_SECONDS = {PerturbMode.RAW: 0, PerturbMode.NONE: 1, PerturbMode.SPREAD: 111,
                PerturbMode.ATTRACT: 1011, PerturbMode.SA: 1121}
MODE_LISTS = [
    pytest.param(list(PerturbMode), id="every-mode"),
    pytest.param([PerturbMode.SA, PerturbMode.NONE], id="sa-none"),
    pytest.param([PerturbMode.SA] * 3, id="sa-sa-sa"),
    pytest.param([PerturbMode.ATTRACT, PerturbMode.SPREAD], id="attract-spread"),
]


@pytest.mark.parametrize("modes", MODE_LISTS)
def test_each_set_takes_the_seconds_of_the_stages_it_rests_on(monkeypatch, modes):
    import terank.perturbation as perturbation

    clock = [0]
    monkeypatch.setattr(perturbation, "time",
                        SimpleNamespace(perf_counter=lambda: clock[0]))
    for name, seconds in STAGE_SECONDS.items():
        def costed(*args, _fn=getattr(perturbation, name), _seconds=seconds,
                   **kwargs):
            out = _fn(*args, **kwargs)
            clock[0] += _seconds
            return out

        monkeypatch.setattr(perturbation, name, costed)
    ds = gen_class_gaussians(3, 30, 6, rho=2.0, noise=1.0, seed=34)
    configs = [PerturbConfig(mode=mode) for mode in modes]
    seconds = [s for _, s in sa_perturb(ds, configs, energy=0.9)]
    assert seconds == [MODE_SECONDS[mode] for mode in modes]


@pytest.mark.parametrize("modes", MODE_LISTS)
def test_spread_and_attract_get_the_geometry_of_the_set_they_move(monkeypatch, modes):
    import terank.perturbation as perturbation

    computed, moved = [], []  # (geometry, set) pairs
    geometry_fn = perturbation.class_geometry

    def recorded(ds):
        geometry = geometry_fn(ds)
        computed.append((geometry, ds))
        return geometry

    monkeypatch.setattr(perturbation, "class_geometry", recorded)
    for name in ("spread", "attract"):
        def checked(ds, geometry, *args, _fn=getattr(perturbation, name)):
            moved.append((geometry, ds))
            return _fn(ds, geometry, *args)

        monkeypatch.setattr(perturbation, name, checked)
    ds = gen_class_gaussians(3, 30, 6, rho=2.0, noise=1.0, seed=36)
    configs = [PerturbConfig(mode=mode) for mode in modes]
    for _ in sa_perturb(ds, configs, energy=0.9):
        pass
    # one spread if any mode spreads, one attract per mode that attracts
    assert len(moved) == any(m.spreads for m in modes) + sum(m.attracts for m in modes)
    for geometry, moved_set in moved:  # computed from that very set
        assert any(g is geometry and s is moved_set for g, s in computed)


def track_sets(monkeypatch) -> dict[str, list[weakref.ref]]:
    """Weak references to every reduced, spread and attracted set that
    `sa_perturb` builds, by stage."""
    import terank.perturbation as perturbation

    refs = {"pca": [], "spread": [], "attract": []}
    fit, spread_fn, attract_fn = (perturbation.fit_pca, perturbation.spread,
                                  perturbation.attract)

    def tracked_fit(*args, **kwargs):
        model = fit(*args, **kwargs)
        refs["pca"].append(weakref.ref(model.reduced))
        return model

    def tracked(fn, stage):
        def call(*args):
            out = fn(*args)
            refs[stage].append(weakref.ref(out))
            return out
        return call

    monkeypatch.setattr(perturbation, "fit_pca", tracked_fit)
    monkeypatch.setattr(perturbation, "spread", tracked(spread_fn, "spread"))
    monkeypatch.setattr(perturbation, "attract", tracked(attract_fn, "attract"))
    return refs


def alive(refs: list[weakref.ref]) -> int:
    return sum(ref() is not None for ref in refs)


def test_stage_sets_are_dropped_after_their_last_reader(monkeypatch):
    refs = track_sets(monkeypatch)
    ds = gen_class_gaussians(3, 30, 6, rho=2.0, noise=1.0, seed=30)

    sets = sa_perturb(ds, [NONE, SA], energy=0.9)
    out, _ = next(sets)
    del out
    out, _ = next(sets)  # sa's set: it alone is still held
    assert (alive(refs["pca"]), alive(refs["spread"]), alive(refs["attract"])) == (0, 0, 1)
    del out, sets

    sets = sa_perturb(ds, [SA, NONE], energy=0.9)
    out, _ = next(sets)
    del out
    # none still reads the reduced set; nothing reads the spread set
    assert (alive(refs["pca"]), alive(refs["spread"])) == (1, 0)
    out, _ = next(sets)
    assert out is refs["pca"][-1]()
    del out
    assert next(sets, None) is None
    assert alive(refs["pca"]) == 0


def test_a_sweep_holds_one_attracted_set_at_a_time(monkeypatch):
    import terank.perturbation as perturbation

    refs = track_sets(monkeypatch)
    built, counts = perturbation.attract, []

    def counted(*args):  # the attracted sets alive once each one is built
        out = built(*args)
        counts.append(alive(refs["attract"]))
        return out

    monkeypatch.setattr(perturbation, "attract", counted)
    ds = gen_class_gaussians(3, 30, 6, rho=2.0, noise=1.0, seed=32)
    configs = [PerturbConfig(alpha=alpha) for alpha in (0.001, 0.005, 0.01)]
    for out, _ in sa_perturb(ds, configs, energy=0.9):
        del out
    assert counts == [1, 1, 1]
    assert alive(refs["spread"]) == 0


def test_score_model_peaks_under_five_and_a_half_input_sets():
    # zoo model 0 at zoobench's shape, 10 classes x 200 x 128 float32,
    # under none and sa with every metric. Holding every stage set until
    # the model was done, the spread set built before none was scored and
    # a separate alpha * disp[labels] temporary peaked at 7.8 input sets
    cfg = ZooConfig(classes=10, per_class=200, dim=128,
                    rhos=(0.25, 1.0), noises=(1.0, 1.0), seed=0)
    ds, _ = gen_zoo_model(cfg, 0)
    tracemalloc.start()
    try:
        score_model(ds, list(MetricId), [NONE, SA])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 5.5 * ds.features.nbytes


def test_default_config_values():
    cfg = PerturbConfig()
    assert cfg.alpha == 0.005
    assert cfg.sigma == 0.6
    assert cfg.mode is PerturbMode.SA
    assert cfg.attract_direction is AttractDirection.TOWARD


def test_invalid_config_rejected():
    with pytest.raises(DataError, match="alpha must be >= 0"):
        PerturbConfig(alpha=-0.1)
    with pytest.raises(DataError, match="sigma must be >= 0"):
        PerturbConfig(sigma=-1.0)


@pytest.mark.parametrize("field", ["alpha", "sigma"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_config_is_a_data_error_naming_its_field(field, value):
    # the library refuses what the CLI's flags refuse, before any feature
    # is derived from it; a finite value that overflows stays numeric
    with pytest.raises(DataError, match=f"{field} must be >= 0 and finite, got {value}"):
        PerturbConfig(**{field: value})
    assert getattr(PerturbConfig(**{field: 1e308}), field) == 1e308


def test_ablation_modes_are_distinguishable():
    ds = gen_class_gaussians(3, 40, 8, rho=2.0, noise=1.0, seed=26)
    configs = [PerturbConfig(mode=mode) for mode in PerturbMode]
    outs = {
        cfg.mode: out.features
        for cfg, (out, _) in zip(configs, sa_perturb(ds, configs, energy=0.9))
    }
    for cfg in configs:  # preparing once for every mode changes no set
        [(alone, _)] = sa_perturb(ds, [cfg], energy=0.9)
        assert np.array_equal(alone.features, outs[cfg.mode])
    base = outs[PerturbMode.NONE]
    for mode in (PerturbMode.SPREAD, PerturbMode.ATTRACT, PerturbMode.SA):
        assert not np.allclose(outs[mode], base)
