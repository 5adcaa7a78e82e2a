"""logme and gbc contracts, plus the uniform scoring front end."""
import math

import numpy as np
import pytest
import scipy.stats

from terank import (
    EmbeddingSet,
    PerturbConfig,
    gen_zoo_model,
    score_gbc,
    score_logme,
    score_model,
    ZooConfig,
)
from terank import metrics
from terank.errors import DataError
from terank.metrics import _evidence_basis, _evidence_fixed_point
from terank.perturbation import sa_perturb
from terank.synth import gen_class_gaussians
from terank.vocabulary import MetricId, PerturbMode


def maximize_evidence(features, targets):
    """The log evidence of one target vector and its trace, as score_logme
    computes it per class."""
    u, s2, n, k = _evidence_basis(features)
    return _evidence_fixed_point(s2, u.T @ targets, float(targets @ targets), n, k)


def binary_set(features, labels):
    return EmbeddingSet(
        features=np.asarray(features, dtype=np.float64),
        labels=np.asarray(labels),
        class_count=int(np.max(labels)) + 1,
    )


def seeded_instance(rng):
    """Small labeled instance with genuine feature-label signal."""
    n = int(rng.integers(3, 7))
    d = int(rng.integers(1, 3))
    f = rng.normal(size=(n, d))
    w = rng.normal(size=d)
    y = (f @ w + 0.3 * rng.normal(size=n) > 0).astype(np.float64)
    if y.min() == y.max():
        y[0] = 1.0 - y[0]
    return f, y


def grid_max_evidence(f, y, points=241):
    """Brute-force evidence maximization on a log grid, via the direct
    matrix formula (no SVD): an oracle independent of the fixed point."""
    n, d = f.shape
    grid = np.logspace(-3, 3, points)
    a, b = (g.ravel() for g in np.meshgrid(grid, grid))
    ftf = f.T @ f
    fty = f.T @ y
    big_a = a[:, None, None] * np.eye(d) + b[:, None, None] * ftf
    rhs = np.broadcast_to(fty[:, None], (a.size, d, 1))
    m = b[:, None] * np.linalg.solve(big_a, rhs)[:, :, 0]
    resid = np.sum((m @ f.T - y) ** 2, axis=1)
    _, logdet = np.linalg.slogdet(big_a)
    ev = 0.5 * (
        d * np.log(a)
        + n * np.log(b)
        - logdet
        - b * resid
        - a * np.sum(m * m, axis=1)
        - n * math.log(2 * math.pi)
    )
    return float(ev.max())


# --- logme -------------------------------------------------------------------

def test_logme_matches_grid_oracle():
    rng = np.random.default_rng(123)
    for _ in range(20):
        f, y = seeded_instance(rng)
        ev, trace = maximize_evidence(f, y)
        best = grid_max_evidence(f, y)
        assert abs(ev - best) / f.shape[0] < 1e-2
        assert (np.diff(trace) >= -1e-8).all()


def test_logme_rotation_invariant():
    ds = gen_class_gaussians(3, 30, 6, rho=2.0, noise=1.0, seed=1)
    x = ds.features.astype(np.float64)
    q = scipy.stats.ortho_group.rvs(6, random_state=5)
    rotated = EmbeddingSet(
        features=x @ q, labels=ds.labels, class_count=ds.class_count
    )
    plain = EmbeddingSet(features=x, labels=ds.labels, class_count=ds.class_count)
    assert score_logme(rotated) == pytest.approx(score_logme(plain), abs=1e-6)


def test_logme_prefers_true_labels_over_shuffled():
    ds = gen_class_gaussians(4, 50, 8, rho=4.0, noise=1.0, seed=2)
    rng = np.random.default_rng(3)
    shuffled = ds.labels.copy()
    rng.shuffle(shuffled)
    broken = EmbeddingSet(
        features=ds.features, labels=shuffled, class_count=ds.class_count
    )
    assert score_logme(ds) > score_logme(broken)


def test_logme_all_zero_features_gives_null_evidence():
    ds = binary_set(np.zeros((6, 3)), [0, 0, 0, 1, 1, 1])
    got = score_logme(ds)
    # closed-form null model: beta* = n / ||y||^2, evidence
    # n/2 (log beta* - log 2pi - 1); mean over the two one-vs-rest targets
    n = 6
    expect = 0.0
    for ysq in (3.0, 3.0):
        beta = n / ysq
        expect += 0.5 * n * (math.log(beta) - math.log(2 * math.pi) - 1.0) / n
    expect /= 2
    assert math.isfinite(got)
    assert got == pytest.approx(expect, abs=1e-9)


def test_logme_evidence_trace_non_decreasing():
    rng = np.random.default_rng(11)
    for _ in range(10):
        f = rng.normal(size=(40, 5))
        y = (f[:, 0] + 0.5 * rng.normal(size=40) > 0).astype(float)
        if y.min() == y.max():
            y[0] = 1.0 - y[0]
        _, trace = maximize_evidence(f, y)
        assert (np.diff(trace) >= -1e-8).all()


def test_logme_cap_hit_is_logged(monkeypatch, caplog):
    ds = gen_class_gaussians(3, 30, 4, rho=2.0, noise=1.0, seed=4)
    with caplog.at_level("WARNING", logger="terank.metrics"):
        score_logme(ds)
    assert caplog.records == []
    monkeypatch.setattr(metrics, "_LOGME_MAX_ITER", 1)
    with caplog.at_level("WARNING", logger="terank.metrics"):
        score_logme(ds)
    messages = [r.getMessage() for r in caplog.records]
    # one warning per one-vs-rest class fit
    assert len(messages) == 3
    assert all("1-iteration cap" in m for m in messages)


def test_logme_non_finite_update_is_logged(caplog):
    # an overflowed singular value makes the noise-precision update NaN
    with np.errstate(all="ignore"), caplog.at_level("WARNING", logger="terank.metrics"):
        metrics._evidence_fixed_point(np.array([np.inf]), np.array([1.0]), 2.0, 4, 1)
    assert [r.getMessage() for r in caplog.records] == [
        "logme fixed point stopped at update 1: the new precisions are not finite"]


def test_logme_nan_state_is_logged_not_converged(caplog):
    # s2 * z^2 overflows, so the state is NaN; NaN fails the 1e-300 guards
    # and must not pass for a zero relative change
    with np.errstate(all="ignore"), caplog.at_level("WARNING", logger="terank.metrics"):
        ev, trace = metrics._evidence_fixed_point(
            np.array([1e300]), np.array([1e150]), 1e150**2, 4, 1)
    assert [r.getMessage() for r in caplog.records] == [
        "logme fixed point stopped at update 1: the new precisions are not finite"]
    assert math.isnan(ev) and len(trace) == 2


def test_logme_exact_fit_stops_at_a_non_positive_update(caplog):
    # y = F m exactly with N = 2 <= k = 3: the noise precision grows about
    # 50-fold per update until N - g rounds to 0; that update would take
    # the log of 0, so the fit stops before it with a finite evidence
    s2, z = np.array([1e4, 1.0]), np.array([1.0, 1e-3])
    with caplog.at_level("WARNING", logger="terank.metrics"):
        ev, trace = metrics._evidence_fixed_point(s2, z, float(z @ z), 2, 3)
    assert [r.getMessage() for r in caplog.records] == [
        "logme fixed point stopped at update 10: the new precisions are not positive"]
    assert math.isfinite(ev) and trace == sorted(trace)


# --- gbc ---------------------------------------------------------------------

def test_gbc_identically_drawn_classes_score_near_minus_one():
    rng = np.random.default_rng(314)
    x = rng.normal(size=(4000, 8)).astype(np.float32)
    ds = EmbeddingSet(
        features=x, labels=np.array([0] * 2000 + [1] * 2000), class_count=2
    )
    assert score_gbc(ds) == pytest.approx(-1.0, abs=0.05)


def test_gbc_vanishing_overlap():
    rng = np.random.default_rng(315)
    x = rng.normal(size=(400, 4))
    x[200:, 0] += 100.0  # 100 sigma gap
    ds = binary_set(x, [0] * 200 + [1] * 200)
    assert score_gbc(ds) > -1e-8


def test_gbc_three_equidistant_classes():
    side = 3.0
    cents = np.array([[0.0, 0.0], [side, 0.0], [side / 2, side * math.sqrt(3) / 2]])
    rng = np.random.default_rng(5)
    pts = np.vstack([mu + rng.normal(size=(4000, 2)) for mu in cents])
    labels = np.repeat([0, 1, 2], 4000)
    ds = binary_set(pts, labels)
    got = score_gbc(ds)

    # oracle: hand-evaluate the pairwise distance from the fitted moments
    def pair_db(xu, xv):
        mu_u, mu_v = xu.mean(0), xv.mean(0)
        vu = np.maximum(xu.var(0), 1e-6)
        vv = np.maximum(xv.var(0), 1e-6)
        vb = (vu + vv) / 2
        return 0.125 * np.sum((mu_u - mu_v) ** 2 / vb) + 0.5 * np.sum(
            np.log(vb / np.sqrt(vu * vv))
        )

    x = ds.features.astype(np.float64)
    dbs = [
        pair_db(x[labels == u], x[labels == v]) for u, v in [(0, 1), (0, 2), (1, 2)]
    ]
    assert got == pytest.approx(-sum(math.exp(-d) for d in dbs), abs=1e-12)
    # the classes are equidistant with equal variances, so one pair's
    # distance describes all three
    assert got == pytest.approx(-3 * math.exp(-dbs[0]), rel=0.02)


def test_gbc_class_permutation_and_translation_invariant():
    ds = gen_class_gaussians(3, 40, 5, rho=2.0, noise=1.0, seed=6)
    base = score_gbc(ds)
    x = ds.features.astype(np.float64)
    perm = np.array([2, 0, 1])
    permuted = EmbeddingSet(
        features=ds.features, labels=perm[ds.labels], class_count=3
    )
    shifted = EmbeddingSet(features=x + 37.5, labels=ds.labels, class_count=3)
    assert score_gbc(permuted) == pytest.approx(base, abs=1e-9)
    assert score_gbc(shifted) == pytest.approx(base, abs=1e-6)


def test_gbc_singleton_class_names_the_class():
    ds = EmbeddingSet(
        features=np.array([[0.0, 0], [1, 0], [2, 0]], dtype=np.float32),
        labels=np.array([0, 0, 1]),
        class_count=2,
    )
    with pytest.raises(DataError, match="single sample; gbc needs") as err:
        score_gbc(ds)
    assert "class 1" in str(err.value)


# --- scoring front end ---------------------------------------------------------

def test_mode_none_reproduces_unperturbed_baseline():
    ds = gen_class_gaussians(3, 40, 8, rho=3.0, noise=1.0, seed=8)
    [rec] = score_model(ds, [MetricId.GBC], [PerturbConfig(mode=PerturbMode.NONE)])
    [(reduced, _)] = sa_perturb(ds, [PerturbConfig(mode=PerturbMode.NONE)])
    baseline = score_gbc(reduced)
    assert rec.score == baseline
    assert rec.perturbed is False
    assert rec.mode == "none"


def test_score_model_is_deterministic():
    ds = gen_class_gaussians(4, 30, 8, rho=2.0, noise=1.0, seed=9)
    a = score_model(ds, list(MetricId), [PerturbConfig()], seed=77)
    b = score_model(ds, list(MetricId), [PerturbConfig()], seed=77)
    assert [r.metric for r in a] == [m.value for m in MetricId]
    for ra, rb in zip(a, b):
        assert ra.score == rb.score
        assert ra.wall_time_s >= 0


def test_sa_lowers_gbc_on_separated_zoo():
    cfg = ZooConfig(
        models=4,
        classes=3,
        per_class=50,
        dim=8,
        rhos=(6.0, 7.0, 8.0, 9.0),
        noises=(0.5, 0.5, 0.5, 0.5),
        seed=100,
    )
    for m in range(cfg.models):
        ds, _ = gen_zoo_model(cfg, m)
        plain, perturbed = score_model(
            ds, [MetricId.GBC], [PerturbConfig(mode=PerturbMode.NONE), PerturbConfig()]
        )
        assert perturbed.score < plain.score
