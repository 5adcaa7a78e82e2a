"""Acceptance suite: ten gate criteria, one test each.

Run with `pytest tests/test_acceptance.py -v -s` to see one
"ACCEPTANCE nn PASS <name>" line per criterion. Every tolerance is stated
inline; no expected value here was produced by the code path it checks.
"""
import hashlib
import json
import math
import time
from contextlib import contextmanager

import numpy as np
from click.testing import CliRunner

from terank import (
    EmbeddingSet,
    PerturbConfig,
    ZooConfig,
    gen_zoo_model,
    improvement_summary,
    load_bundled_truth,
    rank_cells,
    score_gbc,
    score_lda,
    score_model,
    score_nleep,
    weighted_kendall_tau,
)
from terank.cli import main
from terank.evaluation import RankingReport
from terank.perturbation import attract, class_geometry, spread
from terank.synth import zoo_truth
from terank.vocabulary import MetricId, PerturbMode
from class_gaussians import gen_class_gaussians
from test_evaluation import BUNDLED_CHECKSUMS, bundled_table_text
from test_metrics import maximize_evidence
from test_perturbation import rms_radius


@contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL  {text}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS  {text}")


# --- 1 -----------------------------------------------------------------------

def test_criterion_01_spread_unit_displacement():
    with criterion(1, "spread moves every point exactly one unit outward"):
        start = time.perf_counter()
        for seed in range(10):
            ds = gen_class_gaussians(
                3, 200, 16, rho=2.0 + 0.3 * seed, noise=1.0, seed=1000 + seed
            )
            assert ds.sample_count == 600 and ds.feature_dim == 16
            geometry = class_geometry(ds)
            cents = geometry.centroids
            out = spread(ds, geometry)
            x = ds.features.astype(np.float64)
            before = np.linalg.norm(x - cents[ds.labels], axis=1)
            after = np.linalg.norm(out.features - cents[ds.labels], axis=1)
            moved = before > 1e-12
            assert moved.all()  # generic clouds have no degenerate points
            np.testing.assert_allclose(after - before, 1.0, atol=1e-5)
        assert time.perf_counter() - start < 1.0


# --- 2 -----------------------------------------------------------------------

def test_criterion_02_radius_form_equivalence():
    with criterion(2, "rms radius equals the norm of per-dimension stds"):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            pts = rng.normal(size=(int(rng.integers(2, 60)), int(rng.integers(1, 12))))
            pts = pts * rng.uniform(0.01, 50.0) + rng.normal() * 10.0
            rms = rms_radius(pts)
            norm_of_stds = float(np.linalg.norm(pts.std(axis=0)))
            assert abs(rms - norm_of_stds) < 1e-6


# --- 3 -----------------------------------------------------------------------

def rigidity(ds, out):
    worst = 0.0
    for c in range(ds.class_count):
        xi = ds.features.astype(np.float64)[ds.labels == c]
        yi = out.features[ds.labels == c]
        dx = np.linalg.norm(xi[:, None] - xi[None, :], axis=2)
        dy = np.linalg.norm(yi[:, None] - yi[None, :], axis=2)
        worst = max(worst, float(np.abs(dy - dx).max()))
    return worst


def test_criterion_03_attract_equilibrium_and_rigidity():
    with criterion(3, "attract: zero displacement at equilibrium, rigid classes"):
        # equilibrium: symmetric pairs with centroid gap sigma*(R_u + R_v)
        sigma = 0.6
        gap = sigma * (1.0 + 2.0)
        pts = np.array(
            [[-1.0, 0.0], [1.0, 0.0], [gap - 2.0, 0.0], [gap + 2.0, 0.0]]
        )
        ds = EmbeddingSet(features=pts, labels=np.array([0, 0, 1, 1]))
        out = attract(ds, class_geometry(ds), PerturbConfig(alpha=0.005, sigma=sigma))
        assert np.abs(out.features - pts).max() <= 1e-9
        assert rigidity(ds, out) <= 1e-9

        # generic configurations stay rigid per class
        for seed in range(8):
            ds = gen_class_gaussians(
                4, 50, 6, rho=0.5 + 0.5 * seed, noise=1.0, seed=2000 + seed
            )
            out = attract(
                ds, class_geometry(ds), PerturbConfig(alpha=0.02, sigma=0.6)
            )
            assert rigidity(ds, out) <= 1e-9


# --- 4 -----------------------------------------------------------------------

def grid_max_evidence(f, y, points=241):
    # brute-force maximization on the 10^-3..10^3 log grid via the direct
    # matrix formula; independent of the fixed-point implementation
    n, d = f.shape
    grid = np.logspace(-3, 3, points)
    a, b = (g.ravel() for g in np.meshgrid(grid, grid))
    big_a = a[:, None, None] * np.eye(d) + b[:, None, None] * (f.T @ f)
    rhs = np.broadcast_to((f.T @ y)[:, None], (a.size, d, 1))
    m = b[:, None] * np.linalg.solve(big_a, rhs)[:, :, 0]
    resid = np.sum((m @ f.T - y) ** 2, axis=1)
    _, logdet = np.linalg.slogdet(big_a)
    ev = 0.5 * (
        d * np.log(a) + n * np.log(b) - logdet - b * resid
        - a * np.sum(m * m, axis=1) - n * math.log(2 * math.pi)
    )
    return float(ev.max())


def test_criterion_04_logme_grid_oracle():
    with criterion(4, "evidence fixed point matches grid search, monotone trace"):
        rng = np.random.default_rng(123)
        for _ in range(20):
            n = int(rng.integers(3, 7))
            d = int(rng.integers(1, 3))
            f = rng.normal(size=(n, d))
            w = rng.normal(size=d)
            y = (f @ w + 0.3 * rng.normal(size=n) > 0).astype(np.float64)
            if y.min() == y.max():
                y[0] = 1.0 - y[0]
            ev, trace = maximize_evidence(f, y)
            assert abs(ev - grid_max_evidence(f, y)) / n < 1e-2
            assert (np.diff(trace) >= -1e-8).all()


# --- 5 -----------------------------------------------------------------------

def test_criterion_05_weighted_tau_oracle():
    with criterion(5, "weighted tau equals exhaustive pair sums"):

        def sgn(a, b):
            return 1.0 if a > b else (-1.0 if a < b else 0.0)

        def oracle(t, s, weighting):
            length = len(t)

            def ranks(v):
                order = sorted(range(length), key=lambda i: (-v[i], i))
                out = [0] * length
                for pos, i in enumerate(order):
                    out[i] = pos
                return out

            def tau_from(r):
                num = den = 0.0
                for i in range(length):
                    for j in range(i + 1, length):
                        w = 1.0 / (1 + r[i]) + 1.0 / (1 + r[j])
                        num += w * sgn(t[i], t[j]) * sgn(s[i], s[j])
                        den += w
                return num / den

            first = tau_from(ranks(t))
            if weighting == "truth_ranks":
                return first
            return 0.5 * (first + tau_from(ranks(s)))

        rng = np.random.default_rng(505)
        for length in range(2, 7):
            for _ in range(200):
                t = [float(v) for v in rng.normal(size=length)]
                s = [float(v) for v in rng.normal(size=length)]
                for w in ("truth_ranks", "symmetric"):
                    got = weighted_kendall_tau(t, s, w)
                    assert abs(got - oracle(t, s, w)) <= 1e-12
            x = [float(v) for v in rng.normal(size=length)]
            assert weighted_kendall_tau(x, x) == 1.0
            assert weighted_kendall_tau(x, [-v for v in x]) == -1.0


# --- 6 -----------------------------------------------------------------------

def test_criterion_06_metric_sanity_suite():
    with criterion(6, "gbc / nleep / lda sanity values"):
        start = time.perf_counter()
        rng = np.random.default_rng(314)

        # gbc: coincident classes -> -1, far classes -> ~0
        x = rng.normal(size=(4000, 8)).astype(np.float32)
        labels = np.array([0] * 2000 + [1] * 2000)
        same = EmbeddingSet(features=x, labels=labels)
        assert abs(score_gbc(same) - (-1.0)) <= 0.05
        far = np.array(x, dtype=np.float64)
        far[2000:, 0] += 100.0
        far_ds = EmbeddingSet(features=far, labels=labels)
        assert score_gbc(far_ds) > -1e-8

        # nleep: never positive; near zero on near-separable blobs
        for seed in range(5):
            ds = gen_class_gaussians(
                3, 40, 6, rho=0.5 + seed, noise=1.0, seed=3000 + seed
            )
            assert score_nleep(ds, seed=seed) <= 0.0
        tight = gen_class_gaussians(4, 100, 8, rho=10.0, noise=0.2, seed=3)
        assert score_nleep(tight, seed=5) > -0.05

        # lda: range, separable data, chance under shuffle
        for seed in range(5):
            ds = gen_class_gaussians(3, 40, 6, rho=1.0, noise=1.0, seed=seed)
            assert 0.0 <= score_lda(ds) <= 1.0
        separable = gen_class_gaussians(2, 100, 6, rho=8.0, noise=0.5, seed=5)
        assert score_lda(separable) > 0.95
        balanced = gen_class_gaussians(4, 250, 8, rho=5.0, noise=1.0, seed=7)
        shuffled_labels = balanced.labels.copy()
        np.random.default_rng(0).shuffle(shuffled_labels)
        shuffled = EmbeddingSet(
            features=balanced.features, labels=shuffled_labels
        )
        assert abs(score_lda(shuffled) - 0.25) <= 0.05

        assert time.perf_counter() - start < 30.0


# --- 7 -----------------------------------------------------------------------

def test_criterion_07_truth_table_fidelity():
    with criterion(7, "bundled accuracy tables: spot checks + checksums"):
        truth = load_bundled_truth()
        spots = [
            ("ResNet-50", "Aircraft", "vanilla", "supervised", 84.64),
            ("BYOL", "DTD", "vanilla", "self_supervised", 76.37),
            ("InceptionV3", "Cars", "lft", "supervised", 27.6),
            ("ResNet-34", "Pets", "vanilla", "supervised", 93.5),
            ("DenseNet-201", "Food-101", "vanilla", "supervised", 86.71),
            ("MobileNetV2", "CIFAR10", "lbft", "supervised", 87.06),
            ("Googlenet", "Caltech-101", "lft", "supervised", 88.31),
            ("SWAV", "Flowers", "vanilla", "self_supervised", 97.11),
            ("InsDis", "Cars", "lft", "self_supervised", 3.82),
            ("PCLv2", "Sun", "lbft", "self_supervised", 99.17),
        ]
        assert len(spots) == 10
        for model, dataset, regime, pool, expected in spots:
            assert truth.accuracy(model, dataset, regime, pool) == expected
        for (pool, regime), digest in BUNDLED_CHECKSUMS.items():
            text = bundled_table_text(pool, regime)
            assert hashlib.sha256(text.encode()).hexdigest() == digest


# --- 8 -----------------------------------------------------------------------

def test_criterion_08_improvement_summary_arithmetic():
    with criterion(8, "headline relative-improvement arithmetic"):
        before_taus = [0.439, 0.497, 0.605, 0.852, 0.725, 0.700,
                       0.147, 0.385, 0.411, 0.511, 0.695]  # mean 0.542
        after_taus = [0.442, 0.655, 0.603, 0.924, 0.855, 0.784,
                      0.743, 0.665, 0.447, 0.788, 0.782]  # mean 0.698

        def rep(tau, dataset, mode):
            return RankingReport(
                metric="logme", dataset=dataset, regime="vanilla",
                pool="supervised", perturb_mode=mode, weighting="symmetric",
                tau_w=tau, models=(), wall_time_s=0.0,
            )

        datasets = [f"d{i}" for i in range(11)]
        rows = improvement_summary(
            [rep(t, d, "none") for t, d in zip(before_taus, datasets)]
            + [rep(t, d, "sa") for t, d in zip(after_taus, datasets)]
        )["sa"]
        assert abs(rows[0].improvement_pct - 28.84) <= 0.5


# --- 9 -----------------------------------------------------------------------

def test_criterion_09_end_to_end_desk_experiment():
    with criterion(9, "synthetic zoo: tau >= 0.8 before and after perturbation"):
        start = time.perf_counter()
        cfg = ZooConfig(
            classes=4, per_class=100, dim=16,
            rhos=tuple(np.linspace(0.25, 1.0, 8)), noises=(1.0,) * 8, seed=7,
        )
        zoo = [gen_zoo_model(cfg, m) for m in range(len(cfg.rhos))]
        sets = [ds for ds, _ in zoo]
        truth = zoo_truth((ds.model_id, acc) for ds, acc in zoo)
        for metric in MetricId:
            baseline, perturbed = [], []
            for index, ds in enumerate(sets):
                none_rec, sa_rec = score_model(
                    ds, [metric],
                    [PerturbConfig(mode=PerturbMode.NONE), PerturbConfig()],
                    seed=index,
                )
                baseline.append(none_rec)
                perturbed.append(sa_rec)
            # defaults are the published optimum
            assert PerturbConfig().alpha == 0.005
            assert PerturbConfig().sigma == 0.6
            tau_none = rank_cells(
                baseline, truth, "synthetic", "synthetic", "synthetic"
            )[0].tau_w
            tau_sa = rank_cells(
                perturbed, truth, "synthetic", "synthetic", "synthetic"
            )[0].tau_w
            assert tau_none >= 0.8, (metric, tau_none)
            assert tau_sa >= 0.8, (metric, tau_sa)
            for b, p in zip(baseline, perturbed):
                assert p.score != b.score, (metric, b.model_id)
        assert time.perf_counter() - start < 60.0


# --- 10 ----------------------------------------------------------------------

def strip_timing(doc):
    """Remove wall-clock values and execution metadata, recursively."""
    if isinstance(doc, dict):
        return {
            key: strip_timing(value)
            for key, value in doc.items()
            if key not in ("wall_time_s", "runtime")
        }
    if isinstance(doc, list):
        return [strip_timing(v) for v in doc]
    return doc


def test_criterion_10_determinism_across_job_counts():
    with criterion(10, "jobs=1 and jobs=8 emit byte-identical JSON"):
        runner = CliRunner()

        def pipeline(jobs):
            """synth + score + evaluate in a fresh directory tree with
            identical relative paths; returns every output, with
            wall-clock fields stripped and JSON re-dumped canonically."""
            result = runner.invoke(
                main,
                ["synth", "--models", "6", "--classes", "3",
                 "--per-class", "50", "--dim", "12", "--rho-range", "0.3:1.2",
                 "--noise-range", "1:1", "--seed", "99", "--out", "zoo"],
            )
            assert result.exit_code == 0, result.output
            result = runner.invoke(
                main,
                ["score", "--input", "zoo", "--mode", "none", "--mode", "sa",
                 "--seed", "42", "--jobs", str(jobs), "--out", "scores.json"],
            )
            assert result.exit_code == 0, result.output
            result = runner.invoke(
                main,
                ["evaluate", "--scores", "scores.json",
                 "--truth", "zoo/truth.csv", "--out", "reports"],
            )
            assert result.exit_code == 0, result.output
            from pathlib import Path

            blobs = {}
            for path in [Path("scores.json"), *sorted(Path("reports").iterdir())]:
                if path.suffix == ".json":
                    doc = strip_timing(json.loads(path.read_text()))
                    blobs[str(path)] = json.dumps(doc, sort_keys=True).encode()
                else:
                    blobs[str(path)] = path.read_bytes()
            return blobs

        outputs = {}
        for jobs in (1, 8):
            with runner.isolated_filesystem():
                outputs[jobs] = pipeline(jobs)

        assert outputs[1].keys() == outputs[8].keys()
        for name in outputs[1]:
            assert outputs[1][name] == outputs[8][name], name
