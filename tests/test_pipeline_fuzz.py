"""Shape fuzz: the full pipeline must stay finite and well-typed across
awkward but legal inputs (tiny classes, rank-1 reductions, unbalanced
labels, near-duplicate points)."""
import numpy as np
import pytest

from terank import EmbeddingSet, PerturbConfig, score_model
from terank.perturbation import sa_perturb
from terank.vocabulary import MetricId, PerturbMode

CASES = [
    # (classes, per-class counts, dim, spread scale, noise, pca kwargs)
    (2, [2, 2], 1, 1.0, 0.5, {}),
    (2, [2, 50], 3, 2.0, 1.0, {}),
    (3, [5, 5, 5], 2, 0.1, 1.0, {"rank": 1}),
    (4, [3, 7, 11, 2], 6, 1.5, 0.8, {"energy": 1.0}),
    (2, [30, 30], 40, 3.0, 1.0, {"energy": 0.5}),
    (5, [4, 4, 4, 4, 4], 3, 0.01, 0.01, {}),
    (3, [2, 2, 2], 8, 5.0, 2.0, {"rank": 4}),
]


def build_case(classes, counts, dim, scale, noise, seed):
    rng = np.random.default_rng(seed)
    cents = rng.normal(size=(classes, dim)) * scale
    rows, labels = [], []
    for c, count in enumerate(counts):
        rows.append(cents[c] + noise * rng.normal(size=(count, dim)))
        labels += [c] * count
    return EmbeddingSet(
        features=np.vstack(rows).astype(np.float32),
        labels=np.array(labels),
        model_id=f"fuzz-{seed}",
    )


@pytest.mark.parametrize("case_index", range(len(CASES)))
@pytest.mark.parametrize("mode", list(PerturbMode))
def test_pipeline_stays_finite(case_index, mode):
    classes, counts, dim, scale, noise, pca = CASES[case_index]
    ds = build_case(classes, counts, dim, scale, noise, seed=900 + case_index)
    cfg = PerturbConfig(mode=mode)
    [(out, _)] = sa_perturb(ds, [cfg], **pca)
    assert np.isfinite(out.features).all()
    assert out.labels.tolist() == ds.labels.tolist()
    # score_model raises NumericError on a score that is not finite
    records = score_model(ds, list(MetricId), [cfg], seed=case_index, **pca)
    for rec in records:
        assert np.isfinite(rec.score), (rec.metric, mode, case_index)


@pytest.mark.parametrize("case_index", range(len(CASES)))
def test_score_model_repeatable_on_fuzz_cases(case_index):
    classes, counts, dim, scale, noise, pca = CASES[case_index]
    ds = build_case(classes, counts, dim, scale, noise, seed=900 + case_index)
    a = score_model(ds, list(MetricId), [PerturbConfig()], seed=5, **pca)
    b = score_model(ds, list(MetricId), [PerturbConfig()], seed=5, **pca)
    assert [r.score for r in a] == [r.score for r in b]
