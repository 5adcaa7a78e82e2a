"""Score-level invariances that a faster kernel must keep: reordering the
rows of a set, or renaming its classes, moves no score of `score_model`
by more than 1e-12 of max(1, |score|). That is thousands of times finer
than the data's own resolution: a relative jitter of 1e-7 on a zoo
model's float32 features moves its scores by 1e-10 to 1e-8. The floor
of 1 keeps a score that is zero up to rounding, as nleep is on classes
that its mixture separates, from asking for bits below the rounding.

All four metrics are held to the bound in mode `raw`, and logme and lda
also in `none` and `sa`, at a PCA rank equal to the data's full rank,
where the kept span cannot depend on row order. A set has more samples
than dimensions, so that its full rank is its dimension.

Stated exceptions:
- gbc and nleep in `none` and `sa` read the PCA basis. A last-bit change
  in the covariance can rotate that basis inside a near-degenerate
  eigenspace and, for nleep, reorder the rows that the k-means++ seeding
  sees.
- raw logme on a set whose features nearly span a class indicator.
  `metrics._evidence_fixed_point` takes the indicator's residual outside
  that span as `||y||^2 - ||U^T y||^2`, which cancels, so its rounding
  reaches the score divided by the residual's share of `||y||^2`. At a
  share of 1e-8, a row permutation moved the score by 5e-10; above a
  share of 1e-3 no drawn set moved it by more than 1e-13.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from terank import EmbeddingSet, PerturbConfig, score_model
from terank.vocabulary import MetricId, PerturbMode

BOUND = 1e-12
MODES = [PerturbMode.RAW, PerturbMode.NONE, PerturbMode.SA]
# (metric, mode) cells that read the PCA basis
BASIS_DEPENDENT = {(metric, mode) for metric in ("gbc", "nleep")
                   for mode in ("none", "sa")}
# below this share of ||y||^2 outside the raw features' span, raw logme
# is not held to BOUND
MIN_RESIDUAL_SHARE = 1e-3


@st.composite
def small_sets(draw):
    """A seeded Gaussian blob set: 2-4 classes of 2-12 samples each in
    2-5 dimensions, with more samples than dimensions."""
    classes = draw(st.integers(2, 4))
    dim = draw(st.integers(2, 5))
    counts = draw(st.lists(st.integers(2, 12), min_size=classes, max_size=classes)
                  .filter(lambda counts: sum(counts) > dim))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    centroids = rng.normal(size=(classes, dim)) * draw(st.sampled_from([0.3, 1.0, 3.0]))
    labels = np.repeat(np.arange(classes), counts)
    features = centroids[labels] + rng.normal(size=(labels.size, dim))
    return EmbeddingSet(features=features.astype(np.float32), labels=labels,
                        model_id="drawn")


def nearly_spans_a_class(ds):
    """Whether some class indicator keeps less than MIN_RESIDUAL_SHARE of
    its squared norm outside the span of the raw features."""
    q, _ = np.linalg.qr(ds.features.astype(np.float64))
    for c in range(ds.class_count):
        y = (ds.labels == c).astype(np.float64)
        residual = y - q @ (q.T @ y)
        if residual @ residual < MIN_RESIDUAL_SHARE * (y @ y):
            return True
    return False


def scores(ds):
    records = score_model(ds, list(MetricId), [PerturbConfig(mode=m) for m in MODES],
                          rank=ds.features.shape[1], seed=3)
    return {(r.metric, r.mode): r.score for r in records}


def moved(before, after, exempt):
    """The cells not in `exempt` that moved by more than the bound."""
    return {key: (before[key], after[key]) for key in before
            if key not in exempt
            and abs(after[key] - before[key]) > BOUND * max(1.0, abs(before[key]))}


@settings(max_examples=40, deadline=None)
@given(ds=small_sets(), order_seed=st.integers(0, 2**32 - 1))
def test_scores_do_not_depend_on_row_order_or_class_names(ds, order_seed):
    exempt = BASIS_DEPENDENT | ({("logme", "raw")} if nearly_spans_a_class(ds) else set())
    rng = np.random.default_rng(order_seed)
    base = scores(ds)
    rows = rng.permutation(ds.labels.size)
    permuted = EmbeddingSet(features=ds.features[rows], labels=ds.labels[rows],
                            model_id=ds.model_id)
    assert moved(base, scores(permuted), exempt) == {}
    names = rng.permutation(ds.class_count)
    renamed = EmbeddingSet(features=ds.features, labels=names[ds.labels],
                           model_id=ds.model_id)
    assert moved(base, scores(renamed), exempt) == {}
