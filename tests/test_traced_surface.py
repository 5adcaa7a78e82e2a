"""The surface that zoobench's span tracer (zoobench/spans.py) reads from
outside the package. The tracer patches module attributes and reads
arguments and results by name, so a rename here does not fail it: the
span or counter it fed just reads 0. These tests make such a change fail."""
import inspect
from collections import Counter

import pytest

from terank import PerturbConfig, score_model
from terank import metrics
from terank.metrics import fit_gmm
from terank.reduction import fit_pca
from terank.synth import gen_class_gaussians
from terank.vocabulary import MetricId, PerturbMode


def small_set():
    return gen_class_gaussians(3, 20, 6, rho=2.0, noise=1.0, seed=5)


def test_fit_pca_keeps_the_arguments_and_rank_the_tracer_reads():
    # the tracer binds ds, energy and rank, and sums the result's rank
    assert {"ds", "energy", "rank"} <= set(inspect.signature(fit_pca).parameters)
    model = fit_pca(ds=small_set(), energy=None, rank=None)
    assert type(model.rank) is int and model.rank >= 1


def test_fit_gmm_keeps_its_likelihood_trace():
    # the tracer counts EM iterations as the trace's length
    gmm = fit_gmm(small_set().features, 3, seed=0)
    assert 1 <= len(gmm.log_likelihood_trace)


@pytest.mark.parametrize("modes", [[PerturbMode.NONE], [PerturbMode.RAW, PerturbMode.SA]])
def test_score_model_calls_each_patched_metric_once_per_config(monkeypatch, modes):
    calls = Counter()
    for name in ("score_logme", "score_gbc", "score_nleep", "score_lda"):
        def counted(ds, *args, _fn=getattr(metrics, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(ds, *args, **kwargs)

        monkeypatch.setattr(metrics, name, counted)
    configs = [PerturbConfig(mode=mode) for mode in modes]
    records = score_model(small_set(), list(MetricId), configs)
    assert len(records) == 4 * len(configs)
    assert calls == Counter({f"score_{m.value}": len(configs) for m in MetricId})
