"""Truth tables, weighted Kendall correlation, reports, improvement math."""
import csv
import hashlib
import re
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from terank import (
    gen_zoo_model,
    improvement_summary,
    load_bundled_truth,
    load_truth,
    rank_cells,
    weighted_kendall_tau,
    ZooConfig,
)
from terank import evaluation, synth
from terank.errors import DataError
from terank.evaluation import (
    RankingReport,
    ScoreRecord,
    TruthTable,
    write_truth,
)
from terank.synth import zoo_truth
from terank.vocabulary import MetricId, PerturbMode
from test_embeddings import csv_cells

# sha256 of each (pool, regime) table of the bundled truth CSV, taken over
# bundled_table_text; the tables are transcription, not computation, so any
# drift is an error
BUNDLED_CHECKSUMS = {
    ("self_supervised", "lbft"):
        "bc5061bf588ebaff07b17d40ad9a3db3100e68e16fa6caed56a8f1baa0357662",
    ("self_supervised", "lft"):
        "11ef4498dae8a85de1de6a47e9df3e3151225f6e8221eb2fd0e2859ed1933033",
    ("self_supervised", "vanilla"):
        "af990af6f551441bc54a604c2afa8af2e1c1463572df6d0a4a9ed106e3c610c0",
    ("supervised", "lbft"):
        "0b302f5ccfc86538d2fd728b0a07d58462a1dab1498ba39f234a3b20454096bb",
    ("supervised", "lft"):
        "0ebbe39652e0b8172e74a3aa7ea42e411393bc474b61288dd4e80560de561511",
    ("supervised", "vanilla"):
        "bd5b20eae846f5558fa706d8b475441fca1cf92ee16ba894a406d5faa501ad65",
}

SPOT_CHECKS = [
    ("ResNet-50", "Aircraft", "vanilla", "supervised", 84.64),
    ("BYOL", "DTD", "vanilla", "self_supervised", 76.37),
    ("InceptionV3", "Cars", "lft", "supervised", 27.6),
    ("ResNet-152", "Flowers", "vanilla", "supervised", 96.86),
    ("Googlenet", "VOC", "vanilla", "supervised", 82.58),
    ("DenseNet-169", "Sun", "lbft", "supervised", 96.83),
    ("MNet-A1", "Sun", "lbft", "supervised", 73.0),
    ("MoCov1", "Cars", "lft", "self_supervised", 3.32),
    ("SWAV", "Sun", "lbft", "self_supervised", 99.80),
    ("Sela-v2", "Aircraft", "vanilla", "self_supervised", 85.42),
]


def bundled_table_text(pool, regime):
    """The bundled truth CSV's header and its (pool, regime) lines, in file
    order."""
    text = (resources.files("terank") / "data" / "truth.csv").read_text()
    header, *lines = text.splitlines(keepends=True)
    return header + "".join(line for line in lines
                            if next(csv.reader([line]))[2:4] == [regime, pool])


def make_record(model, score, metric="gbc", mode="sa"):
    return ScoreRecord(
        model_id=model,
        dataset_id="synthetic",
        metric=metric,
        mode=mode,
        score=score,
        wall_time_s=0.0,
    )


# --- truth tables ------------------------------------------------------------

def test_bundled_checksums_pinned():
    for (pool, regime), digest in BUNDLED_CHECKSUMS.items():
        text = bundled_table_text(pool, regime)
        assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_bundled_spot_checks():
    truth = load_bundled_truth()
    assert len(truth) == 3 * 11 * 11 + 3 * 12 * 11
    for model, dataset, regime, pool, expect in SPOT_CHECKS:
        assert truth.accuracy(model, dataset, regime, pool) == expect


def test_bundled_truth_checks_each_record_once(monkeypatch):
    # load_truth checks each row as it reads it; TruthTable is a plain
    # container that checks nothing again
    calls = []
    check = evaluation.check_truth_record
    monkeypatch.setattr(evaluation, "check_truth_record",
                        lambda key, acc: calls.append(key) or check(key, acc))
    assert len(load_bundled_truth()) == 759
    assert len(calls) == 759


def test_zoo_truth_checks_each_pair_once(monkeypatch):
    calls = []
    check = synth.check_truth_record
    monkeypatch.setattr(synth, "check_truth_record",
                        lambda key, acc: calls.append(key) or check(key, acc))
    truth = zoo_truth([("model-00", 50.0), ("model-01", 75.0)])
    assert [key[0] for key in calls] == ["model-00", "model-01"]
    assert truth.records == {
        ("model-00", "synthetic", "synthetic", "synthetic"): 50.0,
        ("model-01", "synthetic", "synthetic", "synthetic"): 75.0}
    with pytest.raises(DataError, match=r"'model-02'.*outside \(0, 100\]"):
        zoo_truth([("model-02", 0.0)])


def test_duplicate_key_rejected(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text(
        "model,dataset,regime,pool,accuracy\n"
        "m,A,vanilla,supervised,50\n"
        "m,A,vanilla,supervised,60\n"
    )
    with pytest.raises(DataError, match="duplicate key"):
        load_truth(path)


def test_out_of_range_accuracy_rejected(tmp_path):
    for bad in ("0", "-3", "101"):
        path = tmp_path / "bad.csv"
        path.write_text(
            f"model,dataset,regime,pool,accuracy\nm,A,vanilla,supervised,{bad}\n"
        )
        with pytest.raises(DataError, match=r"outside \(0, 100\]"):
            load_truth(path)


@pytest.mark.parametrize("content", [
    pytest.param(b"model,dataset,regime,pool,accuracy\n"
                 b"m\xff,A,vanilla,supervised,50\n", id="not-utf8"),
    # a field beyond the csv module's default limit of 131,072 characters
    pytest.param(b"model,dataset,regime,pool,accuracy\n" + b"m" * 200_000
                 + b",A,vanilla,supervised,50\n", id="field-too-large"),
    pytest.param(b"model,dataset\nm,A,vanilla\n", id="row-longer-than-header"),
    # a row that breaks the record rule of every truth table
    pytest.param(b"model,dataset,regime,pool,accuracy\n"
                 b"m,A,foo,supervised,50\n", id="unknown-regime"),
    pytest.param(b"model,dataset,regime,pool,accuracy\n"
                 b"m,A,vanilla,supervised,150\n", id="accuracy"),
])
def test_unreadable_truth_names_the_file(tmp_path, content):
    path = tmp_path / "t.csv"
    path.write_bytes(content)
    with pytest.raises(DataError, match=re.escape(str(path))):
        load_truth(path)


TRUTH_HEADER = b"model,dataset,regime,pool,accuracy\n"


@pytest.mark.parametrize("content, message", [
    # a decimal comma splits the accuracy into two cells
    pytest.param(TRUTH_HEADER + b"m,d,vanilla,supervised,90,5\n",
                 "line 2: 6 cells, expected 5", id="decimal-comma"),
    pytest.param(TRUTH_HEADER + b"m,d,vanilla,supervised\n",
                 "line 2: 4 cells, expected 5", id="short-row"),
    # the quoted model of line 2 spans two lines, so the bad row is line 4
    pytest.param(TRUTH_HEADER + b'"a\nb",d,vanilla,supervised,50\n'
                 b"c,d,vanilla,supervised,x\n",
                 "line 4: accuracy 'x' is not a number", id="after-two-line-cell"),
    pytest.param(TRUTH_HEADER + b"\r\nc,d,vanilla,supervised,0\n",
                 "line 3: ('c', 'd', 'vanilla', 'supervised'): accuracy 0.0 outside "
                 "(0, 100]", id="after-blank-line"),
    pytest.param(b"", "empty file", id="empty"),
    pytest.param(b"\n\n", "empty file", id="blank-lines"),
    pytest.param(b"model,dataset,regime,accuracy\n",
                 "columns ['accuracy', 'dataset', 'model', 'pool', 'regime'] required, "
                 "got ['accuracy', 'dataset', 'model', 'regime']", id="no-pool-column"),
])
def test_refused_truth_names_the_file_and_the_line(tmp_path, content, message):
    path = tmp_path / "t.csv"
    path.write_bytes(content)
    with pytest.raises(DataError) as err:
        load_truth(path)
    assert str(err.value) == f"{path}: {message}"


def test_truth_columns_may_come_in_any_order(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("accuracy,pool,regime,dataset,model\n\n50,supervised,vanilla,d,m\n")
    assert load_truth(path).records == {("m", "d", "vanilla", "supervised"): 50.0}


@given(models=st.lists(csv_cells.filter(bool), min_size=1, max_size=4, unique=True))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_write_truth_reads_back_any_model_name(models):
    table = TruthTable({(model, "d", "vanilla", "supervised"): 50.0 + i / 3
                        for i, model in enumerate(models)})
    with tempfile.TemporaryDirectory() as tmp:
        write_truth(table, Path(tmp) / "t.csv")
        assert load_truth(Path(tmp) / "t.csv") == table


def test_write_truth_reads_back(tmp_path):
    table = load_truth_from_rows([("m1", 100 / 3), ("m0", 50.0), ("m2", 1e-9)])
    path = tmp_path / "t.csv"
    write_truth(table, path)
    assert path.read_bytes().splitlines()[:2] == [
        b"model,dataset,regime,pool,accuracy",
        b"m0,synthetic,synthetic,synthetic,50.0"]
    assert load_truth(path) == table


def test_missing_model_names_the_model(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(
        "model,dataset,regime,pool,accuracy\nm1,A,vanilla,supervised,50\n"
    )
    truth = load_truth(path)
    with pytest.raises(DataError, match="no ground truth for model 'm2'") as err:
        truth.accuracy("m2", "A", "vanilla", "supervised")
    assert "m2" in str(err.value)


# --- weighted kendall ----------------------------------------------------------

def oracle_tau(t, s, weighting):
    length = len(t)

    def ranks(v):
        order = sorted(range(length), key=lambda i: (-v[i], i))
        out = [0] * length
        for pos, i in enumerate(order):
            out[i] = pos
        return out

    def sgn(a, b):
        return 1.0 if a > b else (-1.0 if a < b else 0.0)

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


def test_tau_identity_and_reversal():
    t = [4.0, 1.0, 3.0, 2.0]
    assert weighted_kendall_tau(t, t) == 1.0
    assert weighted_kendall_tau(t, [-v for v in t]) == -1.0


def test_tau_matches_pair_sum_oracle():
    rng = np.random.default_rng(77)
    for length in range(2, 7):
        for _ in range(50):
            t = [float(v) for v in rng.normal(size=length)]
            s = [float(v) for v in rng.normal(size=length)]
            for w in ("truth_ranks", "symmetric"):
                assert abs(
                    weighted_kendall_tau(t, s, w) - oracle_tau(t, s, w)
                ) < 1e-12


@given(n=st.integers(2, 12), data=st.data())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_tau_equals_scipy_weightedtau_without_ties(n, data):
    # without ties, tau_w is Vigna's weighted tau as scipy computes it by
    # default: hyperbolic weights 1/(1+r), additive pair weights, and the
    # average over the truth-ranked and the score-ranked orders
    distinct = st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n, unique=True)
    truth, scores = data.draw(distinct), data.draw(distinct)
    expected = scipy.stats.weightedtau(truth, scores).statistic
    assert abs(weighted_kendall_tau(truth, scores) - expected) <= 1e-12


def test_tau_rejects_degenerate_input():
    with pytest.raises(DataError, match="need at least two items"):
        weighted_kendall_tau([1.0], [1.0])
    with pytest.raises(DataError, match="truth and scores must be finite"):
        weighted_kendall_tau([1.0, float("nan")], [1.0, 2.0])
    with pytest.raises(DataError, match="truth and scores must be 1-D and equally long"):
        weighted_kendall_tau([1.0, 2.0, 3.0], [1.0, 2.0])
    with pytest.raises(DataError, match=re.escape(
            "weighting must be one of ('symmetric', 'truth_ranks')")):
        weighted_kendall_tau([1.0, 2.0], [1.0, 2.0], weighting="score_ranks")


@given(
    ints=st.lists(
        st.integers(min_value=-1000, max_value=1000),
        min_size=2,
        max_size=8,
        unique=True,
    ),
    shift=st.floats(min_value=-50, max_value=50, allow_nan=False),
)
@settings(max_examples=80, deadline=None)
def test_tau_invariant_under_monotone_transform(ints, shift):
    # integer-valued truths keep their ordering under any modest shift
    values = [float(v) for v in ints]
    rng = np.random.default_rng(abs(hash(tuple(values))) % 2**32)
    scores = rng.normal(size=len(values))
    base = weighted_kendall_tau(values, scores)
    # strictly increasing transform of scores
    transformed = np.exp(scores / 50.0) * 3.0 + 1.0
    assert weighted_kendall_tau(values, transformed) == pytest.approx(
        base, abs=1e-12
    )
    # constant shift of the truth values
    shifted = [v + shift for v in values]
    assert weighted_kendall_tau(shifted, scores) == pytest.approx(base, abs=1e-12)


# --- reports -------------------------------------------------------------------

def test_two_model_report_trivial():
    records = [make_record("m1", 0.9), make_record("m2", 0.1)]
    truth = load_truth_from_rows(
        [("m1", 90.0), ("m2", 80.0)]
    )
    [rep] = rank_cells(records, truth, "synthetic", "synthetic", "synthetic")
    assert rep.tau_w == 1.0
    assert [m.pred_rank for m in rep.models] == [0, 1]
    assert [m.truth_rank for m in rep.models] == [0, 1]


def load_truth_from_rows(rows):
    return TruthTable(
        records={
            (m, "synthetic", "synthetic", "synthetic"): acc for m, acc in rows
        }
    )


def test_report_tau_matches_direct_call():
    cfg = ZooConfig(
        classes=3,
        per_class=40,
        dim=8,
        rhos=tuple(np.linspace(0.3, 2.0, 11)),
        noises=(1.0,) * 11,
        seed=5,
    )
    zoo = [gen_zoo_model(cfg, m) for m in range(len(cfg.rhos))]
    sets = [ds for ds, _ in zoo]
    truth = zoo_truth((ds.model_id, acc) for ds, acc in zoo)
    rng = np.random.default_rng(6)
    records = [make_record(s.model_id, float(v)) for s, v in zip(sets, rng.normal(size=11))]
    [rep] = rank_cells(records, truth, "synthetic", "synthetic", "synthetic")
    accs = [
        truth.accuracy(s.model_id, "synthetic", "synthetic", "synthetic")
        for s in sets
    ]
    direct = weighted_kendall_tau(accs, [r.score for r in records])
    assert rep.tau_w == direct


def test_report_missing_model_is_an_error():
    records = [make_record("m1", 0.9), make_record("ghost", 0.1)]
    truth = load_truth_from_rows([("m1", 90.0)])
    with pytest.raises(DataError, match="no ground truth for model 'ghost'") as err:
        rank_cells(records, truth, "synthetic", "synthetic", "synthetic")
    assert "ghost" in str(err.value)


@pytest.mark.parametrize("models, message", [
    ([], "no score records to rank"),
    (["m1", "m2", "m1"], "duplicate model ids in score records"),
], ids=["no-records", "model-twice"])
def test_rank_cells_refuses_records_it_cannot_rank(models, message):
    # load_scores screens a file's records; a library caller's are checked here
    records = [make_record(m, float(i)) for i, m in enumerate(models)]
    truth = load_truth_from_rows([("m1", 90.0), ("m2", 80.0)])
    with pytest.raises(DataError, match=re.escape(message)):
        rank_cells(records, truth, "synthetic", "synthetic", "synthetic")


def test_report_constant_accuracy_shift_changes_nothing():
    records = [make_record(f"m{i}", float(v)) for i, v in enumerate([0.3, 0.9, 0.5])]
    truth_a = load_truth_from_rows([("m0", 50.0), ("m1", 70.0), ("m2", 60.0)])
    truth_b = load_truth_from_rows([("m0", 60.0), ("m1", 80.0), ("m2", 70.0)])
    [rep_a] = rank_cells(records, truth_a, "synthetic", "synthetic", "synthetic")
    [rep_b] = rank_cells(records, truth_b, "synthetic", "synthetic", "synthetic")
    assert rep_a.tau_w == rep_b.tau_w
    assert [m.truth_rank for m in rep_a.models] == [m.truth_rank for m in rep_b.models]


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_rank_cells_of_interleaved_records_rank_each_cell_alone(data):
    # records of several (metric, mode) cells, interleaved in any order,
    # give each cell's own report, the cells sorted and each cell's models
    # in record order
    models = [f"m{i}" for i in range(6)]
    truth = load_truth_from_rows([(m, 50.0 + i) for i, m in enumerate(models)])
    cells = data.draw(st.lists(st.tuples(st.sampled_from([m.value for m in MetricId]),
                                         st.sampled_from([m.value for m in PerturbMode])),
                               min_size=1, max_size=4, unique=True))
    by_cell = {
        cell: [make_record(m, data.draw(st.floats(-1e3, 1e3)), *cell)
               for m in data.draw(st.lists(st.sampled_from(models), min_size=2,
                                           unique=True))]
        for cell in cells
    }
    # each pick takes its cell's next record
    picks = data.draw(st.permutations([cell for cell in cells for _ in by_cell[cell]]))
    queues = {cell: iter(records) for cell, records in by_cell.items()}
    reports = rank_cells([next(queues[cell]) for cell in picks], truth,
                         "synthetic", "synthetic", "synthetic")
    assert [(r.metric, r.perturb_mode) for r in reports] == sorted(cells)
    for rep in reports:
        alone = by_cell[(rep.metric, rep.perturb_mode)]
        assert [m.id for m in rep.models] == [r.model_id for r in alone]
        assert [rep] == rank_cells(alone, truth, "synthetic", "synthetic", "synthetic")


# --- improvement summary ---------------------------------------------------------

def tau_report(metric, dataset, tau, mode="none"):
    return RankingReport(
        metric=metric,
        dataset=dataset,
        regime="vanilla",
        pool="supervised",
        perturb_mode=mode,
        weighting="symmetric",
        tau_w=tau,
        models=(),
        wall_time_s=0.0,
    )


def test_improvement_from_rounded_means():
    rows = improvement_summary(
        [tau_report("logme", "d", 0.542), tau_report("logme", "d", 0.698, "sa")]
    )["sa"]
    assert rows[0].improvement_pct == pytest.approx(28.78, abs=0.01)


def test_improvement_identical_reports_is_zero():
    before = [tau_report("gbc", d, 0.5) for d in ("a", "b")]
    after = [tau_report("gbc", d, 0.5, "sa") for d in ("a", "b")]
    rows = improvement_summary(before + after)["sa"]
    assert rows[0].improvement_pct == 0.0


def test_improvement_from_zero_baseline_is_undefined():
    rows = improvement_summary(
        [tau_report("gbc", d, tau) for d, tau in (("a", 0.25), ("b", -0.25))]
        + [tau_report("gbc", d, 0.5, "sa") for d in ("a", "b")]
    )["sa"]
    assert rows[0].mean_tau_before == 0.0
    assert rows[0].mean_tau_after == 0.5
    assert rows[0].improvement_pct is None
    assert rows[0].to_dict()["improvement_pct"] is None


def test_improvement_single_pair_equals_its_own_mean():
    rows = improvement_summary(
        [tau_report("lda", "x", 0.4), tau_report("lda", "x", 0.6, "sa")]
    )["sa"]
    assert rows[0].mean_tau_before == 0.4
    assert rows[0].mean_tau_after == 0.6
    assert rows[0].dataset_count == 1


def test_improvement_unpaired_report_is_an_error():
    with pytest.raises(DataError, match="cover datasets"):
        improvement_summary(
            [tau_report("gbc", "a", 0.5), tau_report("gbc", "b", 0.6, "sa")]
        )


@pytest.mark.parametrize("mode", ["none", "sa"])
def test_improvement_duplicate_report_is_an_error(mode):
    with pytest.raises(DataError,
                       match=re.escape(f"duplicate report for ('gbc', '{mode}', 'a')")):
        improvement_summary([tau_report("gbc", "a", 0.5),
                             tau_report("gbc", "a", 0.6, "sa"),
                             tau_report("gbc", "a", 0.7, mode)])


def test_improvement_cell_without_a_none_cell_gets_no_row():
    # raw is a baseline too, so it gets no summary of its own
    rows = improvement_summary([tau_report("lda", "a", 0.6, "sa"),
                                tau_report("gbc", "a", 0.5),
                                tau_report("gbc", "a", 0.4, "raw"),
                                tau_report("gbc", "a", 0.7, "sa"),
                                tau_report("lda", "a", 0.3, "spread")])
    assert list(rows) == ["sa"]
    assert [row.metric for row in rows["sa"]] == ["gbc"]
    assert improvement_summary([tau_report("lda", "a", 0.6, "sa")]) == {}
