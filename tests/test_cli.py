"""End-to-end CLI behavior: subcommands, exit codes, machine output."""
import codecs
import csv
import itertools
import json
import logging
import os
import shutil
import struct
import subprocess
import sys
import time
import warnings
from collections import Counter
from pathlib import Path

import pytest
from click.testing import CliRunner

from terank import PerturbConfig, cli, load_emb1, metrics, score_model, synth
from terank.cli import main
from terank.errors import NumericError
from terank.evaluation import TruthTable, write_truth
from test_synth import held_out_overflow

METRICS = ("logme", "gbc", "nleep", "lda")


@pytest.fixture(scope="module")
def zoo_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("zoo")
    runner = CliRunner()
    result = runner.invoke(
        main,
        ["synth", "--models", "4", "--classes", "3", "--per-class", "40",
         "--dim", "8", "--rho-range", "0.4:1.6", "--noise-range", "1:1",
         "--seed", "11", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    return out


def run_ok(args):
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    return result


def read_csv(path):
    return list(csv.DictReader(path.read_text().splitlines()))


def strip_timing(doc):
    """Drop wall-clock fields and execution metadata before comparing."""
    if isinstance(doc, dict):
        return {
            k: strip_timing(v)
            for k, v in doc.items()
            if k not in ("wall_time_s", "runtime")
        }
    if isinstance(doc, list):
        return [strip_timing(v) for v in doc]
    return doc


def test_commands_are_synth_score_evaluate_sweep():
    assert sorted(main.commands) == ["evaluate", "score", "sweep", "synth"]
    result = CliRunner().invoke(main, ["bench", "--input", "."])
    assert result.exit_code == 2
    assert "No such command 'bench'" in result.output


def test_synth_writes_zoo(zoo_dir):
    files = sorted(p.name for p in zoo_dir.iterdir())
    assert files == [
        "manifest.json", "model-00.emb1", "model-01.emb1", "model-02.emb1",
        "model-03.emb1", "truth.csv",
    ]
    rows = read_csv(zoo_dir / "truth.csv")
    assert len(rows) == 4
    assert {r["regime"] for r in rows} == {"synthetic"}


def test_synth_csv_fields_are_plain_numbers(tmp_path):
    result = run_ok(["synth", "--models", "3", "--classes", "2",
                     "--per-class", "4", "--dim", "2", "--rho-range", "2:3",
                     "--seed", "1", "--out", str(tmp_path / "zoo"),
                     "--format", "csv"])
    rows = list(csv.reader(result.output.splitlines()))
    assert rows[0] == ["model", "rho", "noise", "oracle_accuracy"]
    assert len(rows) == 4
    for row in rows[1:]:
        for field in row[1:]:
            float(field)  # no numpy reprs such as np.float64(2.0)
    assert [row[1] for row in rows[1:]] == ["2.0", "2.5", "3.0"]
    assert [row[2] for row in rows[1:]] == ["1.0", "1.0", "1.0"]


def test_score_emits_records_per_model_metric_mode(zoo_dir, tmp_path):
    out = tmp_path / "scores.json"
    run_ok(["score", "--input", str(zoo_dir), "--metric", "logme",
            "--metric", "gbc", "--mode", "none", "--mode", "sa",
            "--seed", "3", "--out", str(out)])
    payload = json.loads(out.read_text())
    records = payload["records"]
    assert len(records) == 4 * 2 * 2
    cells = {(r["model"], r["metric"], r["mode"]) for r in records}
    assert len(cells) == len(records)
    none_scores = {r["model"]: r["score"] for r in records
                   if r["metric"] == "gbc" and r["mode"] == "none"}
    sa_scores = {r["model"]: r["score"] for r in records
                 if r["metric"] == "gbc" and r["mode"] == "sa"}
    assert set(none_scores) == set(sa_scores)
    assert all(not r["perturbed"] for r in records if r["mode"] == "none")
    config = payload["manifest"]["config"]
    assert config["seed"] == 3
    assert config["alpha"] == 0.005  # published optimum is the default
    assert config["sigma"] == 0.6
    assert payload["manifest"]["inputs"]


def test_score_rejects_negative_alpha(zoo_dir):
    result = CliRunner().invoke(
        main, ["score", "--input", str(zoo_dir), "--alpha", "-1"]
    )
    assert result.exit_code == 2
    assert "--alpha" in result.output


@pytest.mark.parametrize("command", ["score", "sweep"])
def test_score_rejects_conflicting_pca_flags(zoo_dir, command):
    # the rule holds whichever of the two flags comes first
    for pair in (["--pca-energy", "0.8", "--pca-rank", "4"],
                 ["--pca-rank", "4", "--pca-energy", "0.8"]):
        result = CliRunner().invoke(main, [command, "--input", str(zoo_dir), *pair])
        assert result.exit_code == 2, (pair, result.output)
        assert "--pca-energy and --pca-rank are mutually exclusive" in result.output


@pytest.mark.parametrize("args", [
    ["score", "--alpha", "nan"],
    ["score", "--sigma", "inf"],
    ["score", "--lda-eps", "inf"],
    ["score", "--lda-eps", "0"],
    ["score", "--pca-energy", "nan"],
    ["score", "--pca-energy", "0"],
    ["sweep", "--pca-energy", "1.5"],
    ["sweep", "--alpha-grid=-1"],
    ["sweep", "--alpha-grid", "inf"],
    ["sweep", "--sigma-grid", "0.5,nan"],
    ["synth", "--rho-range", "nan:1"],
    ["synth", "--noise-range", "1:inf"],
    ["synth", "--rho-range", "1"],
    ["synth", "--rho-range", "0:1"],
    ["synth", "--rho-range", "1:nan"],
    ["synth", "--rho-range", "1:2:3"],
    ["synth", "--noise-range", "1"],
    ["synth", "--noise-range", "-1:2"],
    ["sweep", "--alpha-grid", ","],
    ["score", "--seed=-1"],
    ["sweep", "--seed=-1"],
], ids=" ".join)
def test_non_finite_or_negative_values_are_usage_errors(zoo_dir, tmp_path, args):
    where = ["--out", str(tmp_path / "zoo")] if args[0] == "synth" else [
        "--input", str(zoo_dir)]
    result = CliRunner().invoke(main, args + where)
    assert result.exit_code == 2, result.output
    assert args[1].partition("=")[0] in result.output
    assert not (tmp_path / "zoo").exists()


def test_score_missing_input_is_data_error(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    result = CliRunner().invoke(main, ["score", "--input", str(empty)])
    assert result.exit_code == 3


def test_evaluate_produces_reports_and_improvement(zoo_dir, tmp_path):
    scores = tmp_path / "scores.json"
    run_ok(["score", "--input", str(zoo_dir), "--mode", "none", "--mode", "sa",
            "--seed", "5", "--out", str(scores)])
    reports = tmp_path / "reports"
    result = run_ok(["evaluate", "--scores", str(scores),
                     "--truth", str(zoo_dir / "truth.csv"),
                     "--out", str(reports)])
    assert "tau_w" in result.output
    report_files = sorted(p.name for p in reports.iterdir())
    assert "report_gbc_sa.json" in report_files
    assert "plot_gbc_sa.csv" in report_files
    assert "improvement_sa.json" in report_files
    for metric in ("logme", "gbc", "nleep", "lda"):
        doc = json.loads((reports / f"report_{metric}_sa.json").read_text())
        assert -1.0 <= doc["tau_w"] <= 1.0
    doc = json.loads((reports / "report_logme_sa.json").read_text())
    assert doc["dataset"] == "synthetic"
    assert len(doc["models"]) == 4
    assert "manifest" in doc
    plot_rows = read_csv(reports / "plot_gbc_sa.csv")
    assert set(plot_rows[0]) == {"score", "accuracy", "model"}
    imp = json.loads((reports / "improvement_sa.json").read_text())
    assert {row["metric"] for row in imp["rows"]} == {"logme", "gbc", "nleep", "lda"}


def test_evaluate_ranks_raw_records_without_an_improvement(zoo_dir, tmp_path):
    # raw is a baseline: it gets its reports and table rows, and the sa
    # improvement over none is the same with or without it
    reports = {}
    for name, modes in (("without", ["none", "sa"]), ("with", ["raw", "none", "sa"])):
        scores = tmp_path / f"scores_{name}.json"
        run_ok(["score", "--input", str(zoo_dir), "--seed", "5", "--out", str(scores)]
               + [arg for mode in modes for arg in ("--mode", mode)])
        reports[name] = tmp_path / f"reports_{name}"
        result = run_ok(["evaluate", "--scores", str(scores),
                         "--truth", str(zoo_dir / "truth.csv"),
                         "--out", str(reports[name])])
    table = {tuple(line.split()[:2]) for line in result.stdout.splitlines()}
    names = {p.name for p in reports["with"].iterdir()}
    for metric in METRICS:
        assert {f"report_{metric}_raw.json", f"plot_{metric}_raw.csv"} <= names
        assert (metric, "raw") in table
    assert sorted(n for n in names if n.startswith("improvement_")) == [
        "improvement_sa.json"]
    rows = {name: json.loads((out / "improvement_sa.json").read_text())["rows"]
            for name, out in reports.items()}
    assert rows["with"] == rows["without"]


def test_evaluate_writes_one_improvement_per_perturbed_mode(zoo_dir, tmp_path):
    # each perturbed mode pairs with none, its rows sorted by metric
    scores = tmp_path / "scores.json"
    run_ok(["score", "--input", str(zoo_dir), "--seed", "5", "--out", str(scores)]
           + [arg for mode in ("sa", "none", "attract", "spread")
              for arg in ("--mode", mode)])
    reports = tmp_path / "reports"
    run_ok(["evaluate", "--scores", str(scores), "--truth", str(zoo_dir / "truth.csv"),
            "--out", str(reports)])
    names = sorted(p.name for p in reports.glob("improvement_*"))
    assert names == ["improvement_attract.json", "improvement_sa.json",
                     "improvement_spread.json"]
    for name in names:
        doc = json.loads((reports / name).read_text())
        assert doc["mode"] == name[len("improvement_"):-len(".json")]
        assert [row["metric"] for row in doc["rows"]] == sorted(METRICS)


def test_a_cell_with_one_model_is_a_data_error_naming_it(zoo_dir, tmp_path):
    scores = tmp_path / "scores.json"
    run_ok(["score", "--input", str(zoo_dir / "model-00.emb1"), "--metric", "gbc",
            "--mode", "none", "--mode", "sa", "--out", str(scores)])
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["evaluate", "--scores", str(scores),
                                       "--truth", str(zoo_dir / "truth.csv"),
                                       "--out", str(out)])
    assert assert_one_data_error_line(result) == (
        "data error: cell (metric=gbc, mode=none) has 1 model; "
        "ranking needs at least two")
    assert not out.exists()


@pytest.mark.parametrize("kind", ["file", "directory"])
def test_sweep_refuses_a_one_file_pool_before_loading_a_model(
        zoo_dir, tmp_path, monkeypatch, kind):
    # every (alpha, sigma) cell would rank one model, so the pool is
    # refused before any model is loaded or scored
    given = zoo_dir / "model-00.emb1"
    if kind == "directory":
        given = tmp_path / "pool"
        given.mkdir()
        shutil.copy(zoo_dir / "model-00.emb1", given)
    calls = []
    monkeypatch.setattr(metrics, "score_model",
                        lambda *args, **kwargs: calls.append(args))
    out = tmp_path / "sweep.csv"
    result = CliRunner().invoke(main, [
        "sweep", "--input", str(given), "--truth", str(zoo_dir / "truth.csv"),
        "--metric", "gbc", "--out", str(out)])
    assert assert_one_data_error_line(result) == (
        f"data error: --input {given} holds 1 model; ranking needs at least two")
    assert calls == []
    assert not out.exists()


def test_evaluate_missing_model_exits_3(zoo_dir, tmp_path):
    scores = tmp_path / "scores.json"
    run_ok(["score", "--input", str(zoo_dir), "--metric", "gbc",
            "--out", str(scores)])
    bad_truth = tmp_path / "truth.csv"
    bad_truth.write_text(
        "model,dataset,regime,pool,accuracy\n"
        "model-00,synthetic,synthetic,synthetic,50\n"
    )
    result = CliRunner().invoke(
        main, ["evaluate", "--scores", str(scores), "--truth", str(bad_truth)]
    )
    assert result.exit_code == 3
    assert "model-01" in result.output


RECORD = {"model": "m", "dataset": "d", "metric": "gbc", "mode": "sa",
          "perturbed": True, "score": 0.5, "wall_time_s": 0.0}


BAD_FIELDS = {"text-score": {"score": "high"}, "unknown-metric": {"metric": "../gbc"},
              "numeric-model": {"model": 7}, "huge-time": {"wall_time_s": 10**400},
              # `perturbed` must agree with the mode's own rule
              "unperturbed-sa": {"perturbed": False}, "perturbed-none": {"mode": "none"}}


@pytest.mark.parametrize("content", [
    pytest.param(b"{not json", id="not-json"),
    pytest.param(b'{"records": []\xff}', id="not-utf8"),
    *(pytest.param(json.dumps({"manifest": {}, "records": [{**RECORD, **bad}]})
                   .encode(), id=name) for name, bad in BAD_FIELDS.items()),
    # the top level must be an object holding a manifest
    pytest.param(json.dumps({"records": [RECORD]}).encode(), id="no-manifest"),
    pytest.param(json.dumps([RECORD]).encode(), id="top-level-list"),
])
def test_evaluate_unreadable_scores_is_data_error(tmp_path, content):
    scores = tmp_path / "scores.json"
    scores.write_bytes(content)
    result = CliRunner().invoke(main, ["evaluate", "--scores", str(scores),
                                       "--out", str(tmp_path / "reports")])
    assert result.exit_code == 3, result.output
    assert "not a score JSON file" in result.output


def test_evaluate_model_scored_twice_in_a_cell_is_a_data_error(zoo_scores, tmp_path):
    payload = json.loads(zoo_scores.read_text())
    scores = tmp_path / "scores.json"
    scores.write_text(json.dumps({**payload, "records": payload["records"] * 2}))
    result = CliRunner().invoke(main, ["evaluate", "--scores", str(scores)])
    assert assert_one_data_error_line(result) == (
        "data error: duplicate model ids in score records")


@pytest.mark.parametrize("field,token", [
    pytest.param("seed", "NaN", id="nan-manifest"),
    pytest.param("wall_time_s", "Infinity", id="infinity-time"),
    pytest.param("wall_time_s", "1e400", id="overflow-time"),
    pytest.param("score", "NaN", id="nan-score"),
    pytest.param("score", "-Infinity", id="minus-infinity-score"),
    pytest.param("score", "-1e400", id="overflow-score"),
])
def test_evaluate_scores_with_non_finite_numbers_are_not_json(tmp_path, field, token):
    # json.loads takes NaN/Infinity tokens and numbers that overflow to
    # +-inf; none of them is JSON, so the score file is unreadable
    doc = {"manifest": {"seed": 0}, "records": [dict(RECORD)]}
    (doc["manifest"] if field == "seed" else doc["records"][0])[field] = "@"
    scores = tmp_path / "scores.json"
    scores.write_text(json.dumps(doc).replace('"@"', token))
    result = CliRunner().invoke(main, ["evaluate", "--scores", str(scores)])
    assert assert_one_data_error_line(result).startswith(
        f"data error: {scores}: not a score JSON file (")


LOGME_NOT_FINITE = ("warning: logme fixed point stopped at update 1: the new "
                    "precisions are not finite")


@pytest.mark.parametrize("metric", ["logme", "gbc", "nleep", "lda"])
def test_overflowing_features_are_numeric_failures(zoo_dir, metric):
    # --alpha 1e300 leaves finite features whose scatter overflows; a 1e308
    # attract step or radius scale overflows the perturbed features
    # themselves. numpy's overflow warnings are silenced in the command and
    # in every --jobs worker thread: stderr is one error line, and a warning
    # turned into an error would change the exit code. Before it may come
    # the one warning line of logme's stopped fixed point, which a second
    # --jobs worker can reach while the first model fails
    for flags, jobs in itertools.product(
            (["--alpha", "1e300"], ["--alpha", "1e308"], ["--sigma", "1e308"]),
            ("1", "2")):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = CliRunner().invoke(main, ["score", "--input", str(zoo_dir),
                                               "--metric", metric, *flags,
                                               "--jobs", jobs, "--format", "json"])
        assert result.exit_code == 4, (flags, result.output)
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert lines[-1].startswith("numeric failure: "), lines
        assert lines[:-1] in ([], [LOGME_NOT_FINITE]), lines


def test_json_output_rejects_non_finite_values():
    assert cli._json_text({"x": 1.5}) == '{\n  "x": 1.5\n}\n'
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(NumericError, match="not finite"):
            cli._json_text({"rows": [{"x": bad}]})


@pytest.mark.parametrize("count,code", [("-2", 2), ("0", 2), ("1", 2)])
def test_synth_model_count_exit_codes(tmp_path, count, code):
    # ZooConfig's rule, a count of at least 2, is --models' own type
    out = tmp_path / "zoo"
    result = CliRunner().invoke(main, ["synth", "--models", count, "--out", str(out)])
    assert result.exit_code == code, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "--models" in result.output
    assert not out.exists()


@pytest.mark.parametrize("value,code", [("-2", 2), ("0", 2), ("1", 2)])
@pytest.mark.parametrize("flag", ["--classes", "--per-class", "--dim"])
def test_synth_size_exit_codes(tmp_path, flag, value, code):
    # ZooConfig's rule, a size of at least 2, is each size flag's own type
    out = tmp_path / "zoo"
    result = CliRunner().invoke(main, ["synth", flag, value, "--out", str(out)])
    assert result.exit_code == code, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert flag in result.output
    assert not out.exists()


def test_synth_default_zoo_can_be_ranked(tmp_path):
    # the default shape and ranges give models of differing accuracy, so
    # its truth ranks them
    result = run_ok(["synth", "--out", str(tmp_path / "zoo"), "--format", "json"])
    accuracies = [m["oracle_accuracy"] for m in json.loads(result.stdout)["models"]]
    assert len(accuracies) == 8
    assert len(set(accuracies)) > 1, accuracies


@pytest.mark.parametrize("seed,code", [("-1", 2), (str(2**64), 2),
                                       (str(2**64 - 1), 0)])
def test_synth_seed_is_one_64_bit_state(tmp_path, seed, code):
    # SplitMix64 holds one 64-bit state: -1 and 2^64 would alias 2^64 - 1
    # and 0, so the flag refuses them before the library would
    out = tmp_path / "zoo"
    result = CliRunner().invoke(main, ["synth", "--models", "2", "--classes", "2",
                                       "--per-class", "3", "--dim", "2",
                                       "--seed", seed, "--out", str(out)])
    assert result.exit_code == code, result.output
    if code:
        assert "--seed" in result.output
        assert not out.exists()
    else:
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 2**64 - 1


def test_synth_overflow_prints_one_line_at_every_job_count(tmp_path):
    # finite flags whose draws overflow, in float64 or only in the float32
    # cast, are a numeric failure (exit 4) before --out is created. The
    # generator's worker threads run under the command's errstate, so no
    # numpy warning reaches stderr
    for flags in (["--rho-range", "1e308:1e308"], ["--rho-range", "1e39:1e39"],
                  ["--noise-range", "1e39:1e39"]):
        stderr = {}
        for jobs in ("1", "2"):
            out = tmp_path / f"zoo{jobs}"
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                result = CliRunner().invoke(main, [
                    "synth", "--models", "2", *flags, "--jobs", jobs,
                    "--out", str(out)])
            assert result.exit_code == 4, (flags, result.output)
            assert result.stdout == ""
            assert not out.exists()
            stderr[jobs] = result.stderr
        assert stderr["1"] == stderr["2"], flags
        lines = stderr["1"].splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("numeric failure: model-00: "), lines


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("existing", [False, True])
def test_synth_held_out_overflow_is_one_numeric_failure_line(tmp_path, monkeypatch,
                                                             existing, jobs):
    # the held-out set is checked class by class as the oracle draws it; a
    # class that overflows float32 fails the run like a training overflow
    monkeypatch.setattr(synth, "SplitMix64",
                        held_out_overflow(held_out_class=0, classes=2))
    out = tmp_path / "zoo"
    if existing:
        out.mkdir()
        (out / "keep.txt").write_text("kept")
    result = CliRunner().invoke(main, [
        "synth", "--models", "2", "--classes", "2", "--per-class", "3",
        "--dim", "2", "--jobs", jobs, "--out", str(out)])
    assert result.exit_code == 4, result.output
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("numeric failure: model-00: generated features "
                               "are not finite in float32"), lines
    if existing:
        assert [p.name for p in out.iterdir()] == ["keep.txt"]
    else:
        assert not out.exists()


def assert_one_data_error_line(result):
    assert result.exit_code == 3, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("data error: "), lines
    return lines[0]


def test_synth_size_no_array_holds_is_one_line_data_error(tmp_path):
    # ZooConfig refuses a model whose draws no float64 array can hold,
    # before anything is allocated or --out is created
    out = tmp_path / "zoo"
    result = CliRunner().invoke(main, [
        "synth", "--models", "2", "--classes", "2", "--per-class", "2",
        "--dim", str(2**62), "--out", str(out)])
    assert "a float64 array holds" in assert_one_data_error_line(result)
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("message", ["", "Unable to allocate 7.28 TiB for an array"])
def test_synth_out_of_memory_is_one_line_data_error(tmp_path, monkeypatch, jobs,
                                                    message):
    # a size ZooConfig accepts can still exceed the machine's memory; the
    # generator is stubbed, so the test allocates nothing large
    def exhausted(cfg, m, consume):
        raise MemoryError(message)

    monkeypatch.setattr(synth, "draw_zoo_model", exhausted)
    out = tmp_path / "zoo"
    result = CliRunner().invoke(main, ["synth", "--models", "2", "--jobs", jobs,
                                       "--out", str(out)])
    line = assert_one_data_error_line(result)
    assert line == ("data error: out of memory" + (f": {message}" if message else ""))
    assert not out.exists()


def test_score_out_of_memory_is_one_line_data_error(zoo_dir, monkeypatch):
    # every command maps MemoryError to exit 3, not only synth
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 1.00 TiB for an array")

    monkeypatch.setattr(metrics, "score_model", exhausted)
    result = CliRunner().invoke(main, ["score", "--input", str(zoo_dir)])
    assert assert_one_data_error_line(result) == (
        "data error: out of memory: Unable to allocate 1.00 TiB for an array")


def test_score_non_utf8_csv_is_data_error(tmp_path):
    path = tmp_path / "feats.csv"
    path.write_bytes(b"a,label\n0.5,0\n\xff1.5,1\n")
    result = CliRunner().invoke(main, ["score", "--input", str(path)])
    assert result.exit_code == 3, result.output
    assert "UTF-8" in result.output


def test_csv_feature_beyond_float32_is_one_line_data_error(tmp_path):
    # the float32 cast overflows in the command's own thread; its numpy
    # warning is silenced, and the non-finite feature is a data error
    path = tmp_path / "feats.csv"
    path.write_text("a,label\n0.5,0\n1e300,1\n0.25,0\n-1.5,1\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        result = CliRunner().invoke(main, ["score", "--input", str(path)])
    assert result.exit_code == 3, result.output
    assert result.stderr == (
        f"data error: {path}: non-finite feature value at flat index 1\n")


def test_evaluate_improvement_zero_for_identical_modes(zoo_dir, tmp_path):
    # scoring the same baseline twice under different mode labels gives a
    # 0% improvement
    scores = tmp_path / "scores.json"
    run_ok(["score", "--input", str(zoo_dir), "--metric", "gbc",
            "--mode", "none", "--out", str(scores)])
    payload = json.loads(scores.read_text())
    doubled = payload["records"] + [
        {**r, "mode": "sa", "perturbed": True} for r in payload["records"]
    ]
    payload["records"] = doubled
    scores.write_text(json.dumps(payload))
    reports = tmp_path / "reports"
    run_ok(["evaluate", "--scores", str(scores),
            "--truth", str(zoo_dir / "truth.csv"), "--out", str(reports)])
    imp = json.loads((reports / "improvement_sa.json").read_text())
    assert imp["rows"][0]["improvement_pct"] == 0.0


def test_evaluate_zero_baseline_reports_null_improvement(zoo_dir, tmp_path):
    # identical embeddings give every model the same score, so the baseline
    # tau is 0 and the relative improvement is undefined
    inputs = tmp_path / "twins"
    inputs.mkdir()
    for name in ("model-00", "model-01"):
        shutil.copy(zoo_dir / "model-00.emb1", inputs / f"{name}.emb1")
    scores = tmp_path / "scores.json"
    run_ok(["score", "--input", str(inputs), "--metric", "gbc",
            "--mode", "none", "--mode", "spread", "--out", str(scores)])
    args = ["evaluate", "--scores", str(scores),
            "--truth", str(zoo_dir / "truth.csv")]
    reports = tmp_path / "reports"
    result = run_ok(args + ["--out", str(reports)])
    assert "(n/a)" in result.output
    imp = json.loads((reports / "improvement_spread.json").read_text())
    assert imp["rows"][0]["mean_tau_before"] == 0.0
    assert imp["rows"][0]["improvement_pct"] is None
    doc = json.loads(run_ok(args + ["--format", "json"]).output)
    assert doc["improvement"]["spread"][0]["improvement_pct"] is None


def test_score_rerun_is_byte_identical_after_timing_strip(zoo_dir, tmp_path):
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["score", "--input", str(zoo_dir), "--metric", "gbc",
            "--metric", "lda", "--mode", "sa", "--seed", "9"]
    run_ok(args + ["--out", str(out_a)])
    run_ok(args + ["--out", str(out_b)])
    a = strip_timing(json.loads(out_a.read_text()))
    b = strip_timing(json.loads(out_b.read_text()))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_evaluate_rerun_is_byte_identical_after_timing_strip(zoo_dir, tmp_path):
    scores = tmp_path / "scores.json"
    run_ok(["score", "--input", str(zoo_dir), "--metric", "lda",
            "--mode", "sa", "--seed", "21", "--out", str(scores)])
    blobs = {}
    for tag in ("x", "y"):
        reports = tmp_path / f"reports_{tag}"
        run_ok(["evaluate", "--scores", str(scores),
                "--truth", str(zoo_dir / "truth.csv"), "--out", str(reports)])
        blobs[tag] = {
            p.name: json.dumps(strip_timing(json.loads(p.read_text())),
                               sort_keys=True)
            for p in sorted(reports.glob("*.json"))
        }
    assert blobs["x"] == blobs["y"]


def test_jobs_do_not_change_scores(zoo_dir, tmp_path):
    out_a, out_b = tmp_path / "j1.json", tmp_path / "j8.json"
    base = ["score", "--input", str(zoo_dir), "--seed", "13",
            "--mode", "raw", "--mode", "sa"]
    run_ok(base + ["--jobs", "1", "--out", str(out_a)])
    run_ok(base + ["--jobs", "8", "--out", str(out_b)])
    a = strip_timing(json.loads(out_a.read_text()))
    b = strip_timing(json.loads(out_b.read_text()))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_synth_jobs_do_not_change_outputs(tmp_path):
    # models have independent streams, so a pool of 3 writes what 1 does
    outs, stdout = {}, {}
    for jobs in ("1", "3"):
        outs[jobs] = tmp_path / f"zoo{jobs}"
        result = run_ok(["synth", "--models", "4", "--classes", "3",
                         "--per-class", "50", "--dim", "6", "--seed", "17",
                         "--jobs", jobs, "--format", "json",
                         "--out", str(outs[jobs])])
        stdout[jobs] = strip_timing(json.loads(result.stdout))
    names = sorted(p.name for p in outs["1"].iterdir())
    assert names == sorted(p.name for p in outs["3"].iterdir())
    for name in names:
        if name != "manifest.json":  # its runtime differs
            assert (outs["1"] / name).read_bytes() == (outs["3"] / name).read_bytes()
    assert stdout["1"] == stdout["3"]
    assert [m["model"] for m in stdout["1"]["models"]] == [
        f"model-{m:02d}" for m in range(4)]


def test_sweep_row_count(zoo_dir, tmp_path):
    out = tmp_path / "sweep.csv"
    run_ok(["sweep", "--input", str(zoo_dir),
            "--truth", str(zoo_dir / "truth.csv"),
            "--metric", "gbc", "--metric", "lda",
            "--alpha-grid", "0.001,0.01", "--sigma-grid", "0.5,0.6,0.7",
            "--seed", "1", "--out", str(out)])
    rows = read_csv(out)
    assert len(rows) == 2 * (2 + 3)
    per_metric = {m: 0 for m in ("gbc", "lda")}
    for row in rows:
        per_metric[row["metric"]] += 1
        assert -1.0 <= float(row["tau_w"]) <= 1.0
    assert per_metric == {"gbc": 5, "lda": 5}
    assert Path(str(out) + ".manifest.json").exists()


def test_sweep_manifest_records_every_scoring_flag(zoo_dir, tmp_path):
    truth = zoo_dir / "truth.csv"
    other_truth = tmp_path / "other_truth.csv"
    other_truth.write_text(
        truth.read_text() + "extra,synthetic,synthetic,synthetic,50\n")

    def manifest(*flags, truth_path=truth):
        out = tmp_path / "sweep.csv"
        run_ok(["sweep", "--input", str(zoo_dir), "--truth", str(truth_path),
                "--metric", "gbc", "--alpha-grid", "0.005", "--sigma-grid", "0.6",
                *flags, "--out", str(out)])
        return strip_timing(json.loads(Path(str(out) + ".manifest.json").read_text()))

    base = manifest()
    assert base["config"]["truth"] == str(truth)
    emb1 = {str(p) for p in zoo_dir.glob("*.emb1")}
    assert set(base["inputs"]) == emb1 | {str(truth)}
    for flags, field, value in [
        (["--label-col", "y"], "label_col", "y"),
        (["--attract-dir", "literal"], "attract_dir", "literal"),
        (["--pca-energy", "0.9"], "pca_energy", 0.9),
        (["--pca-rank", "3"], "pca_rank", 3),
        (["--nleep-k", "2"], "nleep_k", 2),
        (["--lda-eps", "0.001"], "lda_eps", 0.001),
    ]:
        got = manifest(*flags)
        assert got["config"] == {**base["config"], field: value}, flags
        assert got["inputs"] == base["inputs"], flags
    got = manifest(truth_path=other_truth)
    assert got["config"] == {**base["config"], "truth": str(other_truth)}
    assert set(got["inputs"]) == emb1 | {str(other_truth)}
    assert got["inputs"][str(other_truth)] != base["inputs"][str(truth)]


def test_sweep_single_cell_matches_score_evaluate(zoo_dir, tmp_path):
    # the default (alpha, sigma) as both cells, then a 2x2 grid: each sweep
    # cell equals score + evaluate at its (alpha, sigma)
    for alpha_grid, sigma_grid in (("0.005", "0.6"), ("0.001,0.02", "0.5,0.9")):
        sweep_csv = tmp_path / "sweep.csv"
        run_ok(["sweep", "--input", str(zoo_dir),
                "--truth", str(zoo_dir / "truth.csv"), "--metric", "gbc",
                "--alpha-grid", alpha_grid, "--sigma-grid", sigma_grid,
                "--seed", "2", "--jobs", "2", "--out", str(sweep_csv)])
        rows = read_csv(sweep_csv)
        assert len(rows) == 2 + alpha_grid.count(",") + sigma_grid.count(",")
        for row in rows:
            scores = tmp_path / "scores.json"
            run_ok(["score", "--input", str(zoo_dir), "--metric", "gbc",
                    "--mode", "sa", "--alpha", row["alpha"],
                    "--sigma", row["sigma"], "--seed", "2", "--out", str(scores)])
            reports = tmp_path / "reports"
            run_ok(["evaluate", "--scores", str(scores),
                    "--truth", str(zoo_dir / "truth.csv"), "--out", str(reports)])
            rep = json.loads((reports / "report_gbc_sa.json").read_text())
            assert rep["tau_w"] == float(row["tau_w"]), row


def test_every_sweep_row_is_score_then_evaluate_at_its_cell(tmp_path):
    # 4 metrics x 4 cells on a graded 5-model zoo: each row's tau_w is the
    # one `score --mode sa` at that row's (alpha, sigma) and `evaluate` give
    zoo = tmp_path / "zoo"
    run_ok(["synth", "--models", "5", "--classes", "4", "--per-class", "30",
            "--dim", "8", "--rho-range", "0.05:0.3", "--seed", "7", "--out", str(zoo)])
    truth = str(zoo / "truth.csv")
    sweep_csv = tmp_path / "sweep.csv"
    run_ok(["sweep", "--input", str(zoo), "--truth", truth,
            "--alpha-grid", "0.001,0.05", "--sigma-grid", "0.5,0.9",
            "--seed", "3", "--out", str(sweep_csv)])
    rows = read_csv(sweep_csv)
    cells = sorted({(row["alpha"], row["sigma"]) for row in rows})
    assert len(cells) == 4 and len(rows) == 4 * len(METRICS)
    tau_w = {}
    for alpha, sigma in cells:
        scores, reports = tmp_path / f"{alpha}-{sigma}.json", tmp_path / f"{alpha}-{sigma}"
        run_ok(["score", "--input", str(zoo), "--mode", "sa", "--alpha", alpha,
                "--sigma", sigma, "--seed", "3", "--out", str(scores)])
        run_ok(["evaluate", "--scores", str(scores), "--truth", truth,
                "--out", str(reports)])
        for metric in METRICS:
            report = json.loads((reports / f"report_{metric}_sa.json").read_text())
            tau_w[(metric, alpha, sigma)] = report["tau_w"]
    assert {(row["metric"], row["alpha"], row["sigma"]): float(row["tau_w"])
            for row in rows} == tau_w
    # each metric ranks the zoo differently in some two cells, so a row
    # paired with another cell's record would show
    assert all(len({tau_w[(metric, *cell)] for cell in cells}) > 1
               for metric in METRICS)


ALL_MODES = ["--mode", "raw", "--mode", "none", "--mode", "spread",
             "--mode", "attract", "--mode", "sa"]


@pytest.mark.parametrize("args,fit_pca,spread,class_geometry", [
    # score with 4 metrics x every mode, or sweep over its 9 default cells:
    # one PCA fit, one spread and a class geometry of the reduced and of
    # the spread set per model. A raw-only score runs none of them
    pytest.param(["score", *ALL_MODES], 1, 1, 2, id="score"),
    pytest.param(["sweep"], 1, 1, 2, id="sweep"),
    pytest.param(["score", "--mode", "none"], 1, 0, 0, id="none"),
    pytest.param(["score", "--mode", "spread"], 1, 1, 1, id="spread"),
    pytest.param(["score", "--mode", "attract"], 1, 0, 1, id="attract"),
    pytest.param(["score", "--mode", "raw"], 0, 0, 0, id="raw"),
    # the reduced set outlives the spread stage built from it: no refit
    pytest.param(["score", "--mode", "sa", "--mode", "none"], 1, 1, 2, id="sa-none"),
])
def test_shared_stages_run_once_per_model(zoo_dir, monkeypatch, args, fit_pca,
                                          spread, class_geometry):
    import terank.perturbation as perturbation

    calls = Counter()
    for name in ("fit_pca", "spread", "class_geometry"):
        def counted(ds, *args, _fn=getattr(perturbation, name), _name=name,
                    **kwargs):
            calls[(_name, ds.model_id)] += 1
            return _fn(ds, *args, **kwargs)

        monkeypatch.setattr(perturbation, name, counted)
    if args[0] == "sweep":
        args = args + ["--truth", str(zoo_dir / "truth.csv")]
    run_ok(args + ["--input", str(zoo_dir)])
    expect = {"fit_pca": fit_pca, "spread": spread, "class_geometry": class_geometry}
    assert calls == Counter({(name, path.stem): count
                             for path in sorted(zoo_dir.glob("*.emb1"))
                             for name, count in expect.items() if count})


def test_raw_records_are_the_metric_on_the_input_features(zoo_dir, tmp_path):
    # mode raw scores each loaded set as it is, with the model's seed
    seed = 2**63 + 9
    out = tmp_path / "scores.json"
    run_ok(["score", "--input", str(zoo_dir), "--mode", "raw", "--seed", str(seed),
            "--out", str(out)])
    records = json.loads(out.read_text())["records"]
    files = sorted(zoo_dir.glob("*.emb1"))
    raw = [PerturbConfig(mode="raw")]
    assert [(r["model"], r["metric"], r["score"]) for r in records] == [
        (rec.model_id, rec.metric, rec.score)
        for i, path in enumerate(files)
        for rec in score_model(load_emb1(path), METRICS, raw, seed=seed ^ i)]
    assert all(r["mode"] == "raw" and r["perturbed"] is False for r in records)


def test_raw_score_that_is_not_finite_names_its_input(zoo_dir, monkeypatch):
    # every metric stays finite on float32 inputs, so a gbc that returns
    # NaN stands in for one that does not
    monkeypatch.setattr(metrics, "score_gbc", lambda ds: float("nan"))
    result = CliRunner().invoke(main, ["score", "--input", str(zoo_dir),
                                       "--mode", "raw", "--metric", "gbc"])
    assert result.exit_code == 4, result.output
    assert result.stderr.splitlines() == [
        f"numeric failure: {zoo_dir / 'model-00.emb1'}: gbc score is not finite (nan)"]


def test_score_repeated_metric_and_mode_match_single_flags(zoo_dir):
    base = ["score", "--input", str(zoo_dir), "--format", "json"]
    repeated = run_ok(base + ["--metric", "lda", "--metric", "gbc", "--metric", "lda",
                              "--mode", "sa", "--mode", "none", "--mode", "sa",
                              "--mode", "raw", "--mode", "raw"])
    single = run_ok(base + ["--metric", "lda", "--metric", "gbc",
                            "--mode", "sa", "--mode", "none", "--mode", "raw"])
    a, b = (strip_timing(json.loads(r.stdout)) for r in (repeated, single))
    assert [(r["metric"], r["mode"]) for r in a["records"][:4]] == [
        ("lda", "sa"), ("gbc", "sa"), ("lda", "none"), ("gbc", "none")]
    assert a == b


def test_sweep_repeated_metric_matches_single_flag(zoo_dir):
    base = ["sweep", "--input", str(zoo_dir), "--truth", str(zoo_dir / "truth.csv"),
            "--alpha-grid", "0.005", "--sigma-grid", "0.6", "--format", "json"]
    repeated = run_ok(base + ["--metric", "gbc", "--metric", "gbc"])
    single = run_ok(base + ["--metric", "gbc"])
    assert json.loads(repeated.stdout) == json.loads(single.stdout)
    assert len(json.loads(single.stdout)["rows"]) == 2


def test_sweep_default_grids(zoo_dir, tmp_path):
    out = tmp_path / "sweep.csv"
    run_ok(["sweep", "--input", str(zoo_dir),
            "--truth", str(zoo_dir / "truth.csv"), "--metric", "gbc",
            "--seed", "8", "--out", str(out)])
    rows = read_csv(out)
    assert len(rows) == 4 + 5  # default alpha grid + default sigma grid
    alphas = [float(r["alpha"]) for r in rows[:4]]
    sigmas = [float(r["sigma"]) for r in rows[4:]]
    assert alphas == [0.001, 0.005, 0.01, 0.05]
    assert sigmas == [0.5, 0.6, 0.7, 0.8, 0.9]
    assert {float(r["sigma"]) for r in rows[:4]} == {0.6}
    assert {float(r["alpha"]) for r in rows[4:]} == {0.005}


def test_nleep_reduced_is_faster_than_full_dimension(tmp_path):
    # high-dimensional inputs: the mixture fit dominates nleep, so the
    # reduced space must not be slower than the raw one, over the pool
    zoo = tmp_path / "wide_zoo"
    run_ok(["synth", "--models", "2", "--classes", "3", "--per-class", "500",
            "--dim", "256", "--rho-range", "1:2", "--noise-range", "1:1",
            "--seed", "6", "--out", str(zoo)])
    out = tmp_path / "scores.json"
    run_ok(["score", "--input", str(zoo), "--metric", "nleep",
            "--mode", "raw", "--mode", "none", "--pca-rank", "8",
            "--nleep-k", "16", "--seed", "2", "--out", str(out)])
    seconds = Counter()
    for rec in json.loads(out.read_text())["records"]:
        seconds[rec["mode"]] += rec["wall_time_s"]
    assert seconds["none"] <= seconds["raw"]


def test_score_stdout_formats(zoo_dir):
    result = run_ok(["score", "--input", str(zoo_dir), "--metric", "gbc",
                     "--format", "json"])
    payload = json.loads(result.output)
    assert payload["records"]
    result = run_ok(["score", "--input", str(zoo_dir), "--metric", "gbc",
                     "--format", "csv"])
    rows = list(csv.DictReader(result.output.splitlines()))
    assert rows and set(rows[0]) == {"model", "metric", "mode", "score",
                                     "wall_time_s"}


def test_evaluate_against_bundled_truth(tmp_path):
    # hand-built score records for the supervised pool rank against the
    # bundled accuracy tables without any --truth flag
    models = ["ResNet-34", "ResNet-50", "ResNet-101", "ResNet-152",
              "DenseNet-121", "DenseNet-169", "DenseNet-201", "MNet-A1",
              "MobileNetV2", "Googlenet", "InceptionV3"]
    records = [
        {"model": m, "dataset": "Pets", "metric": "logme", "mode": "sa",
         "perturbed": True, "score": float(i), "wall_time_s": 0.0}
        for i, m in enumerate(models)
    ]
    scores = tmp_path / "scores.json"
    scores.write_text(json.dumps(
        {"manifest": {"config": {}, "inputs": {}, "runtime": {},
                      "version": "0.1.0", "command": "score"},
         "records": records}
    ))
    reports = tmp_path / "reports"
    run_ok(["evaluate", "--scores", str(scores), "--dataset", "Pets",
            "--regime", "vanilla", "--pool", "supervised",
            "--out", str(reports)])
    doc = json.loads((reports / "report_logme_sa.json").read_text())
    assert len(doc["models"]) == 11
    assert -1.0 <= doc["tau_w"] <= 1.0
    by_id = {m["id"]: m for m in doc["models"]}
    assert by_id["ResNet-50"]["accuracy"] == 93.88


def test_custom_label_column(tmp_path):
    path = tmp_path / "feats.csv"
    rows = ["a,b,target"]
    rng_vals = [(0.1, 0.2, 7), (1.1, 1.3, 9), (0.2, 0.1, 7), (1.3, 1.2, 9)]
    rows += [f"{a},{b},{t}" for a, b, t in rng_vals]
    path.write_text("\n".join(rows) + "\n")
    result = run_ok(["score", "--input", str(path), "--label-col", "target",
                     "--metric", "gbc", "--mode", "none", "--format", "json"])
    payload = json.loads(result.output)
    assert payload["records"][0]["metric"] == "gbc"


def test_csv_embedding_input(zoo_dir, tmp_path):
    # CSV feature files work as explicit inputs
    from terank import load_emb1

    ds = load_emb1(zoo_dir / "model-00.emb1")
    lines = [",".join(f"f{i}" for i in range(ds.feature_dim)) + ",label"]
    for row, lab in zip(ds.features, ds.labels):
        lines.append(",".join(repr(float(v)) for v in row) + f",{lab}")
    csv_path = tmp_path / "model-00.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    result = run_ok(["score", "--input", str(csv_path), "--metric", "gbc",
                     "--format", "json"])
    payload = json.loads(result.output)
    assert payload["records"][0]["model"] == "model-00"


@pytest.mark.parametrize("kind", ["truth", "scores", "csv"])
def test_utf8_bom_reads_as_its_twin_without_one(zoo_dir, zoo_scores, tmp_path, kind):
    # a truth CSV, a score JSON or an embedding CSV (label first) that
    # starts with a UTF-8 byte-order mark gives the same output as its
    # twin without one; manifests differ by the input's digest
    ds = load_emb1(zoo_dir / "model-00.emb1")
    emb_csv = tmp_path / "model-00.csv"
    emb_csv.write_text("label," + ",".join(f"f{i}" for i in range(ds.feature_dim))
                       + "".join(f"\n{lab}," + ",".join(repr(float(v)) for v in row)
                                 for row, lab in zip(ds.features, ds.labels)) + "\n")
    plain = {"truth": zoo_dir / "truth.csv", "scores": zoo_scores, "csv": emb_csv}[kind]
    bom = tmp_path / "bom" / plain.name
    bom.parent.mkdir()
    bom.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
    outputs = []
    for path in (plain, bom):
        inputs = {"truth": zoo_dir / "truth.csv", "scores": zoo_scores, kind: path}
        args = (["score", "--input", str(path), "--metric", "gbc", "--mode", "none"]
                if kind == "csv" else
                ["evaluate", "--scores", str(inputs["scores"]),
                 "--truth", str(inputs["truth"])])
        payload = json.loads(run_ok(args + ["--format", "json"]).stdout)
        outputs.append(strip_timing({k: v for k, v in payload.items()
                                     if k != "manifest"}))
    assert outputs[0] == outputs[1]


def test_evaluate_writes_utf8_under_an_ascii_locale(zoo_scores, tmp_path):
    # a model name outside ASCII reaches the plot CSVs; they are UTF-8
    # whatever the locale, here ASCII without UTF-8 mode or locale coercion
    payload = json.loads(zoo_scores.read_text(encoding="utf-8"))
    for record in payload["records"]:
        record["model"] = record["model"].replace("model", "modèle")
    (tmp_path / "scores.json").write_text(json.dumps(payload), encoding="utf-8")
    write_truth(TruthTable({(f"modèle-0{m}", "synthetic", "synthetic", "synthetic"):
                            50.0 + m for m in range(4)}), tmp_path / "truth.csv")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONUTF8": "0", "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "terank.cli", "evaluate", "--scores", "scores.json",
         "--truth", "truth.csv", "--out", "reports"],
        cwd=tmp_path, env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    plot = (tmp_path / "reports" / "plot_gbc_sa.csv").read_bytes().decode("utf-8")
    assert [row[2] for row in csv.reader(plot.splitlines())][1:] == [
        f"modèle-0{m}" for m in range(4)]


def test_score_then_evaluate_join_utf8_names_under_an_ascii_locale(zoo_dir, tmp_path):
    # a model id is its file name's stem as UTF-8 text, whatever encoding
    # the locale decodes file names with, so a pool scored under an ASCII
    # locale joins the UTF-8 truth CSV that names its models
    pool = tmp_path / "pool"
    pool.mkdir()
    for m in range(4):
        shutil.copy(zoo_dir / f"model-0{m}.emb1",
                    pool / os.fsdecode(f"modèle-0{m}.emb1".encode()))
    write_truth(TruthTable({(f"modèle-0{m}", "synthetic", "synthetic", "synthetic"):
                            50.0 + m for m in range(4)}), tmp_path / "truth.csv")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONUTF8": "0", "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for args in (["score", "--input", "pool", "--metric", "gbc", "--mode", "none",
                  "--out", "scores.json"],
                 ["evaluate", "--scores", "scores.json", "--truth", "truth.csv",
                  "--out", "reports"]):
        proc = subprocess.run([sys.executable, "-m", "terank.cli", *args], cwd=tmp_path,
                              env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")
        if args[0] == "score":
            records = json.loads((tmp_path / "scores.json").read_text(encoding="utf-8"))
            assert [r["model"] for r in records["records"]] == [
                f"modèle-0{m}" for m in range(4)]


@pytest.mark.parametrize("as_directory", [True, False])
def test_a_file_name_that_is_not_utf8_is_refused_before_any_model_loads(
        zoo_dir, tmp_path, monkeypatch, as_directory):
    # the byte 0xE8 alone ("è" in Latin-1) names no UTF-8 text, so the
    # name gives no model id; it is refused with the duplicate-id check
    bad = tmp_path / os.fsdecode(b"mod\xe8le.emb1")
    try:
        shutil.copy(zoo_dir / "model-00.emb1", bad)
    except OSError:
        pytest.skip("the file system refuses a name that is not UTF-8")
    shutil.copy(zoo_dir / "model-01.emb1", tmp_path / "model-01.emb1")

    def load(*args):
        raise AssertionError("a model loaded before its name was checked")

    monkeypatch.setattr(cli, "_load_set", load)
    inputs = (["--input", str(tmp_path)] if as_directory else
              ["--input", str(tmp_path / "model-01.emb1"), "--input", str(bad)])
    result = CliRunner().invoke(main, ["score", *inputs, "--metric", "gbc"])
    line = assert_one_data_error_line(result)
    shown = str(bad).encode("utf-8", "backslashreplace").decode()
    assert line == f"data error: {shown}: file name is not UTF-8"


def test_synth_truth_csv_bytes():
    # zoobench digests truth.csv: its header, row order, CRLF line ends and
    # repr accuracies are pinned
    with CliRunner().isolated_filesystem():
        run_ok(["synth", "--models", "3", "--classes", "3", "--per-class", "7",
                "--dim", "2", "--rho-range", "0.5:2", "--seed", "7",
                "--out", "zoo"])
        assert Path("zoo/truth.csv").read_bytes() == (
            b"model,dataset,regime,pool,accuracy\r\n"
            b"model-00,synthetic,synthetic,synthetic,38.095238095238095\r\n"
            b"model-01,synthetic,synthetic,synthetic,100.0\r\n"
            b"model-02,synthetic,synthetic,synthetic,100.0\r\n")


@pytest.mark.parametrize("existing", [False, True])
def test_synth_zero_accuracy_is_one_line_data_error(tmp_path, existing):
    # synth's truth table obeys the (0, 100] rule that evaluate reads it by,
    # so it never writes a zoo its own evaluate rejects
    out = tmp_path / "zoo"
    if existing:
        out.mkdir()
        (out / "keep.txt").write_text("kept")
    result = CliRunner().invoke(main, [
        "synth", "--models", "2", "--classes", "2", "--per-class", "2",
        "--dim", "2", "--rho-range", "0.05:0.05", "--seed", "5",
        "--out", str(out)])
    line = assert_one_data_error_line(result)
    assert "model-00" in line and "outside (0, 100]" in line, line
    if existing:
        assert [p.name for p in out.iterdir()] == ["keep.txt"]
    else:
        assert not out.exists()


@pytest.mark.parametrize("jobs", [1, 2])
def test_synth_stops_at_the_first_bad_accuracy(tmp_path, monkeypatch, jobs):
    # each pool task checks its model's accuracy, and the pool cancels the
    # models not yet started, so a bad model-00 stops the zoo before all of
    # them are drawn; the later models wait, so the check comes first
    calls = []

    def counted(cfg, m, consume):
        calls.append(m)
        if m:
            time.sleep(0.05)
        return draw_zoo_model(cfg, m, consume)

    draw_zoo_model = synth.draw_zoo_model
    monkeypatch.setattr(synth, "draw_zoo_model", counted)
    result = CliRunner().invoke(main, [
        "synth", "--models", "6", "--classes", "2", "--per-class", "2",
        "--dim", "2", "--rho-range", "0.05:0.05", "--seed", "5",
        "--jobs", str(jobs), "--out", str(tmp_path / "zoo")])
    line = assert_one_data_error_line(result)
    assert "model-00" in line and "outside (0, 100]" in line, line
    assert 0 in calls and len(calls) < 6, calls


@pytest.mark.parametrize("before,after", [(4, 3), (3, 3), (3, 4)])
def test_synth_refuses_an_older_zoo_model_it_would_not_replace(tmp_path, monkeypatch,
                                                               before, after):
    # score reads every .emb1 file of a directory, so a smaller zoo written
    # over a larger one would be scored with the older zoo's extra models;
    # such a run is refused before any model is drawn, and other files, or
    # as many models or more, are no obstacle
    args = ["synth", "--classes", "2", "--per-class", "5", "--dim", "3",
            "--seed", "1", "--models"]
    out, fresh = tmp_path / "zoo", tmp_path / "fresh"
    run_ok(args + [str(before), "--out", str(out)])
    (out / "keep.txt").write_text("kept")
    found = {p.name: p.read_bytes() for p in out.iterdir()}
    drawn = []

    def counted(cfg, m, consume):
        drawn.append(m)
        return draw_zoo_model(cfg, m, consume)

    draw_zoo_model = synth.draw_zoo_model
    monkeypatch.setattr(synth, "draw_zoo_model", counted)
    result = CliRunner().invoke(main, args + [str(after), "--out", str(out)])
    if after < before:
        assert assert_one_data_error_line(result) == (
            f"data error: --out {out} holds model-03.emb1, which this 3-model zoo "
            f"does not write; remove it or choose another --out")
        assert drawn == []
        assert {p.name: p.read_bytes() for p in out.iterdir()} == found
        return
    assert result.exit_code == 0, result.output
    run_ok(args + [str(after), "--out", str(fresh)])
    written = sorted(p.name for p in fresh.iterdir() if p.name != "manifest.json")
    assert [f"model-{m:02d}.emb1" for m in range(after)] + ["truth.csv"] == written
    assert sorted(p.name for p in out.iterdir()) == sorted(
        written + ["keep.txt", "manifest.json"])
    assert all((out / name).read_bytes() == (fresh / name).read_bytes()
               for name in written)


@pytest.fixture(scope="module")
def zoo_scores(zoo_dir, tmp_path_factory):
    scores = tmp_path_factory.mktemp("scores") / "scores.json"
    run_ok(["score", "--input", str(zoo_dir), "--metric", "gbc",
            "--out", str(scores)])
    return scores


@pytest.mark.parametrize("flag", ["--regime", "--pool"])
def test_evaluate_unknown_regime_or_pool_is_a_usage_error(zoo_scores, tmp_path, flag):
    out = tmp_path / "reports"
    result = CliRunner().invoke(main, ["evaluate", "--scores", str(zoo_scores),
                                       flag, "bogus", "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert f"Invalid value for '{flag}'" in result.output
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "sweep"])
@pytest.mark.parametrize("content,where", [
    pytest.param(b"model,dataset,regime,pool,accuracy\n"
                 b"model-00,synthetic,synthetic,synthetic,5\xff0\n", "", id="not-utf8"),
    pytest.param(b"model,dataset\nmodel-00,synthetic,synthetic\n", "", id="ragged"),
    pytest.param(b"model,dataset,regime,pool,accuracy\n"
                 b"model-00,synthetic,foo,synthetic,50\n", ": line 2", id="unknown-regime"),
    pytest.param(b"model,dataset,regime,pool,accuracy\n"
                 b"model-00,synthetic,synthetic,synthetic,150\n", ": line 2", id="accuracy"),
    pytest.param(b"model,dataset,regime,pool,accuracy\n"
                 b"model-00,synthetic,synthetic,synthetic,50\n"
                 b",synthetic,synthetic,synthetic,50\n", ": line 3", id="empty-model"),
    pytest.param(b"model,dataset,regime,pool,accuracy\n"
                 b"model-00,synthetic,synthetic,foo,50\n", ": line 2", id="unknown-pool"),
])
def test_unreadable_truth_is_one_line_data_error(zoo_dir, zoo_scores, tmp_path,
                                                 command, content, where):
    # a row that breaks a table rule is named by its file and line
    truth = tmp_path / "truth.csv"
    truth.write_bytes(content)
    args = {"evaluate": ["evaluate", "--scores", str(zoo_scores)],
            "sweep": ["sweep", "--input", str(zoo_dir), "--metric", "gbc",
                      "--alpha-grid", "0.005", "--sigma-grid", "0.6"]}[command]
    result = CliRunner().invoke(main, args + ["--truth", str(truth)])
    assert f"{truth}{where}" in assert_one_data_error_line(result)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_checks_the_truth_table_before_scoring(zoo_dir, monkeypatch, jobs):
    # a --dataset with no truth row for the pool's models fails as the
    # first model loads, before any model is scored
    calls = []
    monkeypatch.setattr(metrics, "score_model",
                        lambda *args, **kwargs: calls.append(args))
    result = CliRunner().invoke(main, [
        "sweep", "--input", str(zoo_dir), "--truth", str(zoo_dir / "truth.csv"),
        "--dataset", "Pets", "--metric", "gbc", "--jobs", jobs])
    assert assert_one_data_error_line(result) == (
        f"data error: {zoo_dir / 'model-00.emb1'}: no ground truth for model "
        "'model-00' under (dataset=Pets, regime=synthetic, pool=synthetic)")
    assert calls == []


@pytest.mark.parametrize("command", ["evaluate", "sweep"])
def test_a_slice_no_bundled_table_holds_needs_truth(zoo_dir, zoo_scores, monkeypatch,
                                                    command):
    # without --truth, the default synthetic slice is in no bundled table:
    # one line names the slice and --truth, and no model is loaded
    loads = []
    monkeypatch.setattr(cli, "_load_set", lambda *args: loads.append(args))
    args = {"evaluate": ["evaluate", "--scores", str(zoo_scores)],
            "sweep": ["sweep", "--input", str(zoo_dir), "--metric", "gbc"]}[command]
    result = CliRunner().invoke(main, args)
    assert assert_one_data_error_line(result) == (
        "data error: no bundled truth under (dataset=synthetic, regime=synthetic, "
        "pool=synthetic); give a truth CSV with --truth")
    assert loads == []


def test_evaluate_without_score_records_is_a_data_error(zoo_scores, tmp_path):
    payload = json.loads(zoo_scores.read_text())
    scores = tmp_path / "scores.json"
    scores.write_text(json.dumps({**payload, "records": []}))
    out = tmp_path / "reports"
    result = CliRunner().invoke(main, ["evaluate", "--scores", str(scores),
                                       "--out", str(out)])
    assert assert_one_data_error_line(result) == (
        f"data error: no score records in {scores}")
    assert not out.exists()


# the parameters that say how or where a command runs, not what it computes
RUN_PARAMS = {"inputs", "out", "jobs", "fmt"}


def written_manifest(command, zoo_dir, zoo_scores, out):
    """Run `command` with --out `out` and return the manifest it wrote."""
    truth = str(zoo_dir / "truth.csv")
    if command == "synth":
        run_ok(["synth", "--models", "2", "--classes", "2", "--per-class", "4",
                "--dim", "2", "--out", str(out)])
        return json.loads((out / "manifest.json").read_text())
    if command == "score":
        run_ok(["score", "--input", str(zoo_dir), "--metric", "gbc",
                "--out", str(out)])
        return json.loads(out.read_text())["manifest"]
    if command == "evaluate":
        run_ok(["evaluate", "--scores", str(zoo_scores), "--truth", truth,
                "--out", str(out)])
        return json.loads((out / "report_gbc_sa.json").read_text())["manifest"]
    run_ok(["sweep", "--input", str(zoo_dir), "--truth", truth, "--metric", "gbc",
            "--alpha-grid", "0.005", "--sigma-grid", "0.6", "--out", str(out)])
    return json.loads(Path(str(out) + ".manifest.json").read_text())


@pytest.mark.parametrize("command", ["synth", "score", "evaluate", "sweep"])
def test_manifest_config_holds_every_computing_parameter(zoo_dir, zoo_scores,
                                                         tmp_path, command):
    manifest = written_manifest(command, zoo_dir, zoo_scores, tmp_path / "out")
    params = {p.name for p in main.commands[command].params}
    assert manifest["command"] == command
    assert set(manifest["config"]) == params - RUN_PARAMS
    if "jobs" in params:
        assert manifest["runtime"]["jobs"] == 1


def test_default_score_and_evaluate_configs(zoo_dir, zoo_scores, tmp_path):
    score = written_manifest("score", zoo_dir, zoo_scores, tmp_path / "s.json")
    assert score["config"] == {
        "label_col": "label", "metrics": ["gbc"], "modes": ["sa"],
        "alpha": 0.005, "sigma": 0.6, "attract_dir": "toward",
        "pca_energy": None, "pca_rank": None, "nleep_k": None, "lda_eps": 1e-4,
        "seed": 0,
    }
    evaluate = written_manifest("evaluate", zoo_dir, zoo_scores, tmp_path / "r")
    assert evaluate["config"] == {
        "scores": str(zoo_scores), "truth": str(zoo_dir / "truth.csv"),
        "dataset": "synthetic", "regime": "synthetic", "pool": "synthetic",
        "weighting": "symmetric", "seed": 0,
    }
    # the bundled tables stand in for an absent --truth
    payload = json.loads(zoo_scores.read_text())
    resnets = ["ResNet-34", "ResNet-50", "ResNet-101", "ResNet-152"]
    for rec in payload["records"]:
        rec.update(model=resnets[int(rec["model"][-2:])], dataset="Pets")
    pets = tmp_path / "pets.json"
    pets.write_text(json.dumps(payload))
    result = run_ok(["evaluate", "--scores", str(pets), "--dataset", "Pets",
                     "--regime", "vanilla", "--pool", "supervised",
                     "--format", "json"])
    assert json.loads(result.stdout)["manifest"]["config"] == {
        "scores": str(pets), "truth": "bundled", "dataset": "Pets",
        "regime": "vanilla", "pool": "supervised", "weighting": "symmetric",
        "seed": 0,
    }


def emb1_with(src: Path, dst: Path, *, feature=None, label=None) -> Path:
    """Copy EMB1 file `src` to `dst` with its first feature value or its
    last label replaced."""
    raw = bytearray(src.read_bytes())
    if feature is not None:
        raw[20:24] = struct.pack("<f", feature)
    if label is not None:
        raw[-4:] = struct.pack("<I", label)
    dst.write_bytes(bytes(raw))
    return dst


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("command", ["score", "sweep"])
@pytest.mark.parametrize("case", ["nan-feature", "label-too-large", "header-only-csv",
                                  "empty-csv", "short-row", "text-label",
                                  "alpha-overflow"])
def test_model_failure_names_its_input(zoo_dir, tmp_path, command, jobs, case):
    # a data or numeric failure of one model in a pool says which input
    # file it came from, at every --jobs, with the exit code unchanged
    first = zoo_dir / "model-00.emb1"
    if case == "nan-feature":
        bad = emb1_with(first, tmp_path / "bad.emb1", feature=float("nan"))
        code, line = 3, f"data error: {bad}: non-finite feature value at flat index 0"
    elif case == "label-too-large":
        bad = emb1_with(first, tmp_path / "bad.emb1", label=7)
        code, line = 3, (f"data error: {bad}: labels must lie in [0, 3), "
                         "got range [0, 7]")
    elif case == "header-only-csv":
        bad = tmp_path / "bad.csv"
        bad.write_text("f0,f1,label\n")
        code, line = 3, f"data error: {bad}: need at least 2 samples, got 0"
    elif case in ("empty-csv", "short-row", "text-label"):
        bad = tmp_path / "bad.csv"
        bad.write_text({"empty-csv": "", "short-row": "f0,f1,label\n1,2,0\n3,4\n",
                        "text-label": "f0,f1,label\n1,2,0\n3,4,b\n"}[case])
        code, line = 3, f"data error: {bad}: " + {
            "empty-csv": "empty file", "short-row": "line 3: 2 cells, expected 3",
            "text-label": "line 3: label 'b' is not an integer"}[case]
    else:
        bad = None
        code, line = 4, f"numeric failure: {first}: logme score is not finite (nan)"
    args = [command, "--input", str(zoo_dir), "--jobs", jobs]
    if bad is None:
        args += ["--alpha", "1e300", "--metric", "logme"]
    else:
        args += ["--input", str(bad), "--metric", "gbc"]
    if command == "sweep":
        args += ["--truth", str(zoo_dir / "truth.csv"), "--alpha-grid", "0.005",
                 "--sigma-grid", "0.6"]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == code, result.output
    # logme's fixed-point warnings go through logging; the error is one line
    errors = [text for text in result.stderr.splitlines()
              if text.startswith(("data error: ", "numeric failure: "))]
    assert errors == [line]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_a_repeated_warning_is_one_stderr_line(zoo_dir, jobs):
    # every class of every model stops logme's fixed point alike at
    # --alpha 1e300; the warning is printed once, and the handler that
    # printed it is gone when the command ends, so a second run in the
    # same process prints the same two lines
    logger = logging.getLogger("terank")
    handlers = list(logger.handlers)
    args = ["score", "--input", str(zoo_dir), "--metric", "logme", "--alpha", "1e300",
            "--mode", "sa", "--jobs", jobs]
    for _ in range(2):
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 4, result.output
        assert result.stderr.splitlines() == [
            LOGME_NOT_FINITE,
            f"numeric failure: {zoo_dir / 'model-00.emb1'}: logme score is not "
            "finite (nan)"]
        assert logger.handlers == handlers


@pytest.mark.parametrize("existing", [False, True])
def test_failed_evaluate_leaves_out_as_it_found_it(zoo_dir, tmp_path, monkeypatch,
                                                   existing):
    scores = tmp_path / "scores.json"
    run_ok(["score", "--input", str(zoo_dir), "--metric", "gbc", "--mode", "none",
            "--mode", "sa", "--out", str(scores)])
    out = tmp_path / "reports"
    if existing:
        out.mkdir()
        (out / "report_gbc_none.json").write_text("old")
    write_text = Path.write_text
    calls = []

    def full_disk(self, *args, **kwargs):
        # the third file of the report set finds the disk full
        calls.append(self)
        if len(calls) == 3:
            raise OSError(28, "No space left on device")
        return write_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", full_disk)
    result = CliRunner().invoke(main, ["evaluate", "--scores", str(scores),
                                       "--truth", str(zoo_dir / "truth.csv"),
                                       "--out", str(out)])
    monkeypatch.undo()
    assert result.exit_code == 3, result.output
    assert len(calls) == 3
    if existing:
        assert [p.name for p in out.iterdir()] == ["report_gbc_none.json"]
        assert (out / "report_gbc_none.json").read_text() == "old"
    else:
        assert not out.exists()


def test_a_failed_block_stops_its_clean_up_at_a_directory_another_writer_filled(
        tmp_path):
    # _all_or_nothing creates `a` and `a/b`; a file another writer puts in
    # `a` meanwhile keeps `a`, while the staging directory and `b` go
    out = tmp_path / "a" / "b"
    with pytest.raises(RuntimeError, match="^block failed$"):
        with cli._all_or_nothing(out) as stage:
            (stage / "report.json").write_text("{}")
            (tmp_path / "a" / "other.txt").write_text("theirs")
            raise RuntimeError("block failed")
    assert [p.name for p in tmp_path.iterdir()] == ["a"]
    assert [p.name for p in (tmp_path / "a").iterdir()] == ["other.txt"]


def test_a_directory_at_any_report_name_fails_before_any_move(zoo_dir, tmp_path):
    # a report set of 9 files; with a directory at any one of its names,
    # evaluate exits 3 and the 8 old files under the other names are kept
    scores = tmp_path / "scores.json"
    run_ok(["score", "--input", str(zoo_dir), "--metric", "gbc", "--metric", "lda",
            "--mode", "none", "--mode", "sa", "--out", str(scores)])
    args = ["evaluate", "--scores", str(scores), "--truth", str(zoo_dir / "truth.csv")]
    run_ok(args + ["--out", str(tmp_path / "fresh")])
    names = sorted(p.name for p in (tmp_path / "fresh").iterdir())
    assert len(names) == 9
    for i, blocked in enumerate(names):
        out = tmp_path / f"reports-{i}"
        out.mkdir()
        for name in names:
            (out / name).write_text("old")
        (out / blocked).unlink()
        (out / blocked).mkdir()
        result = CliRunner().invoke(main, args + ["--out", str(out)])
        assert result.exit_code == 3, result.output
        assert {n: (out / n).read_text() for n in names if n != blocked} == {
            n: "old" for n in names if n != blocked}, blocked
        assert sorted(p.name for p in out.iterdir()) == names
        assert (out / blocked).is_dir() and not any((out / blocked).iterdir())
        assert result.stderr == f"i/o error: {out / blocked} is a directory\n"


@pytest.mark.parametrize("existing", [False, True])
def test_sweep_with_a_directory_at_its_manifest_name_writes_no_csv(zoo_dir, tmp_path,
                                                                   existing):
    out = tmp_path / "sw.csv"
    if existing:
        out.write_text("old")
    (tmp_path / "sw.csv.manifest.json").mkdir()
    result = CliRunner().invoke(main, [
        "sweep", "--input", str(zoo_dir), "--truth", str(zoo_dir / "truth.csv"),
        "--metric", "gbc", "--alpha-grid", "0.005", "--sigma-grid", "0.6",
        "--out", str(out)])
    assert result.exit_code == 3, result.output
    assert sorted(p.name for p in tmp_path.iterdir()) == (
        ["sw.csv"] * existing + ["sw.csv.manifest.json"])
    if existing:
        assert out.read_text() == "old"


SWEEP_ONE_CELL = ["--alpha-grid", "0.005", "--sigma-grid", "0.6"]


@pytest.mark.parametrize("command", ["score", "sweep"])
def test_score_and_sweep_out_in_a_missing_directory_is_created(zoo_dir, tmp_path,
                                                                command):
    out = tmp_path / "nested" / "dir" / "out.file"
    extra = SWEEP_ONE_CELL + ["--truth", str(zoo_dir / "truth.csv")]
    run_ok([command, "--input", str(zoo_dir), "--metric", "gbc", "--out", str(out),
            *(extra if command == "sweep" else [])])
    written = sorted(p.name for p in out.parent.iterdir())
    assert written == (["out.file"] if command == "score"
                       else ["out.file", "out.file.manifest.json"])


@pytest.mark.parametrize("command", ["score", "sweep"])
def test_score_and_sweep_out_at_a_directory_is_a_usage_error(zoo_dir, tmp_path,
                                                              monkeypatch, command):
    loaded = []
    load_set = cli._load_set
    monkeypatch.setattr(cli, "_load_set",
                        lambda *args: loaded.append(args) or load_set(*args))
    extra = SWEEP_ONE_CELL + ["--truth", str(zoo_dir / "truth.csv")]
    result = CliRunner().invoke(main, [command, "--input", str(zoo_dir), "--metric",
                                       "gbc", "--out", str(tmp_path),
                                       *(extra if command == "sweep" else [])])
    assert result.exit_code == 2, result.output
    assert "is a directory" in result.stderr
    assert loaded == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command,option,kind", [
    ("evaluate", "--scores", "directory"),
    ("evaluate", "--truth", "directory"),
    ("sweep", "--truth", "directory"),
    ("evaluate", "--out", "file"),
    ("synth", "--out", "file"),
])
def test_a_path_of_the_wrong_kind_is_a_usage_error(zoo_dir, zoo_scores, tmp_path,
                                                   monkeypatch, command, option, kind):
    # found by the option itself, before any input loads or any model is
    # ranked, and nothing is written
    calls = []
    monkeypatch.setattr(cli, "_load_set", lambda *args: calls.append(args))
    monkeypatch.setattr(cli, "rank_cells", lambda *args: calls.append(args))
    wrong = tmp_path / "wrong"
    if kind == "directory":
        wrong.mkdir()
    else:
        wrong.write_text("old")
    args = {"evaluate": ["evaluate", "--scores", str(zoo_scores),
                         "--truth", str(zoo_dir / "truth.csv")],
            "sweep": ["sweep", "--input", str(zoo_dir), "--metric", "gbc",
                      *SWEEP_ONE_CELL, "--truth", str(zoo_dir / "truth.csv")],
            "synth": ["synth", "--models", "2"]}[command]
    result = CliRunner().invoke(main, args + [option, str(wrong)])
    assert result.exit_code == 2, result.output
    assert f"is a {kind}" in result.stderr
    assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["wrong"]
    assert kind == "directory" or wrong.read_text() == "old"


def assert_csv_cells_are_reprs(csv_text, docs):
    # each CSV cell is its JSON value as text, a float written in full
    rows = list(csv.DictReader(csv_text.splitlines()))
    assert len(rows) == len(docs) > 0
    for row, doc in zip(rows, docs):
        for key, cell in row.items():
            value = doc[key]
            assert cell == (value if isinstance(value, str) else repr(value)), key


def test_csv_cells_are_the_reprs_of_the_json_values(zoo_dir, zoo_scores, tmp_path):
    synth_args = ["synth", "--models", "3", "--classes", "2", "--per-class", "4",
                  "--dim", "2", "--rho-range", "0.3:2.9", "--noise-range", "0.7:1.3"]
    csv_out = run_ok(synth_args + ["--out", str(tmp_path / "a"), "--format", "csv"])
    json_out = run_ok(synth_args + ["--out", str(tmp_path / "b"), "--format", "json"])
    assert_csv_cells_are_reprs(csv_out.stdout, json.loads(json_out.stdout)["models"])

    # score's wall_time_s differs between runs: compare with the file of the
    # same run, which the JSON stdout equals
    scores = tmp_path / "scores.json"
    score_args = ["score", "--input", str(zoo_dir), "--mode", "none", "--mode", "sa"]
    csv_out = run_ok(score_args + ["--out", str(scores), "--format", "csv"])
    assert_csv_cells_are_reprs(csv_out.stdout, json.loads(scores.read_text())["records"])
    json_out = run_ok(score_args + ["--out", str(scores), "--format", "json"])
    assert json_out.stdout == scores.read_text()

    evaluate_args = ["evaluate", "--scores", str(zoo_scores),
                     "--truth", str(zoo_dir / "truth.csv")]
    csv_out = run_ok(evaluate_args + ["--format", "csv"])
    reports = json.loads(run_ok(evaluate_args + ["--format", "json"]).stdout)["reports"]
    assert_csv_cells_are_reprs(csv_out.stdout, [
        {"metric": key.split("/")[0], "mode": key.split("/")[1], "tau_w": r["tau_w"]}
        for key, r in reports.items()])

    sweep_args = ["sweep", "--input", str(zoo_dir), "--truth", str(zoo_dir / "truth.csv"),
                  "--metric", "gbc", "--alpha-grid", "0.001,0.03", "--sigma-grid", "0.55"]
    out = tmp_path / "sweep.csv"
    csv_out = run_ok(sweep_args + ["--out", str(out), "--format", "csv"])
    assert csv_out.stdout_bytes == out.read_bytes()
    rows = json.loads(run_ok(sweep_args + ["--format", "json"]).stdout)["rows"]
    assert_csv_cells_are_reprs(csv_out.stdout, rows)
