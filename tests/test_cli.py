"""End-to-end CLI behavior: subcommands, exit codes, machine output."""
import csv
import itertools
import json
import shutil
import struct
import time
import warnings
from collections import Counter
from pathlib import Path

import pytest
from click.testing import CliRunner

from terank import cli, load_emb1, metrics, score_metric, synth
from terank.cli import main
from terank.errors import NumericError
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
    result = CliRunner().invoke(
        main,
        [command, "--input", str(zoo_dir), "--pca-energy", "0.8",
         "--pca-rank", "4"],
    )
    assert result.exit_code == 2
    assert "mutually exclusive" in result.output


@pytest.mark.parametrize("args", [
    ["score", "--alpha", "nan"],
    ["score", "--sigma", "inf"],
    ["score", "--lda-eps", "inf"],
    ["sweep", "--alpha-grid=-1"],
    ["sweep", "--alpha-grid", "inf"],
    ["sweep", "--sigma-grid", "0.5,nan"],
    ["synth", "--rho-range", "nan:1"],
    ["synth", "--noise-range", "1:inf"],
    ["score", "--seed=-1"],
    ["sweep", "--seed=-1"],
], ids=" ".join)
def test_non_finite_or_negative_values_are_usage_errors(zoo_dir, tmp_path, args):
    where = ["--out", str(tmp_path / "zoo")] if args[0] == "synth" else [
        "--input", str(zoo_dir)]
    result = CliRunner().invoke(main, args + where)
    assert result.exit_code == 2, result.output
    assert args[1].partition("=")[0] in result.output


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
              "numeric-model": {"model": 7}, "huge-time": {"wall_time_s": 10**400}}


@pytest.mark.parametrize("content", [
    pytest.param(b"{not json", id="not-json"),
    pytest.param(b'{"records": []\xff}', id="not-utf8"),
    *(pytest.param(json.dumps({"manifest": {}, "records": [{**RECORD, **bad}]})
                   .encode(), id=name) for name, bad in BAD_FIELDS.items()),
])
def test_evaluate_unreadable_scores_is_data_error(tmp_path, content):
    scores = tmp_path / "scores.json"
    scores.write_bytes(content)
    result = CliRunner().invoke(main, ["evaluate", "--scores", str(scores),
                                       "--out", str(tmp_path / "reports")])
    assert result.exit_code == 3, result.output
    assert "not a score JSON file" in result.output


@pytest.mark.parametrize("metric", ["logme", "gbc", "nleep", "lda"])
def test_overflowing_features_are_numeric_failures(zoo_dir, metric):
    # --alpha 1e300 leaves finite features whose scatter overflows; a 1e308
    # attract step or radius scale overflows the perturbed features
    # themselves. numpy's overflow warnings are silenced in the command and
    # in every --jobs worker thread: stderr is one line, and a warning
    # turned into an error would change the exit code
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
        assert len(lines) == 1 and lines[0].startswith("numeric failure: "), lines


def test_json_output_rejects_non_finite_values():
    assert cli._json_text({"x": 1.5}) == '{\n  "x": 1.5\n}\n'
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(NumericError, match="not finite"):
            cli._json_text({"rows": [{"x": bad}]})


@pytest.mark.parametrize("count,code", [("-2", 2), ("0", 3), ("1", 3)])
def test_synth_model_count_exit_codes(tmp_path, count, code):
    # a negative count is a usage error; 0 and 1 reach ZooConfig's check
    result = CliRunner().invoke(main, ["synth", "--models", count,
                                       "--out", str(tmp_path / "zoo")])
    assert result.exit_code == code, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


@pytest.mark.parametrize("value,code", [("-2", 2), ("0", 3), ("1", 3)])
@pytest.mark.parametrize("flag", ["--classes", "--per-class", "--dim"])
def test_synth_size_exit_codes(tmp_path, flag, value, code):
    # a negative size is a usage error; 0 and 1 reach ZooConfig's check
    out = tmp_path / "zoo"
    result = CliRunner().invoke(main, ["synth", flag, value, "--out", str(out)])
    assert result.exit_code == code, result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert not out.exists()


@pytest.mark.parametrize("seed,code", [("-1", 2), (str(2**64), 2),
                                       (str(2**64 - 1), 0)])
def test_synth_seed_is_one_64_bit_state(tmp_path, seed, code):
    # SplitMix64 keeps a seed's low 64 bits, so -1 and 2^64 would write
    # the zoos of 2^64 - 1 and 0 under a manifest naming another seed
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
    def exhausted(cfg, m):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "gen_zoo_model", exhausted)
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

    monkeypatch.setattr(cli, "score_model", exhausted)
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


@pytest.mark.parametrize("command", ["score", "sweep", "raw"])
def test_shared_stages_run_once_per_model(zoo_dir, monkeypatch, command):
    # score with 4 metrics x every mode, or sweep over its 9 default cells:
    # one PCA fit, one spread and two class geometries per model suffice.
    # A raw-only score runs none of them
    import terank.perturbation as perturbation

    calls = Counter()
    for name in ("fit_pca", "spread", "class_geometry"):
        def counted(ds, *args, _fn=getattr(perturbation, name), _name=name,
                    **kwargs):
            calls[(_name, ds.model_id)] += 1
            return _fn(ds, *args, **kwargs)

        monkeypatch.setattr(perturbation, name, counted)
    args = {
        "score": ["score", "--mode", "raw", "--mode", "none", "--mode", "spread",
                  "--mode", "attract", "--mode", "sa"],
        "sweep": ["sweep", "--truth", str(zoo_dir / "truth.csv")],
        "raw": ["score", "--mode", "raw"],
    }[command]
    run_ok(args + ["--input", str(zoo_dir)])
    if command == "raw":
        assert not calls
        return
    models = [p.stem for p in sorted(zoo_dir.glob("*.emb1"))]
    for model in models:
        assert calls[("fit_pca", model)] == 1
        assert calls[("spread", model)] <= 1
        assert calls[("class_geometry", model)] <= 2


def test_raw_records_are_the_metric_on_the_input_features(zoo_dir, tmp_path):
    # mode raw scores each loaded set as it is, with the model's seed
    seed = 2**63 + 9
    out = tmp_path / "scores.json"
    run_ok(["score", "--input", str(zoo_dir), "--mode", "raw", "--seed", str(seed),
            "--out", str(out)])
    records = json.loads(out.read_text())["records"]
    files = sorted(zoo_dir.glob("*.emb1"))
    assert [(r["model"], r["metric"], r["score"]) for r in records] == [
        (path.stem, metric, score_metric(load_emb1(path), metric, seed=seed ^ i))
        for i, path in enumerate(files) for metric in METRICS]
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

    def counted(cfg, m):
        calls.append(m)
        if m:
            time.sleep(0.05)
        return gen_zoo_model(cfg, m)

    gen_zoo_model = cli.gen_zoo_model
    monkeypatch.setattr(cli, "gen_zoo_model", counted)
    result = CliRunner().invoke(main, [
        "synth", "--models", "6", "--classes", "2", "--per-class", "2",
        "--dim", "2", "--rho-range", "0.05:0.05", "--seed", "5",
        "--jobs", str(jobs), "--out", str(tmp_path / "zoo")])
    line = assert_one_data_error_line(result)
    assert "model-00" in line and "outside (0, 100]" in line, line
    assert 0 in calls and len(calls) < 6, calls


@pytest.fixture(scope="module")
def zoo_scores(zoo_dir, tmp_path_factory):
    scores = tmp_path_factory.mktemp("scores") / "scores.json"
    run_ok(["score", "--input", str(zoo_dir), "--metric", "gbc",
            "--out", str(scores)])
    return scores


@pytest.mark.parametrize("command", ["evaluate", "sweep"])
@pytest.mark.parametrize("content", [
    pytest.param(b"model,dataset,regime,pool,accuracy\n"
                 b"model-00,synthetic,synthetic,synthetic,5\xff0\n", id="not-utf8"),
    pytest.param(b"model,dataset\nmodel-00,synthetic,synthetic\n", id="ragged"),
    pytest.param(b"model,dataset,regime,pool,accuracy\n"
                 b"model-00,synthetic,foo,synthetic,50\n", id="unknown-regime"),
    pytest.param(b"model,dataset,regime,pool,accuracy\n"
                 b"model-00,synthetic,synthetic,synthetic,150\n", id="accuracy"),
])
def test_unreadable_truth_is_one_line_data_error(zoo_dir, zoo_scores, tmp_path,
                                                 command, content):
    truth = tmp_path / "truth.csv"
    truth.write_bytes(content)
    args = {"evaluate": ["evaluate", "--scores", str(zoo_scores)],
            "sweep": ["sweep", "--input", str(zoo_dir), "--metric", "gbc",
                      "--alpha-grid", "0.005", "--sigma-grid", "0.6"]}[command]
    result = CliRunner().invoke(main, args + ["--truth", str(truth)])
    assert str(truth) in assert_one_data_error_line(result)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_checks_the_truth_table_before_scoring(zoo_dir, monkeypatch, jobs):
    # a --dataset with no truth row for the pool's models fails as the
    # first model loads, before any model is scored
    calls = []
    monkeypatch.setattr(cli, "score_model", lambda *args, **kwargs: calls.append(args))
    result = CliRunner().invoke(main, [
        "sweep", "--input", str(zoo_dir), "--truth", str(zoo_dir / "truth.csv"),
        "--dataset", "Pets", "--metric", "gbc", "--jobs", jobs])
    assert assert_one_data_error_line(result) == (
        f"data error: {zoo_dir / 'model-00.emb1'}: no ground truth for model "
        "'model-00' under (dataset=Pets, regime=synthetic, pool=synthetic)")
    assert calls == []


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
