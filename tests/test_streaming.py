"""The model pool is streamed: score, sweep and bench load each model
inside its own task, so at most `--jobs` embedding sets are alive at
once; inputs are checked for repeated model ids before any file loads,
and a corrupt input is reported when its turn comes."""
import json
import math
import shutil
import threading
import weakref

import pytest
from click.testing import CliRunner

from terank import cli
from terank.cli import main

MODELS = 5


@pytest.fixture(scope="module")
def zoo(tmp_path_factory):
    out = tmp_path_factory.mktemp("zoo5")
    result = CliRunner().invoke(main, [
        "synth", "--models", str(MODELS), "--classes", "3", "--per-class", "30",
        "--dim", "6", "--rho-range", "0.5:2", "--seed", "5", "--out", str(out)])
    assert result.exit_code == 0, result.output
    return out


def command_args(command, zoo):
    """A small run of each streamed command; `--out` is appended by tests."""
    return {
        "score": ["score", "--metric", "gbc", "--mode", "none", "--mode", "sa"],
        "sweep": ["sweep", "--metric", "gbc", "--truth", str(zoo / "truth.csv"),
                  "--alpha-grid", "0.005", "--sigma-grid", "0.6"],
        "bench": ["bench", "--metric", "gbc", "--mode", "none"],
    }[command]


@pytest.fixture
def live_sets(monkeypatch):
    """Count the embedding sets that cli's loads return and are still
    alive, and the most ever alive at once."""
    counts = {"loads": 0, "live": 0, "max_live": 0}
    lock = threading.RLock()  # a finalizer may run inside the locked block
    load = cli.load_emb1

    def release():
        with lock:
            counts["live"] -= 1

    def counted_load(*args, **kwargs):
        ds = load(*args, **kwargs)
        with lock:
            counts["loads"] += 1
            counts["live"] += 1
            counts["max_live"] = max(counts["max_live"], counts["live"])
        weakref.finalize(ds, release)
        return ds

    monkeypatch.setattr(cli, "load_emb1", counted_load)
    return counts


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("command", ["score", "sweep", "bench"])
def test_at_most_jobs_sets_are_alive(zoo, live_sets, command, jobs):
    result = CliRunner().invoke(main, command_args(command, zoo) + [
        "--input", str(zoo), "--jobs", str(jobs), "--format", "json"])
    assert result.exit_code == 0, result.output
    assert live_sets["loads"] == MODELS
    assert 1 <= live_sets["max_live"] <= jobs, live_sets
    assert live_sets["live"] == 0


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("command", ["score", "sweep", "bench"])
def test_corrupt_last_input_is_a_data_error(zoo, tmp_path, command, jobs):
    corrupt = tmp_path / "zz-corrupt.emb1"
    corrupt.write_bytes(b"EMB1" + bytes(7))
    out = tmp_path / "out"
    result = CliRunner().invoke(main, command_args(command, zoo) + [
        "--input", str(zoo), "--input", str(corrupt), "--jobs", str(jobs),
        "--out", str(out)])
    assert result.exit_code == 3, result.output
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("data error: "), lines
    assert str(corrupt) in lines[0]
    assert not out.exists()


@pytest.mark.parametrize("command,inputs", [
    ("score", ["model-00.emb1", "model-00.emb1"]),
    ("sweep", ["model-00.emb1", "."]),
    ("bench", [".", "model-00.emb1"]),
])
def test_repeated_model_id_is_rejected_before_loading(zoo, tmp_path, live_sets,
                                                      command, inputs):
    out = tmp_path / "out"
    flags = [arg for name in inputs for arg in ("--input", str(zoo / name))]
    result = CliRunner().invoke(main, command_args(command, zoo) + flags + [
        "--out", str(out)])
    assert result.exit_code == 3, result.output
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("data error: model id 'model-00' given twice"), lines
    assert live_sets["loads"] == 0
    assert not out.exists()


def test_same_stem_in_two_formats_is_a_repeated_model_id(zoo, tmp_path):
    # the model id is the file stem, whatever the format
    shutil.copy(zoo / "model-01.emb1", tmp_path / "model-01.emb1")
    (tmp_path / "model-01.csv").write_text("a,label\n0.5,0\n1.5,1\n")
    result = CliRunner().invoke(main, [
        "score", "--input", str(tmp_path / "model-01.emb1"),
        "--input", str(tmp_path / "model-01.csv")])
    assert result.exit_code == 3, result.output
    assert "model id 'model-01' given twice" in result.stderr


def test_bench_rows_are_independent_of_jobs(zoo):
    rows = {}
    for jobs in ("1", "3"):
        result = CliRunner().invoke(main, [
            "bench", "--input", str(zoo), "--metric", "gbc", "--metric", "lda",
            "--mode", "none", "--mode", "sa", "--jobs", jobs, "--format", "json"])
        assert result.exit_code == 0, result.output
        rows[jobs] = json.loads(result.stdout)["rows"]
    cells = [(r["metric"], r["mode"]) for r in rows["1"]]
    assert cells == [(m, mode) for m in ("gbc", "lda")
                     for mode in ("raw", "none", "sa")]
    assert [(r["metric"], r["mode"]) for r in rows["3"]] == cells
    for row in rows["1"] + rows["3"]:
        ratio = row["ratio_vs_raw"]
        assert isinstance(ratio, float) and math.isfinite(ratio) and ratio > 0, row
