"""The model pool is streamed: score and sweep load each model
inside its own task, and synth writes each model's file inside the task
that generates it, so at most `--jobs` embedding sets are alive at once;
inputs are checked for repeated model ids before any file loads, a
corrupt input is reported when its turn comes, and a failed synth leaves
no partial zoo."""
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
    }[command]


def count_live_sets(monkeypatch, name, pick):
    """Wrap `cli.<name>` to count the embedding sets it returns (`pick`
    finds the set in its result) and that are still alive, and the most
    ever alive at once."""
    counts = {"made": 0, "live": 0, "max_live": 0}
    lock = threading.RLock()  # a finalizer may run inside the locked block
    original = getattr(cli, name)

    def release():
        with lock:
            counts["live"] -= 1

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        with lock:
            counts["made"] += 1
            counts["live"] += 1
            counts["max_live"] = max(counts["max_live"], counts["live"])
        weakref.finalize(pick(result), release)
        return result

    monkeypatch.setattr(cli, name, counted)
    return counts


@pytest.fixture
def live_sets(monkeypatch):
    """The sets that cli's EMB1 loads return."""
    return count_live_sets(monkeypatch, "load_emb1", lambda ds: ds)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("command", ["score", "sweep"])
def test_at_most_jobs_sets_are_alive(zoo, live_sets, command, jobs):
    result = CliRunner().invoke(main, command_args(command, zoo) + [
        "--input", str(zoo), "--jobs", str(jobs), "--format", "json"])
    assert result.exit_code == 0, result.output
    assert live_sets["made"] == MODELS
    assert 1 <= live_sets["max_live"] <= jobs, live_sets
    assert live_sets["live"] == 0


@pytest.mark.parametrize("jobs", [1, 2])
def test_synth_holds_at_most_jobs_sets(tmp_path, monkeypatch, jobs):
    generated = count_live_sets(monkeypatch, "gen_zoo_model",
                                lambda result: result[0])
    out = tmp_path / "zoo"
    result = CliRunner().invoke(main, [
        "synth", "--models", str(MODELS), "--classes", "3", "--per-class", "30",
        "--dim", "6", "--jobs", str(jobs), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert generated["made"] == MODELS
    assert 1 <= generated["max_live"] <= jobs, generated
    assert generated["live"] == 0
    assert len(list(out.glob("*.emb1"))) == MODELS


def failing_synth(out, jobs):
    # model-00 is finite; model-01's rho overflows its float32 cast
    return CliRunner().invoke(main, [
        "synth", "--models", "2", "--rho-range", "1:1e39", "--jobs", str(jobs),
        "--out", str(out)])


def assert_one_numeric_failure_at_model_01(result):
    assert result.exit_code == 4, result.output
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith("numeric failure: model-01: "), lines


@pytest.mark.parametrize("jobs", [1, 2])
def test_failed_synth_leaves_no_zoo(tmp_path, jobs):
    out = tmp_path / "new" / "zoo"
    assert_one_numeric_failure_at_model_01(failing_synth(out, jobs))
    assert not out.exists()
    assert not out.parent.exists()  # parents the run created go too


@pytest.mark.parametrize("jobs", [1, 2])
def test_failed_synth_keeps_what_out_held_before(tmp_path, jobs):
    out = tmp_path / "zoo"
    out.mkdir()
    (out / "notes.txt").write_text("unrelated\n")
    assert_one_numeric_failure_at_model_01(failing_synth(out, jobs))
    assert sorted(p.name for p in out.iterdir()) == ["notes.txt"]
    assert (out / "notes.txt").read_text() == "unrelated\n"


@pytest.mark.parametrize("jobs", [1, 2])
def test_failed_synth_keeps_a_previous_zoo(tmp_path, jobs):
    # the failing run would overwrite model-00 and truth.csv; it leaves
    # the zoo already there byte for byte
    out = tmp_path / "zoo"
    result = CliRunner().invoke(main, [
        "synth", "--models", "3", "--classes", "2", "--per-class", "5",
        "--dim", "3", "--out", str(out)])
    assert result.exit_code == 0, result.output
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert_one_numeric_failure_at_model_01(failing_synth(out, jobs))
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("command", ["score", "sweep"])
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
    ("score", [".", "model-00.emb1"]),
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
    assert live_sets["made"] == 0
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

