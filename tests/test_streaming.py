"""The model pool is streamed: score and sweep load each model
inside its own task, and synth writes each model's file inside the task
that generates it, so at most `--jobs` embedding sets are alive at once;
the command's own thread is one of the `--jobs` workers, so `--jobs 1`
starts no thread; inputs are checked for repeated model ids before any
file loads, a corrupt input is reported when its turn comes, and a
failed synth leaves no partial zoo."""
import shutil
import threading
import time
import weakref

import pytest
from click.testing import CliRunner

from terank import cli, synth
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


def count_live_sets(monkeypatch, module, name, pick):
    """Wrap `<module>.<name>` to count the model objects it makes and
    that are still alive, and the most ever alive at once. `pick(result,
    *args)` finds the object, such as a returned embedding set, in a
    call's result and arguments."""
    counts = {"made": 0, "live": 0, "max_live": 0}
    lock = threading.RLock()  # a finalizer may run inside the locked block
    original = getattr(module, name)

    def release():
        with lock:
            counts["live"] -= 1

    def counted(*args, **kwargs):
        result = original(*args, **kwargs)
        with lock:
            counts["made"] += 1
            counts["live"] += 1
            counts["max_live"] = max(counts["max_live"], counts["live"])
        weakref.finalize(pick(result, *args), release)
        return result

    monkeypatch.setattr(module, name, counted)
    return counts


@pytest.fixture
def live_sets(monkeypatch):
    """The sets that cli's EMB1 loads return."""
    return count_live_sets(monkeypatch, cli, "load_emb1", lambda ds, path: ds)


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
    # synth imports the generator when it runs, so it finds the wrapper;
    # each model's training blocks go to the writer it hands the draw,
    # which lives as long as the model's file is open
    generated = count_live_sets(monkeypatch, synth, "draw_zoo_model",
                                lambda acc, cfg, m, consume: consume)
    out = tmp_path / "zoo"
    result = CliRunner().invoke(main, [
        "synth", "--models", str(MODELS), "--classes", "3", "--per-class", "30",
        "--dim", "6", "--jobs", str(jobs), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert generated["made"] == MODELS
    assert 1 <= generated["max_live"] <= jobs, generated
    assert generated["live"] == 0
    assert len(list(out.glob("*.emb1"))) == MODELS


@pytest.fixture
def thread_starts(monkeypatch):
    """The threads started while the test runs."""
    started = []
    original = threading.Thread.start

    def counted(thread):
        started.append(thread)
        return original(thread)

    monkeypatch.setattr(threading.Thread, "start", counted)
    return started


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("command", ["synth", "score", "sweep"])
def test_the_command_thread_is_one_of_jobs_workers(zoo, tmp_path, thread_starts,
                                                   command, jobs):
    # --jobs 1 runs every model on the command's own thread; each further
    # job is one helper thread
    if command == "synth":
        args = ["synth", "--models", "3", "--classes", "2", "--per-class", "5",
                "--dim", "3", "--out", str(tmp_path / "zoo")]
    else:
        args = command_args(command, zoo) + ["--input", str(zoo),
                                             "--out", str(tmp_path / "out")]
    result = CliRunner().invoke(main, args + ["--jobs", str(jobs)])
    assert result.exit_code == 0, result.output
    assert len(thread_starts) == jobs - 1


def test_the_caller_and_its_helpers_run_every_task_in_index_order():
    # the first three tasks wait for each other, so three workers hold one
    # each; with --jobs 3 the calling thread must be one of them
    barrier = threading.Barrier(3, timeout=30)
    threads, lock = {}, threading.Lock()
    live = {"now": 0, "most": 0}

    def task(index):
        with lock:
            threads[index] = threading.get_ident()
            live["now"] += 1
            live["most"] = max(live["most"], live["now"])
        if index < 3:
            barrier.wait()
        with lock:
            live["now"] -= 1
        return index * index

    assert cli._pool_map(7, 3, task) == [index * index for index in range(7)]
    assert sorted(threads) == list(range(7))
    assert len(set(threads.values())) == 3
    assert threading.get_ident() in threads.values()
    assert live["most"] == 3


def test_the_lowest_failing_index_raises_once_every_started_task_ends():
    # tasks 0-2 start together; 2 fails at once and 1 fails later, while
    # 0 and 1 are still running, no worker takes index 3
    barrier = threading.Barrier(3, timeout=30)
    started, ended = [], []

    def task(index):
        started.append(index)
        try:
            if index < 3:
                barrier.wait()
            if index == 2:
                raise ValueError(index)
            time.sleep(0.2)
            if index == 1:
                raise ValueError(index)
            return index
        finally:
            ended.append(index)

    with pytest.raises(ValueError) as failure:
        cli._pool_map(9, 3, task)
    assert failure.value.args == (1,)
    assert sorted(started) == sorted(ended) == [0, 1, 2]


def test_one_job_runs_in_order_on_the_caller_and_stops_at_a_failure():
    started = []

    def task(index):
        started.append((index, threading.get_ident()))
        if index == 2:
            raise ValueError(index)
        return index

    with pytest.raises(ValueError) as failure:
        cli._pool_map(5, 1, task)
    assert failure.value.args == (2,)
    assert started == [(index, threading.get_ident()) for index in range(3)]


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
    # the failing run would overwrite both models and truth.csv; it leaves
    # the zoo already there byte for byte
    out = tmp_path / "zoo"
    result = CliRunner().invoke(main, [
        "synth", "--models", "2", "--classes", "2", "--per-class", "5",
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

