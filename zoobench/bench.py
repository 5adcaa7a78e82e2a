"""The terank benchmark: three synthetic-zoo workloads driven through the
real `terank` CLI, in-process, one command after another (a closed loop
with one client and `--jobs 1`).

Every workload shares one zoo shape (ZOO below). A run of a workload:

1. Sets up at least SETUP_REPS times and for at least SETUP_SECONDS,
   each time in a fresh interpreter: import `terank.cli`, build the inputs
   (the zoo, for zoo-score and zoo-sweep) and warm up on a tiny zoo.
   `setup_s` is the median.
2. Runs one op in a fresh process for `peak_rss_mb`. Its outputs are the
   canonical ones that every later op must reproduce byte for byte.
3. Warms up in this process, then repeats the op until `seconds` have
   passed. With tracing on, untraced and traced ops alternate so that the
   tracing overhead is the difference of their medians.

The process, its workers and a speed probe (speed.py) share one CPU for
the whole run. Every time metric of --trace 0 (wall_s, wall_s_tail, cpu_s,
setup_s) is rescaled to the probe's reference speed over the interval it
was measured in, because a shared host's vCPU speed swings by up to 2.5x
for seconds at a time; the times as measured are printed beside them.
`wall_s` is the median op and `wall_s_tail` the upper quartile.

Every op's outputs are checked: timing fields stripped, they must equal
the canonical op's, hold only finite scores and taus, and at the default
seed match the digests in reference.json. A failed or wrong op counts in
`failed`. This module imports no terank code at import time, so that a
fresh process can time the import.
"""
from __future__ import annotations

import csv
import gc
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from speed import Probe, ProbeError

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
SRC = CHECKOUT / "src"
WORK = CHECKOUT / ".zoobench"
REFERENCE = BENCH_DIR / "reference.json"

DEFAULT_SEED = 0
SETUP_REPS = 3
SETUP_SECONDS = 3.0
WARM_SEED = 7
# BENCHMARK.json lists zoo-synth and zoo-score only, so that each run fits
# 30 s of measuring into the time budget of a full evaluation (4 + 22 runs per
# listed workload in 3420 s); on a 2-core shared VM shorter runs spread by
# 15-27% between seeds. zoo-sweep covers no layer zoo-score misses; run it by
# hand with --workload zoo-sweep.
WORKLOADS = ("zoo-synth", "zoo-score", "zoo-sweep")

# 2,000 x 128 float32 features per model; PCA at the default 0.8 energy
# keeps about 80 components. Generating it takes 4,106,240 Gaussian draws.
ZOO = {"models": 8, "classes": 10, "per_class": 200, "dim": 128,
       "rho_range": "0.25:1.0", "noise_range": "1:1"}
# Small enough to cost milliseconds; hard enough that the oracle
# accuracies differ, so taus are defined.
TINY = {"models": 4, "classes": 3, "per_class": 12, "dim": 6,
        "rho_range": "0.3:1.0", "noise_range": "1:1"}

SCORE_METRICS = ("logme", "gbc", "nleep", "lda")
SWEEP_METRICS = ("gbc", "lda")
# Files each op writes, relative to the run directory.
OP_OUTPUTS = {
    "zoo-synth": ("zoo",),
    "zoo-score": ("scores.json", "reports"),
    "zoo-sweep": ("sweep.csv", "sweep.csv.manifest.json"),
}
_STRIPPED = ("wall_time_s", "runtime")
ITEMS = {"zoo-synth": "models", "zoo-score": "cells", "zoo-sweep": "cells"}
# The kinds of speed-probe kernel (speed.py) an op's work is made of. A
# zoo-synth op is 98% pure-Python RNG filling arrays of several MB; the
# others add numpy kernels. Set-up, which builds the zoo, is like zoo-synth.
OP_KINDS = {"zoo-synth": ("python", "memory"), "zoo-score": ("python", "memory", "numpy"),
            "zoo-sweep": ("python", "memory", "numpy")}
SETUP_KINDS = ("python", "memory")

END_TO_END = {
    "wall_s": "s", "wall_s_tail": "s", "cpu_s": "s", "setup_s": "s",
    "peak_rss_mb": "MB", "ok_frac": "ratio",
}
_FUNCTIONS = {
    "rng": ("gaussians",),
    "synth": ("nearest_centroid_accuracy",),
    "embeddings": ("save_emb1", "load_emb1"),
    "reduction": ("fit_pca", "transform"),
    "perturbation": ("sa_perturb", "spread", "class_geometry", "attract"),
    "metrics": ("score_model", "score_logme", "score_gbc", "score_lda", "fit_gmm"),
    "evaluation": ("rank_and_report", "load_truth"),
    "cli": (),
}
_COUNTERS = {
    "rng.gaussians.draws": "count",
    "embeddings.save_emb1.bytes": "bytes",
    "embeddings.load_emb1.bytes": "bytes",
    "reduction.fit_pca.useful_ratio": "ratio",
    "reduction.rank_mean": "components",
    "metrics.fit_gmm.em_iters": "count",
    "evaluation.tau_w_mean": "tau",
}
PER_LAYER = {}
for _module, _names in _FUNCTIONS.items():
    for _name in _names:
        PER_LAYER[f"{_module}.{_name}.calls"] = "count"
        PER_LAYER[f"{_module}.{_name}.busy_s"] = "s"
    PER_LAYER[f"{_module}.self_s"] = "s"
PER_LAYER.update(_COUNTERS)
PER_LAYER.update({"trace.wall_s": "s", "trace.untraced_wall_s": "s",
                  "trace.overhead_s": "s", "trace.spans": "count"})


class OpError(Exception):
    """A terank command exited non-zero."""


class BenchError(Exception):
    """The benchmark could not set up or measure; no result is printed."""


def prepare_process() -> None:
    """Pin BLAS to one thread and import terank from the checkout's source.
    Call before anything imports numpy."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "terank" / "__init__.py").is_file():
        raise BenchError(f"no terank source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# ---------------------------------------------------------------------------
# commands

def zoo_command(shape: dict, seed: int, out: str = "zoo") -> list[str]:
    return ["synth", "--models", str(shape["models"]), "--classes", str(shape["classes"]),
            "--per-class", str(shape["per_class"]), "--dim", str(shape["dim"]),
            "--rho-range", shape["rho_range"], "--noise-range", shape["noise_range"],
            "--seed", str(seed), "--jobs", "1", "--out", out]


def op_commands(workload: str, shape: dict, seed: int) -> list[list[str]]:
    """The terank command lines of one op, run from the run directory."""
    s = str(seed)
    if workload == "zoo-synth":
        return [zoo_command(shape, seed)]
    if workload == "zoo-score":
        metrics = [a for m in SCORE_METRICS for a in ("--metric", m)]
        return [["score", "--input", "zoo", *metrics, "--mode", "none", "--mode", "sa",
                 "--seed", s, "--jobs", "1", "--out", "scores.json"],
                ["evaluate", "--scores", "scores.json", "--truth", "zoo/truth.csv",
                 "--seed", s, "--out", "reports"]]
    if workload == "zoo-sweep":
        metrics = [a for m in SWEEP_METRICS for a in ("--metric", m)]
        return [["sweep", "--input", "zoo", "--truth", "zoo/truth.csv", *metrics,
                 "--seed", s, "--jobs", "1", "--out", "sweep.csv"]]
    raise ValueError(f"unknown workload {workload!r}")


class Cli:
    """Runs `terank <argv>` in this process through click's test runner,
    which captures the command's stdout and stderr."""

    def __init__(self):
        from click.testing import CliRunner

        from terank.cli import main

        self._runner = CliRunner()
        self._main = main

    def __call__(self, argv: list[str]) -> None:
        result = self._runner.invoke(self._main, argv)
        if result.exit_code != 0:
            raise OpError(f"terank {argv[0]} exited {result.exit_code}: "
                          f"{result.output.strip()[-300:]} {result.exception!r}")


@contextmanager
def in_dir(path: Path):
    old = Path.cwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def run_op(cli: Cli, commands: list[list[str]]) -> tuple[float, float]:
    """Run one op; return its wall and process CPU seconds."""
    gc.collect()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for argv in commands:
        cli(argv)
    return time.perf_counter() - t0, time.process_time() - cpu0


def warm_up(cli: Cli, workload: str, run_dir: Path) -> None:
    """Run the workload's commands once on a tiny zoo, so that lazy
    imports and first-call costs are paid before timing."""
    warm = run_dir / "warm"
    warm.mkdir()
    try:
        with in_dir(warm):
            if workload != "zoo-synth":
                cli(zoo_command(TINY, WARM_SEED))
            for argv in op_commands(workload, TINY, WARM_SEED):
                cli(argv)
    finally:
        shutil.rmtree(warm)


# ---------------------------------------------------------------------------
# output checks

def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _strip(doc):
    if isinstance(doc, dict):
        return {k: _strip(v) for k, v in doc.items() if k not in _STRIPPED}
    if isinstance(doc, list):
        return [_strip(v) for v in doc]
    return doc


def _json_digest(path: Path) -> str:
    doc = _strip(json.loads(path.read_text()))
    return _sha(json.dumps(doc, sort_keys=True).encode())


def collect(workload: str, run_dir: Path) -> dict:
    """Digest an op's outputs (timing stripped from JSON) and pull out the
    values the checks and metrics need: scores, taus and the item count."""
    from terank.evaluation import weighted_kendall_tau

    parts: dict[str, str] = {}
    scores: list[float] = []
    taus: list[float] = []
    models = sorted((run_dir / "zoo").glob("*.emb1"))
    if workload == "zoo-synth":
        for path in models:
            parts[f"zoo/{path.name}"] = _sha(path.read_bytes())
        truth = run_dir / "zoo" / "truth.csv"
        parts["zoo/truth.csv"] = _sha(truth.read_bytes())
        with truth.open(newline="") as fh:
            accs = {row["model"]: float(row["accuracy"]) for row in csv.DictReader(fh)}
        # rho grows with the model index, so the oracle accuracies should too
        ordered = [accs[p.stem] for p in models]
        taus.append(weighted_kendall_tau(ordered, list(range(len(ordered)))))
        items = len(models)
    elif workload == "zoo-score":
        path = run_dir / "scores.json"
        parts["scores.json"] = _json_digest(path)
        records = json.loads(path.read_text())["records"]
        scores = [float(r["score"]) for r in records]
        for report in sorted((run_dir / "reports").iterdir()):
            name = f"reports/{report.name}"
            if report.suffix == ".json":
                parts[name] = _json_digest(report)
                if report.name.startswith("report_"):
                    taus.append(float(json.loads(report.read_text())["tau_w"]))
            else:
                parts[name] = _sha(report.read_bytes())
        items = len(records)
    else:
        path = run_dir / "sweep.csv"
        parts["sweep.csv"] = _sha(path.read_bytes())
        with path.open(newline="") as fh:
            taus = [float(row["tau_w"]) for row in csv.DictReader(fh)]
        items = len(taus) * len(models)
    digest = _sha(json.dumps(parts, sort_keys=True).encode())
    return {"parts": parts, "digest": digest, "scores": scores, "taus": taus,
            "items": items}


class Checker:
    """Checks each op's outputs and counts attempted and failed ops."""

    def __init__(self, workload: str, run_dir: Path, reference: dict | None):
        self.workload = workload
        self.run_dir = run_dir
        self.reference = reference
        self.canonical: dict | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, error: str | None, tamper=None) -> dict | None:
        """Check the outputs the last op left in the run directory, then
        delete them. Returns the collected outputs, or None if the op
        failed."""
        self.attempted += 1
        problems = [error] if error else []
        out = None
        if not error:
            if tamper is not None:
                tamper(self.attempted, self.run_dir)
            try:
                out = collect(self.workload, self.run_dir)
            except (OSError, ValueError, KeyError) as exc:
                problems.append(f"unreadable outputs: {exc!r}")
            else:
                problems += self._verify(out)
        for name in OP_OUTPUTS[self.workload]:
            path = self.run_dir / name
            if path.is_dir():
                shutil.rmtree(path)
            elif path.exists():
                path.unlink()
        if problems:
            self.failed += 1
            self.problems += [f"op {self.attempted}: {p}" for p in problems]
            return None
        if self.canonical is None:
            self.canonical = out
        return out

    def _verify(self, out: dict) -> list[str]:
        problems = []
        bad = [v for v in out["scores"] + out["taus"] if not math.isfinite(v)]
        if bad:
            problems.append(f"{len(bad)} non-finite scores or taus")
        if not out["taus"]:
            problems.append("no taus in the outputs")
        if self.reference is not None and out["parts"] != self.reference:
            diff = sorted(k for k in set(out["parts"]) | set(self.reference)
                          if out["parts"].get(k) != self.reference.get(k))
            problems.append(f"differs from reference.json in {diff[:4]}")
        if self.canonical is not None and out["digest"] != self.canonical["digest"]:
            diff = sorted(k for k in out["parts"]
                          if out["parts"][k] != self.canonical["parts"].get(k))
            problems.append(f"differs from the first op in {diff[:4]}")
        return problems


# ---------------------------------------------------------------------------
# fresh-process steps

def spawn(task: str, workload: str, seed: int, shape: dict, directory: Path) -> dict:
    """Run worker.py for one set-up or one op in a fresh interpreter."""
    directory.mkdir(parents=True, exist_ok=True)
    cfg = json.dumps({"workload": workload, "seed": seed, "shape": shape,
                      "dir": str(directory)})
    try:
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), task, cfg],
                              capture_output=True, text=True, timeout=150)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{task} worker for {workload} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"{task} worker for {workload} exited {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup(workload: str, seed: int, shape: dict, run_dir: Path,
          probe: Probe) -> tuple[list[float], list[float]]:
    """Set up in fresh processes, at least SETUP_REPS times and for at least
    SETUP_SECONDS, and leave the inputs in run_dir. Returns the seconds of
    each set-up as measured and at the reference speed."""
    raw, rescaled, zoos = [], [], []
    while len(raw) < SETUP_REPS or sum(raw) < SETUP_SECONDS:
        rep = run_dir / f"setup-{len(raw)}"
        r = spawn("setup", workload, seed, shape, rep)
        raw.append(r["import_s"] + r["build_s"] + r["warmup_s"])
        probe.read()
        rescaled.append(probe.rescale_wall(r["start"], r["end"], raw[-1], SETUP_KINDS))
        if workload != "zoo-synth":
            zoos.append({p.name: _sha(p.read_bytes()) for p in sorted((rep / "zoo").iterdir())
                         if p.name != "manifest.json"})
    if any(z != zoos[0] for z in zoos):
        raise BenchError("set-up repetitions built different zoos")
    if zoos:
        (run_dir / "setup-0" / "zoo").rename(run_dir / "zoo")
    for k in range(len(raw)):
        shutil.rmtree(run_dir / f"setup-{k}")
    return raw, rescaled


# ---------------------------------------------------------------------------
# a run

def load_reference(workload: str, seed: int, shape: dict) -> dict | None:
    if seed != DEFAULT_SEED or shape != ZOO or not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text()).get(workload)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 shape: dict = ZOO, tamper=None, use_reference: bool = True) -> dict:
    """Set up, measure and check one workload. Returns the result object
    plus `notes` (human-readable lines), `canonical` (the first correct
    op's outputs) and `tracer`."""
    if workload not in WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    run_dir = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    # One CPU for this process, the set-up and op workers it starts and the
    # speed probe, so that the probe sees the speed the benchmark gets.
    affinity = os.sched_getaffinity(0)
    cpu = min(affinity)
    os.sched_setaffinity(0, {cpu})
    try:
        with in_dir(run_dir), Probe(OP_KINDS[workload], cpu, run_dir / "speed.txt") as probe:
            return _run(workload, seed, seconds, trace, shape, tamper, run_dir, probe,
                        load_reference(workload, seed, shape) if use_reference else None)
    except ProbeError as exc:
        raise BenchError(str(exc)) from None
    finally:
        os.sched_setaffinity(0, affinity)
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(workload, seed, seconds, trace, shape, tamper, run_dir, probe, reference) -> dict:
    setup_raw, setup_times = setup(workload, seed, shape, run_dir, probe)
    checker = Checker(workload, run_dir, reference)
    fresh = spawn("op", workload, seed, shape, run_dir)
    checker.check(fresh.get("error"))

    cli = Cli()
    warm_up(cli, workload, run_dir)
    commands = op_commands(workload, shape, seed)
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
    plain, traced = [], []  # (wall, cpu, items, start, end); (op id, wall)
    start = time.perf_counter()
    index = 0
    while index < (2 if trace else 1) or time.perf_counter() - start < seconds:
        index += 1
        op_id = f"op{index}"
        is_traced = trace and index % 2 == 0
        error = None
        try:
            if is_traced:
                gc.collect()
                with tracer.op(op_id):
                    for argv in commands:
                        cli(argv)
                wall = tracer.op_wall(op_id)
            else:
                op_start = time.perf_counter()
                wall, cpu = run_op(cli, commands)
                op_end = op_start + wall
        except OpError as exc:
            error = str(exc)
        out = checker.check(error, tamper)
        if error:
            continue
        if is_traced:
            traced.append((op_id, wall))
        else:
            plain.append((wall, cpu, out["items"] if out else None, op_start, op_end))
    if not plain or (trace and not traced):
        raise BenchError(f"no op of {workload} completed: {checker.problems[:3]}")

    walls = [w for w, *_ in plain]
    notes = [f"ops {len(plain)} untraced, {len(traced)} traced; "
             f"attempted {checker.attempted}, failed {checker.failed}, "
             f"failed_frac {checker.failed / checker.attempted:.4g}"]
    notes += checker.problems
    probe.read()
    ref_walls = [probe.rescale_wall(t0, t1, w) for w, _, _, t0, t1 in plain]
    ref_cpus = [probe.rescale_cpu(t0, t1, c) for _, c, _, t0, t1 in plain]
    notes.append("samples " + json.dumps({"op_wall_s": walls, "op_wall_ref_s": ref_walls,
                                          "setup_s": setup_raw, "setup_ref_s": setup_times}))
    taus = checker.canonical["taus"] if checker.canonical else [float("nan")]
    if trace:
        metrics = _layer_metrics(tracer, traced, walls)
        metrics["evaluation.tau_w_mean"] = statistics.fmean(taus)
    else:
        # A run holds 5 to 14 ops. A percentile with ten samples beyond it
        # would be the fastest ops, and none exists below 11; the slowest op
        # is mostly noise, so the tail is the upper quartile.
        notes.append(f"wall_s_tail is the upper quartile (p75) of {len(walls)} ops")
        # Items per op are fixed by the workload, so the rate is the
        # reciprocal of wall_s and is printed, not bounded a second time.
        rates = [n / w for w, (_, _, n, _, _) in zip(ref_walls, plain) if n is not None]
        if rates:
            notes.append(f"items_per_s = {statistics.median(rates):.6g} 1/s "
                         f"({plain[0][2]} {ITEMS[workload]} per op)")
        # The bounded times are at the reference speed (speed.py); the raw
        # ones are printed beside them.
        slowdowns = [probe.slowdown(t0, t1) for *_, t0, t1 in plain]
        notes.append(f"as measured: wall_s = {statistics.median(walls):.6g} s, "
                     f"wall_s_tail = {upper_quartile(walls):.6g} s, "
                     f"cpu_s = {statistics.median(c for _, c, *_ in plain):.6g} s, "
                     f"setup_s = {statistics.median(setup_raw):.6g} s; the probe ran "
                     f"{statistics.median(slowdowns):.4g}x slower than the reference "
                     f"(median over ops, {min(slowdowns):.4g} to {max(slowdowns):.4g})")
        metrics = {
            "wall_s": statistics.median(ref_walls),
            "wall_s_tail": upper_quartile(ref_walls),
            "cpu_s": statistics.median(ref_cpus),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": fresh["peak_rss_mb"],
            "ok_frac": (checker.attempted - checker.failed) / checker.attempted,
        }
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
        "notes": notes,
        "canonical": checker.canonical,
        "tracer": tracer,
    }


def upper_quartile(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def _layer_metrics(tracer, traced: list[tuple[str, float]], walls: list[float]) -> dict:
    """Medians over the traced ops."""
    summaries = []
    for op_id, wall in traced:
        summary = tracer.summary(op_id)
        self_sum = sum(v for k, v in summary.items()
                       if k.endswith(".self_s") and k.count(".") == 1)
        if abs(self_sum - wall) > 1e-6 * wall:
            raise BenchError(f"{op_id}: module self times sum to {self_sum}, "
                             f"the op took {wall}")
        summaries.append(summary)
    metrics = {name: statistics.median(s.get(name, 0) for s in summaries)
               for name in PER_LAYER}
    traced_wall = statistics.median(wall for _, wall in traced)
    untraced_wall = statistics.median(walls)
    metrics.update({"trace.wall_s": traced_wall, "trace.untraced_wall_s": untraced_wall,
                    "trace.overhead_s": traced_wall - untraced_wall})
    return metrics


# ---------------------------------------------------------------------------
# environment record

def environment() -> dict:
    """Versions, BLAS build and threads, RNG backend and CPU of this run, so
    that runs on different builds are never compared unawares."""
    import platform

    import numpy
    import scipy

    import terank

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_build,
        "blas_threads": _blas_threads(),
        "rng_backend": terank.RNG_BACKEND,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


def _blas_threads() -> dict:
    """Thread count reported by each OpenBLAS library loaded here."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return {}
    threads = {}
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads[Path(path).name] = fn()
                break
    return threads
