#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny zoo shape; takes about a minute.

    python3 zoobench/selftest.py

Checks that BENCHMARK.json and layers.json name exactly the metrics the
benchmark emits, with the same units; that the speed probe's rescaling
halves a time measured at half the reference speed; that every workload
runs correctly with tracing off and on and leaves no process running;
that a flipped score or a reference mismatch is counted as a failed op;
and that the benchmark refuses to run, without printing a result, where
the terank source is missing.
"""
import json
import math
import os
import shutil
import subprocess
import sys

import bench
import speed

SEED = 5
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def e2e_bounds(spec: dict) -> dict:
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def declared() -> tuple[dict, dict]:
    spec = json.loads((bench.CHECKOUT / "BENCHMARK.json").read_text())
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}, f"BENCHMARK.json keys {sorted(spec)}")
    check({w["name"] for w in spec["workloads"]} <= set(bench.WORKLOADS),
          "BENCHMARK.json names a workload bench.WORKLOADS lacks")
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(e2e == bench.END_TO_END, f"end_to_end differs: {e2e} vs {bench.END_TO_END}")
    check(layers == bench.PER_LAYER, f"per_layer differs: {layers} vs {bench.PER_LAYER}")
    check(e2e_bounds(spec)["setup_s"] == max(e2e_bounds(spec).values()),
          "setup_s must have the largest bound")
    table = json.loads((bench.BENCH_DIR / "layers.json").read_text())
    tabled = [name for row in table["rows"] for name in row["metrics"]]
    check(len(tabled) == len(set(tabled)), "layers.json names a metric twice")
    untabled = {n for n in layers if not n.startswith("trace.")} ^ set(tabled)
    check(not untabled, f"layers.json and per_layer differ in {sorted(untabled)}")
    pairs = [p for row in table["rows"] for p in row["moves"] + row["flat"]]
    check(all(p.split(":")[0] in bench.WORKLOADS and p.split(":")[1] in e2e for p in pairs),
          "layers.json cites an unknown workload or end-to-end metric")
    return e2e, layers


def emitted(result: dict, units: dict, label: str) -> None:
    public = {k: result[k] for k in RESULT_KEYS}
    json.dumps(public, allow_nan=False)
    check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 2,
          f"{label}: {result['notes']}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    check(got == units, f"{label}: emitted metrics differ from BENCHMARK.json")
    for name, m in result["metrics"].items():
        check(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]),
              f"{label}: {name} = {m['value']!r}")


def rescaling() -> None:
    kinds = ("python", "numpy")
    probe = speed.Probe(kinds, 0, bench.WORK / "unused")
    # 1 s at twice the reference time for python and 8x for numpy: 4x slower
    probe.samples = [(k / 100, kind, factor * speed.REF_PROBE_S[kind])
                     for k in range(100) for kind, factor in zip(kinds, (2, 8))]
    stolen = sum(d for _, _, d in probe.samples)
    check(math.isclose(probe.slowdown(0.0, 1.0), 4.0), "slowdown is not the geometric mean")
    check(math.isclose(probe.rescale_wall(0.0, 1.0, 10.0), (10.0 - stolen) / 4),
          "rescale_wall does not take out the probe's share and divide by the slowdown")
    check(math.isclose(probe.rescale_cpu(0.0, 1.0, 10.0), 2.5), "rescale_cpu")
    check(math.isclose(probe.slowdown(5.0, 5.001, ("python",)), 2.0),
          "a window with no samples does not borrow the nearest")


def no_children() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def flip_one_score(attempt: int, run_dir) -> None:
    if attempt != 2:
        return
    path = run_dir / "scores.json"
    payload = json.loads(path.read_text())
    payload["records"][3]["score"] = -payload["records"][3]["score"]
    path.write_text(json.dumps(payload))


def main() -> None:
    bench.prepare_process()
    e2e, layers = declared()
    rescaling()
    print("ok: the speed probe's rescaling")
    for workload in bench.WORKLOADS:
        for trace, units in ((False, e2e), (True, layers)):
            result = bench.run_workload(workload, SEED, 0.0, trace, shape=bench.TINY)
            emitted(result, units, f"{workload} trace={int(trace)}")
            check(no_children(), f"{workload}: a probe or worker process is left running")
            print(f"ok: {workload} trace={int(trace)} emits {len(units)} metrics")

    result = bench.run_workload("zoo-score", SEED, 0.0, False, shape=bench.TINY,
                                tamper=flip_one_score)
    ok_frac = result["metrics"]["ok_frac"]["value"]
    check(not result["correct"] and result["failed"] == 1
          and ok_frac == 1 - 1 / result["attempted"],
          f"a flipped score was not counted: {result['failed']} failed, ok_frac {ok_frac}")
    print(f"ok: a flipped score counts as 1 failed op of {result['attempted']}")

    reference = bench.load_reference
    bench.load_reference = lambda *args: {"zoo/truth.csv": "0" * 64}
    try:
        result = bench.run_workload("zoo-synth", SEED, 0.0, False, shape=bench.TINY)
    finally:
        bench.load_reference = reference
    check(result["failed"] == result["attempted"], "a reference mismatch was not counted")
    print("ok: a reference mismatch fails every op")

    bare = bench.WORK / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(bench.CHECKOUT / "BENCHMARK.json", bare)
        shutil.copytree(bench.BENCH_DIR, bare / bench.BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        spec = json.loads((bare / "BENCHMARK.json").read_text())
        proc = subprocess.run(spec["command"] + ["--workload", "zoo-synth", "--seed", "0",
                                                 "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare)
    check(proc.returncode != 0 and "correct" not in proc.stdout,
          f"ran without the terank source: exit {proc.returncode}")
    print("ok: without the terank source the benchmark exits", proc.returncode)
    print("selftest passed")


if __name__ == "__main__":
    sys.exit(main())
