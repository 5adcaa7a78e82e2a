"""One fresh-process step of the benchmark, run by bench.spawn:

    python3 zoobench/worker.py setup '<json config>'
    python3 zoobench/worker.py op '<json config>'

`setup` times importing `terank.cli`, building the workload's inputs in the
config's directory and a warm-up, and gives the perf_counter stamps of its
start and end. `op` runs one op there and reports the
process's peak resident set. Each prints one JSON object.
"""
import json
import os
import resource
import sys
import time
from pathlib import Path

import bench


def main() -> None:
    task, cfg = sys.argv[1], json.loads(sys.argv[2])
    bench.prepare_process()
    t0 = time.perf_counter()
    import terank.cli  # noqa: F401
    import_s = time.perf_counter() - t0
    cli = bench.Cli()
    workload, seed, shape = cfg["workload"], cfg["seed"], cfg["shape"]
    run_dir = Path(cfg["dir"])
    os.chdir(run_dir)
    if task == "setup":
        t1 = time.perf_counter()
        if workload != "zoo-synth":
            cli(bench.zoo_command(shape, seed))
        t2 = time.perf_counter()
        bench.warm_up(cli, workload, run_dir)
        end = time.perf_counter()
        result = {"import_s": import_s, "build_s": t2 - t1, "warmup_s": end - t2,
                  "start": t0, "end": end}
    elif task == "op":
        result = {}
        try:
            result["wall_s"], _ = bench.run_op(cli, bench.op_commands(workload, shape, seed))
        except bench.OpError as exc:
            result["error"] = str(exc)
        # ru_maxrss is in KiB on Linux
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        raise SystemExit(f"unknown task {task!r}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
