#!/usr/bin/env python3
"""Run the terank benchmark from the root of a checkout.

    python3 zoobench/run.py --workload zoo-score --seed 3 --seconds 10 --trace 0
    python3 zoobench/run.py                 # every workload at the default seed

Prints the environment, each op problem and each metric by name and unit,
then, as the last line, one JSON object with the keys correct, attempted,
failed and metrics. With --trace 0 the metrics are the end-to-end ones;
with --trace 1 they are the per-layer ones of a traced run, whose spans
go to .zoobench/spans-<workload>-seed<seed>.jsonl. With every workload the
metric names are prefixed by the workload. --update-reference rewrites
reference.json from the default seed's outputs instead of checking them.
"""
import argparse
import json
import sys

import bench


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=(*bench.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=bench.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.update_reference and args.seed != bench.DEFAULT_SEED:
        parser.error("--update-reference needs the default seed")
    try:
        bench.prepare_process()
        env = bench.environment()
    except (bench.BenchError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("env " + json.dumps(env, sort_keys=True))

    workloads = bench.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for workload in workloads:
        try:
            result = bench.run_workload(workload, args.seed, args.seconds, bool(args.trace),
                                        use_reference=not args.update_reference)
        except bench.BenchError as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 3
        for note in result["notes"]:
            print(f"{workload}: {note}")
        for name, metric in result["metrics"].items():
            print(f"{workload}: {name} = {metric['value']:.6g} {metric['unit']}")
        if result["tracer"] is not None:
            path = bench.WORK / f"spans-{workload}-seed{args.seed}.jsonl"
            result["tracer"].dump(str(path), {"workload": workload, "seed": args.seed,
                                              "env": env})
            print(f"{workload}: spans written to {path.relative_to(bench.CHECKOUT)}")
        results[workload] = result

    if args.update_reference:
        doc = json.loads(bench.REFERENCE.read_text()) if bench.REFERENCE.is_file() else {}
        doc.update({"seed": bench.DEFAULT_SEED, "shape": bench.ZOO})
        doc.update({w: r["canonical"]["parts"] for w, r in results.items()})
        bench.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")

    if len(results) == 1:
        metrics = result["metrics"]
    else:
        metrics = {f"{w}/{name}": m for w, r in results.items()
                   for name, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
