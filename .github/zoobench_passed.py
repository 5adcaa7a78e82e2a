"""Exit 0 when a zoobench run's output ends in a passing summary.

zoobench/run.py exits 0 even when an output is wrong; its last line, a
JSON summary, says whether every op matched its digest pinned in
zoobench/reference.json and whether any op failed.

    python3 .github/zoobench_passed.py RUN_OUTPUT_FILE
"""
import json
import sys

with open(sys.argv[1]) as f:
    summary = json.loads(f.read().splitlines()[-1])
sys.exit(0 if summary["correct"] is True and summary["failed"] == 0
         else "outputs differ from zoobench/reference.json or an op failed")
