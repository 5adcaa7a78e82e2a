"""The benchmark zoo's 64 scores, pinned within a stated bound.

zoobench's reference digests pin the zoo-score op's bytes, but only at
seed 0 and only on a CPU whose numpy picks the same SIMD loops. This
module pins the same scores by value: the zoo of zoobench's ZOO shape
(8 models x 10 classes x 200 per class x 128 dims, `--rho-range
0.25:1.0`, seed 0), built through the library, each model scored with
the four metrics in modes `none` and `sa` at seed `0 ^ m`, the CLI's
per-model seed rule.

The bound, |s - pinned| <= 1e-12 * max(1, |pinned|), sits between two
measured scales. A relative jitter of 1e-7 on the zoo's float32 inputs
moved each metric's scores by 7.2e-10 (lda) to 4.3e-8 (nleep), so a
change that moves what a metric computes by as much as the data's own
resolution fails here. The BLAS thread count and numpy's SIMD target
move them by at most 4.9e-15, so the test passes at one or two BLAS
threads and with numpy's AVX-512 targets disabled. Each (metric, mode)
cell's model order is compared exactly.

The table is regenerated by running this module as a script:

    PYTHONPATH=src python tests/test_zoo_scores.py > tests/zoo_scores.json

A deliberate re-pin lists every score it moves, before and after.
"""
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from terank import PerturbConfig, ZooConfig, gen_zoo_model, score_model

TABLE = Path(__file__).with_name("zoo_scores.json")
SEED = 0
METRICS = ("logme", "gbc", "nleep", "lda")
MODES = ("none", "sa")
REL_BOUND = 1e-12


def zoo_scores() -> dict[str, dict[str, float]]:
    """`{"<metric>/<mode>": {model id: score}}` of the benchmark zoo."""
    models = 8
    cfg = ZooConfig(classes=10, per_class=200, dim=128,
                    rhos=tuple(np.linspace(0.25, 1.0, models).tolist()),
                    noises=tuple(np.linspace(1.0, 1.0, models).tolist()),
                    seed=SEED)
    configs = [PerturbConfig(mode=mode) for mode in MODES]
    cells = {f"{metric}/{mode}": {} for mode in MODES for metric in METRICS}
    for m in range(models):
        ds, _ = gen_zoo_model(cfg, m)
        for rec in score_model(ds, METRICS, configs, seed=SEED ^ m):
            cells[f"{rec.metric}/{rec.mode}"][rec.model_id] = rec.score
    return cells


def model_order(cell: dict[str, float]) -> list[str]:
    return sorted(cell, key=lambda model: (-cell[model], model))


@pytest.fixture(scope="module")
def scores():
    return zoo_scores()


@pytest.fixture(scope="module")
def pinned():
    return json.loads(TABLE.read_text())


def test_the_table_holds_64_scores(pinned):
    assert sorted(pinned) == sorted(f"{metric}/{mode}"
                                    for metric in METRICS for mode in MODES)
    assert all(len(cell) == 8 for cell in pinned.values())
    assert all(math.isfinite(s) for cell in pinned.values() for s in cell.values())


def test_every_score_is_within_the_bound(scores, pinned):
    assert {key: sorted(cell) for key, cell in scores.items()} == {
        key: sorted(cell) for key, cell in pinned.items()}
    moved = [f"{key} {model}: {scores[key][model]!r} vs pinned {pin!r}"
             for key, cell in pinned.items() for model, pin in cell.items()
             if abs(scores[key][model] - pin) > REL_BOUND * max(1.0, abs(pin))]
    assert moved == []


def test_every_cell_keeps_its_model_order(scores, pinned):
    assert {key: model_order(cell) for key, cell in scores.items()} == {
        key: model_order(cell) for key, cell in pinned.items()}


if __name__ == "__main__":
    json.dump(zoo_scores(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
