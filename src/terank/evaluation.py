"""Ranking evaluation: ground-truth tables, score records and the score
file's reader, weighted Kendall correlation, per-cell reports, and
perturbed-versus-baseline improvement summaries."""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np

from .embeddings import csv_text, read_csv
from .errors import DataError
from .vocabulary import MetricId, PerturbMode

# the dataset, regime and pool of every synth zoo's truth records
SYNTH_DATASET = SYNTH_REGIME = SYNTH_POOL = "synthetic"
REGIMES = ("vanilla", "lbft", "lft", SYNTH_REGIME)
POOLS = ("supervised", "self_supervised", SYNTH_POOL)
WEIGHTINGS = ("symmetric", "truth_ranks")
# the header of a truth CSV, in the order write_truth writes it
TRUTH_COLUMNS = ("model", "dataset", "regime", "pool", "accuracy")


@dataclass(frozen=True)
class TruthTable:
    """Ground-truth accuracies keyed by (model, dataset, regime, pool), a plain
    container: its builders, load_truth and zoo_truth, check each record once."""

    records: dict[tuple[str, str, str, str], float]

    def __len__(self) -> int:
        return len(self.records)

    def accuracy(self, model: str, dataset: str, regime: str, pool: str) -> float:
        try:
            return self.records[(model, dataset, regime, pool)]
        except KeyError:
            raise DataError(
                f"no ground truth for model {model!r} under "
                f"(dataset={dataset}, regime={regime}, pool={pool})"
            ) from None


def check_truth_record(key: tuple[str, str, str, str], acc: float) -> None:
    """The rule every truth record obeys: a known regime and pool, a
    non-empty model and dataset, and an accuracy in (0, 100]."""
    model, dataset, regime, pool = key
    if not model or not dataset:
        raise DataError(f"empty model or dataset in key {key}")
    if regime not in REGIMES:
        raise DataError(f"unknown regime {regime!r} (allowed: {REGIMES})")
    if pool not in POOLS:
        raise DataError(f"unknown pool {pool!r} (allowed: {POOLS})")
    if not 0.0 < acc <= 100.0:
        raise DataError(f"{key}: accuracy {acc} outside (0, 100]")


def load_truth(path: str | Path) -> TruthTable:
    """Parse a truth CSV (TRUTH_COLUMNS in any order) through read_csv,
    checking each row once with check_truth_record; a key given twice is a
    data error. Messages start `<path>: `, a row's then `line N: `."""
    try:
        header, rows = read_csv(path)
        column = {name: i for i, name in enumerate(header)}  # a repeated name: its last
        if not column.keys() >= set(TRUTH_COLUMNS):
            raise DataError(f"columns {sorted(TRUTH_COLUMNS)} required, "
                            f"got {sorted(header)}")
        records: dict[tuple[str, str, str, str], float] = {}
        for line, row in rows:
            *key, cell = (row[column[name]] for name in TRUTH_COLUMNS)
            key = tuple(key)
            try:
                acc = float(cell)
                check_truth_record(key, acc)
                if key in records:
                    raise DataError(f"duplicate key {key}")
            except ValueError:
                raise DataError(
                    f"line {line}: accuracy {cell!r} is not a number") from None
            except DataError as exc:
                raise DataError(f"line {line}: {exc}") from None
            records[key] = acc
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    return TruthTable(records=records)


def write_truth(table: TruthTable, path: str | Path) -> None:
    """Write `table` with csv_text as a truth CSV that load_truth reads back
    exactly: rows in key order, accuracies as their repr."""
    rows = [[*key, repr(acc)] for key, acc in sorted(table.records.items())]
    Path(path).write_text(csv_text([TRUTH_COLUMNS, *rows]), encoding="utf-8", newline="")


def load_bundled_truth() -> TruthTable:
    """The bundled accuracy tables: the paper's grid, one truth CSV."""
    with resources.as_file(resources.files("terank") / "data" / "truth.csv") as path:
        return load_truth(path)


@dataclass(frozen=True)
class ScoreRecord:
    """One transferability score and the wall time it took to compute."""

    model_id: str
    dataset_id: str
    metric: str
    mode: str
    score: float
    wall_time_s: float

    @property
    def perturbed(self) -> bool:
        """Whether the record's mode moves features (PerturbMode.perturbed)."""
        return PerturbMode(self.mode).perturbed

    def to_dict(self) -> dict:
        return {
            "model": self.model_id,
            "dataset": self.dataset_id,
            "metric": self.metric,
            "mode": self.mode,
            "perturbed": self.perturbed,
            "score": self.score,
            "wall_time_s": self.wall_time_s,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ScoreRecord":
        """Parse one record of a score JSON file. A missing field, an
        unknown metric or mode, a `perturbed` that contradicts the mode, or
        a value of the wrong type raises KeyError, ValueError or TypeError."""
        if not (isinstance(d["model"], str) and isinstance(d["dataset"], str)
                and isinstance(d["perturbed"], bool)
                and all(type(d[k]) in (int, float) for k in ("score", "wall_time_s"))):
            raise TypeError("a score record field has the wrong type")
        record = cls(
            model_id=d["model"],
            dataset_id=d["dataset"],
            metric=MetricId(d["metric"]).value,
            mode=PerturbMode(d["mode"]).value,
            score=float(d["score"]),
            wall_time_s=float(d["wall_time_s"]),
        )
        if d["perturbed"] != record.perturbed:
            raise ValueError(f"perturbed is {d['perturbed']} in mode {record.mode}")
        return record


def _finite_float(text: str) -> float:
    """A JSON number, refusing NaN, Infinity and numbers that overflow."""
    if math.isfinite(value := float(text)):
        return value
    raise ValueError(f"{text} is not a finite number")


def load_scores(path: str | Path) -> tuple[dict, list[ScoreRecord]]:
    """Parse a score JSON file: its payload, which must hold a manifest, and
    records, which hold each (model, metric, mode) once."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8-sig"),
                             parse_float=_finite_float, parse_constant=_finite_float)
        payload["manifest"]  # evaluate copies it into its own manifest
        records = [ScoreRecord.from_dict(d) for d in payload["records"]]
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise DataError(f"{path}: not a score JSON file ({exc})") from None
    if not records:
        raise DataError(f"no score records in {path}")
    if len({(r.model_id, r.metric, r.mode) for r in records}) != len(records):
        raise DataError("duplicate model ids in score records")
    return payload, records


# ---------------------------------------------------------------------------
# weighted Kendall correlation

def _ranks_desc(values: np.ndarray) -> np.ndarray:
    order = np.argsort(-values, kind="stable")
    ranks = np.empty(values.shape[0], dtype=np.int64)
    ranks[order] = np.arange(values.shape[0])
    return ranks


def weighted_kendall_tau(
    truth: Sequence[float],
    scores: Sequence[float],
    weighting: str = "symmetric",
) -> float:
    """Rank correlation where pairs involving top-ranked items count more.

    With ranks r taken from the descending truth order (rank 0 = best),
    each pair (i, j) weighs 1/(1+r_i) + 1/(1+r_j) and contributes the
    product of the pair sign in truth and in scores; ties contribute 0.
    The symmetric mode (default) averages this with the value computed
    from score-derived ranks.
    """
    if weighting not in WEIGHTINGS:
        raise DataError(f"weighting must be one of {WEIGHTINGS}")
    t = np.asarray(truth, dtype=np.float64)
    s = np.asarray(scores, dtype=np.float64)
    if t.shape != s.shape or t.ndim != 1:
        raise DataError("truth and scores must be 1-D and equally long")
    if t.shape[0] < 2:
        raise DataError("need at least two items to correlate")
    if not (np.isfinite(t).all() and np.isfinite(s).all()):
        raise DataError("truth and scores must be finite")

    iu = np.triu_indices(t.shape[0], k=1)
    sign = (np.sign(t[:, None] - t[None, :]) * np.sign(s[:, None] - s[None, :]))[iu]

    def tau_from(ranks: np.ndarray) -> float:
        w = 1.0 / (1.0 + ranks)
        wij = (w[:, None] + w[None, :])[iu]
        return float(np.sum(wij * sign) / np.sum(wij))

    tau = tau_from(_ranks_desc(t))
    if weighting == "truth_ranks":
        return tau
    return 0.5 * (tau + tau_from(_ranks_desc(s)))


# ---------------------------------------------------------------------------
# reports

@dataclass(frozen=True)
class ModelRow:
    id: str
    score: float
    accuracy: float
    pred_rank: int
    truth_rank: int


@dataclass(frozen=True)
class RankingReport:
    """One metric's predicted ranking against ground truth."""

    metric: str
    dataset: str
    regime: str
    pool: str
    perturb_mode: str
    weighting: str
    tau_w: float
    models: tuple[ModelRow, ...]
    wall_time_s: float

    def to_dict(self) -> dict:
        return asdict(self)


def rank_cells(
    records: Sequence[ScoreRecord],
    truth: TruthTable,
    dataset: str,
    regime: str,
    pool: str,
    weighting: str = "symmetric",
) -> list[RankingReport]:
    """Join score records with ground truth and correlate the rankings of
    each (metric, mode) cell: one report per cell, in sorted cell order,
    its models in record order.

    A cell needs at least two models, each once; every scored model must
    have a truth entry for the requested key.
    """
    if not records:
        raise DataError("no score records to rank")
    cells: dict[tuple[str, str], list[ScoreRecord]] = {}
    for rec in records:
        cells.setdefault((rec.metric, rec.mode), []).append(rec)
    reports = []
    for (metric, mode), scores in sorted(cells.items()):
        ids = [r.model_id for r in scores]
        if len(set(ids)) != len(ids):
            raise DataError("duplicate model ids in score records")
        if len(ids) == 1:
            raise DataError(f"cell (metric={metric}, mode={mode}) has 1 model; "
                            f"ranking needs at least two")
        accs = np.array([truth.accuracy(r.model_id, dataset, regime, pool)
                         for r in scores])
        vals = np.array([r.score for r in scores], dtype=np.float64)
        reports.append(RankingReport(
            metric=metric,
            dataset=dataset,
            regime=regime,
            pool=pool,
            perturb_mode=mode,
            weighting=weighting,
            tau_w=weighted_kendall_tau(accs, vals, weighting=weighting),
            models=tuple(
                ModelRow(id=r.model_id, score=float(r.score), accuracy=float(a),
                         pred_rank=int(pr), truth_rank=int(tr))
                for r, a, pr, tr in zip(scores, accs, _ranks_desc(vals),
                                        _ranks_desc(accs))
            ),
            wall_time_s=float(sum(r.wall_time_s for r in scores)),
        ))
    return reports


@dataclass(frozen=True)
class ImprovementRow:
    metric: str
    mean_tau_before: float
    mean_tau_after: float
    improvement_pct: float | None  # None when the baseline mean tau is 0
    dataset_count: int

    def to_dict(self) -> dict:
        return asdict(self)


def improvement_summary(
    reports: Sequence[RankingReport],
) -> dict[str, list[ImprovementRow]]:
    """Per perturbed mode, per metric: the mean tau over datasets of the
    metric's `none` reports and of the mode's, and the relative change
    (after - before) / |before| * 100, with modes and metrics sorted.

    Each perturbed cell pairs with the same metric's `none` cell, dataset
    by dataset; a metric with no `none` report gets no row. Two reports of
    one (metric, mode, dataset), or a perturbed and a `none` cell of one
    metric that cover different datasets, are an error. The change is
    undefined when the mean tau before is 0; improvement_pct is then None
    (JSON null).
    """
    taus: dict[tuple[str, str], dict[str, float]] = {}  # cell -> dataset -> tau
    for rep in reports:
        cell = taus.setdefault((rep.metric, rep.perturb_mode), {})
        if rep.dataset in cell:
            raise DataError(f"duplicate report for "
                            f"{(rep.metric, rep.perturb_mode, rep.dataset)}")
        cell[rep.dataset] = rep.tau_w
    summary: dict[str, list[ImprovementRow]] = {}
    for mode, metric in sorted((mode, metric) for metric, mode in taus):
        before, after = taus.get((metric, "none")), taus[(metric, mode)]
        if before is None or not PerturbMode(mode).perturbed:
            continue
        if before.keys() != after.keys():
            raise DataError(f"{metric} reports of mode {mode} cover datasets "
                            f"{sorted(after)}, of mode none {sorted(before)}")
        # summed in report order
        mean_before = float(np.mean([before[d] for d in after]))
        mean_after = float(np.mean(list(after.values())))
        pct = (
            (mean_after - mean_before) / abs(mean_before) * 100.0
            if mean_before != 0.0 else None
        )
        summary.setdefault(mode, []).append(
            ImprovementRow(
                metric=metric,
                mean_tau_before=mean_before,
                mean_tau_after=mean_after,
                improvement_pct=pct,
                dataset_count=len(after),
            )
        )
    return summary
