"""Ranking evaluation: ground-truth tables, weighted Kendall correlation,
per-run reports, and before/after improvement summaries."""
from __future__ import annotations

import csv
from dataclasses import asdict, dataclass
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .errors import DataError

if TYPE_CHECKING:  # pragma: no cover
    from .metrics import ScoreRecord

REGIMES = ("vanilla", "lbft", "lft", "synthetic")
POOLS = ("supervised", "self_supervised", "synthetic")
WEIGHTINGS = ("truth_ranks", "symmetric")

_BUNDLED = [
    ("supervised", "vanilla"),
    ("supervised", "lbft"),
    ("supervised", "lft"),
    ("self_supervised", "vanilla"),
    ("self_supervised", "lbft"),
    ("self_supervised", "lft"),
]


@dataclass(frozen=True)
class TruthTable:
    """Ground-truth accuracies keyed by (model, dataset, regime, pool)."""

    records: dict[tuple[str, str, str, str], float]

    def __post_init__(self):
        for key, acc in self.records.items():
            _check_key(key)
            if not 0.0 < acc <= 100.0:
                raise DataError(f"{key}: accuracy {acc} outside (0, 100]")

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


def _check_key(key: tuple[str, str, str, str]) -> None:
    model, dataset, regime, pool = key
    if not model or not dataset:
        raise DataError(f"empty model or dataset in key {key}")
    if regime not in REGIMES:
        raise DataError(f"unknown regime {regime!r} (allowed: {REGIMES})")
    if pool not in POOLS:
        raise DataError(f"unknown pool {pool!r} (allowed: {POOLS})")


def load_truth(path: str | Path) -> TruthTable:
    """Parse a truth CSV with columns model,dataset,regime,pool,accuracy."""
    path = Path(path)
    with path.open(newline="") as fh:
        return _parse_truth([(csv.DictReader(fh), str(path))])


def _parse_truth(sources: Iterable[tuple[Iterable[dict], str]]) -> TruthTable:
    """One TruthTable from the rows of each `(reader, origin)` source; a
    key given twice, in one source or across two, is a data error."""
    needed = {"model", "dataset", "regime", "pool", "accuracy"}
    records: dict[tuple[str, str, str, str], float] = {}
    for reader, origin in sources:
        for lineno, row in enumerate(reader, start=2):
            if not needed <= set(row):
                raise DataError(
                    f"{origin}: columns {sorted(needed)} required, got {sorted(row)}"
                )
            key = (row["model"], row["dataset"], row["regime"], row["pool"])
            try:
                acc = float(row["accuracy"])
            except (TypeError, ValueError):
                raise DataError(
                    f"{origin}:{lineno}: accuracy {row['accuracy']!r} is not a number"
                ) from None
            if key in records:
                raise DataError(f"{origin}:{lineno}: duplicate key {key}")
            records[key] = acc
    return TruthTable(records=records)


def bundled_truth_text(pool: str, regime: str) -> str:
    """Raw CSV text of one bundled accuracy table."""
    name = f"truth_{pool}_{regime}.csv"
    return (resources.files("terank") / "data" / name).read_text()


def load_bundled_truth() -> TruthTable:
    """All six bundled accuracy tables in one TruthTable."""
    return _parse_truth(
        (csv.DictReader(bundled_truth_text(pool, regime).splitlines()),
         f"bundled {pool}/{regime}")
        for pool, regime in _BUNDLED
    )


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

    def plot_rows(self) -> list[tuple[float, float, str]]:
        """(score, accuracy, model) triples, the regression-plot shape."""
        return [(m.score, m.accuracy, m.id) for m in self.models]


def rank_and_report(
    scores: Sequence["ScoreRecord"],
    truth: TruthTable,
    dataset: str,
    regime: str,
    pool: str,
    weighting: str = "symmetric",
) -> RankingReport:
    """Join score records with ground truth and correlate the rankings.

    All records must come from one (metric, mode) cell; every scored
    model must have a truth entry for the requested key.
    """
    if not scores:
        raise DataError("no score records to rank")
    cells = {(r.metric, r.mode) for r in scores}
    if len(cells) != 1:
        raise DataError(f"records span several (metric, mode) cells: {cells}")
    ids = [r.model_id for r in scores]
    if len(set(ids)) != len(ids):
        raise DataError("duplicate model ids in score records")

    accs = np.array(
        [truth.accuracy(r.model_id, dataset, regime, pool) for r in scores]
    )
    vals = np.array([r.score for r in scores], dtype=np.float64)
    pred_rank = _ranks_desc(vals)
    truth_rank = _ranks_desc(accs)
    tau = weighted_kendall_tau(accs, vals, weighting=weighting)
    metric, mode = next(iter(cells))
    return RankingReport(
        metric=metric,
        dataset=dataset,
        regime=regime,
        pool=pool,
        perturb_mode=mode,
        weighting=weighting,
        tau_w=tau,
        models=tuple(
            ModelRow(
                id=r.model_id,
                score=float(r.score),
                accuracy=float(a),
                pred_rank=int(pr),
                truth_rank=int(tr),
            )
            for r, a, pr, tr in zip(scores, accs, pred_rank, truth_rank)
        ),
        wall_time_s=float(sum(r.wall_time_s for r in scores)),
    )


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
    before: Sequence[RankingReport], after: Sequence[RankingReport]
) -> list[ImprovementRow]:
    """Per-metric mean tau before/after and the relative change in percent.

    Reports are paired by (metric, dataset); an unpaired report is an
    error. The relative change is (after - before) / |before| * 100. It is
    undefined when the mean tau before is 0; improvement_pct is then None
    (JSON null).
    """
    before_by_key = {}
    for rep in before:
        key = (rep.metric, rep.dataset)
        if key in before_by_key:
            raise DataError(f"duplicate before-report for {key}")
        before_by_key[key] = rep
    after_keys = set()
    pairs: dict[str, list[tuple[float, float]]] = {}
    for rep in after:
        key = (rep.metric, rep.dataset)
        if key in after_keys:
            raise DataError(f"duplicate after-report for {key}")
        after_keys.add(key)
        if key not in before_by_key:
            raise DataError(f"after-report {key} has no before-report")
        pairs.setdefault(rep.metric, []).append(
            (before_by_key[key].tau_w, rep.tau_w)
        )
    unpaired = set(before_by_key) - after_keys
    if unpaired:
        raise DataError(f"before-reports without after-reports: {unpaired}")

    rows = []
    for metric in sorted(pairs):
        taus = pairs[metric]
        mean_before = float(np.mean([b for b, _ in taus]))
        mean_after = float(np.mean([a for _, a in taus]))
        pct = (
            (mean_after - mean_before) / abs(mean_before) * 100.0
            if mean_before != 0.0 else None
        )
        rows.append(
            ImprovementRow(
                metric=metric,
                mean_tau_before=mean_before,
                mean_tau_after=mean_after,
                improvement_pct=pct,
                dataset_count=len(taus),
            )
        )
    return rows
