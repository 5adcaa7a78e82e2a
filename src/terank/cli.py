"""Command-line front end: synth, score, evaluate, sweep, bench.

JSON files are the canonical machine output; stdout tables are cosmetic.
Exit codes: 0 ok, 2 usage, 3 data error, 4 numeric failure.
"""
from __future__ import annotations

import csv
import functools
import hashlib
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import click
import numpy as np

from . import __version__
from .embeddings import EmbeddingSet, load_csv, load_emb1, save_emb1
from .errors import DataError, NumericError
from .evaluation import (
    RankingReport,
    improvement_summary,
    load_bundled_truth,
    load_truth,
    rank_and_report,
)
from .metrics import LdaConfig, MetricId, ScoreRecord, score_metric, score_model
from .perturbation import AttractDirection, PerturbConfig, PerturbMode
from .synth import SYNTH_DATASET, SYNTH_POOL, SYNTH_REGIME, ZooConfig, gen_model_zoo

EXIT_DATA = 3
EXIT_NUMERIC = 4

METRIC_CHOICES = [m.value for m in MetricId]
MODE_CHOICES = [m.value for m in PerturbMode]


# ---------------------------------------------------------------------------
# option plumbing

def _check_nonneg(ctx, param, value):
    if value is not None and value < 0:
        raise click.BadParameter(f"{param.opts[0]} must be >= 0, got {value}")
    return value


def _check_positive(ctx, param, value):
    if value is not None and value <= 0:
        raise click.BadParameter(f"{param.opts[0]} must be > 0, got {value}")
    return value


def _check_energy(ctx, param, value):
    if value is not None and not 0.0 < value <= 1.0:
        raise click.BadParameter(f"{param.opts[0]} must lie in (0, 1], got {value}")
    return value


def _check_rank(ctx, param, value):
    if value is not None and value < 1:
        raise click.BadParameter(f"{param.opts[0]} must be >= 1, got {value}")
    return value


def _handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except DataError as exc:
            click.echo(f"data error: {exc}", err=True)
            sys.exit(EXIT_DATA)
        except OSError as exc:
            click.echo(f"i/o error: {exc}", err=True)
            sys.exit(EXIT_DATA)
        except (NumericError, np.linalg.LinAlgError, FloatingPointError) as exc:
            click.echo(f"numeric failure: {exc}", err=True)
            sys.exit(EXIT_NUMERIC)

    return wrapper


def _common_options(fn):
    fn = click.option("--seed", type=int, default=0, show_default=True,
                      help="Base seed; per-model seeds are seed XOR model index.")(fn)
    fn = click.option("--jobs", type=int, default=1, show_default=True,
                      callback=_check_positive,
                      help="Max models scored concurrently.")(fn)
    fn = click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
                      default=None,
                      help="Machine format on stdout instead of a table.")(fn)
    return fn


def _scoring_options(command):
    # the --pca-energy/--pca-rank exclusivity check for every scoring command
    @functools.wraps(command)
    def fn(*args, pca_energy, pca_rank, **kwargs):
        if pca_energy is not None and pca_rank is not None:
            raise click.UsageError("--pca-energy and --pca-rank are mutually exclusive")
        return command(*args, pca_energy=pca_energy, pca_rank=pca_rank, **kwargs)

    fn = click.option("--input", "inputs", multiple=True, required=True,
                      type=click.Path(exists=True, path_type=Path),
                      help="EMB1/CSV embedding file, or a directory of .emb1 files. "
                           "Repeatable.")(fn)
    fn = click.option("--label-col", default="label", show_default=True,
                      help="Label column for CSV embedding inputs.")(fn)
    fn = click.option("--metric", "metric_names", multiple=True,
                      type=click.Choice(METRIC_CHOICES),
                      default=tuple(METRIC_CHOICES), show_default=True)(fn)
    fn = click.option("--alpha", type=float, default=0.005, show_default=True,
                      callback=_check_nonneg, help="Attract step scale.")(fn)
    fn = click.option("--sigma", type=float, default=0.6, show_default=True,
                      callback=_check_nonneg, help="Radius sensitivity.")(fn)
    fn = click.option("--attract-dir", type=click.Choice(["toward", "literal"]),
                      default="toward", show_default=True)(fn)
    fn = click.option("--pca-energy", type=float, default=None,
                      callback=_check_energy,
                      help="Retained-variance target (default 0.8).")(fn)
    fn = click.option("--pca-rank", type=int, default=None, callback=_check_rank,
                      help="Explicit PCA rank; excludes --pca-energy.")(fn)
    fn = click.option("--nleep-k", type=int, default=None, callback=_check_rank,
                      help="GMM components for nleep (default: class count).")(fn)
    fn = click.option("--lda-eps", type=float, default=1e-4, show_default=True,
                      callback=_check_positive,
                      help="LDA ridge as a fraction of the mean within-class "
                           "variance.")(fn)
    return fn


def _truth_options(fn):
    fn = click.option("--truth", "truth_path",
                      type=click.Path(exists=True, path_type=Path), default=None,
                      help="Truth CSV (default: bundled accuracy tables).")(fn)
    fn = click.option("--dataset", default=SYNTH_DATASET, show_default=True)(fn)
    fn = click.option("--regime", default=SYNTH_REGIME, show_default=True)(fn)
    fn = click.option("--pool", default=SYNTH_POOL, show_default=True)(fn)
    fn = click.option("--weighting", type=click.Choice(["symmetric", "truth_ranks"]),
                      default="symmetric", show_default=True)(fn)
    return fn


# ---------------------------------------------------------------------------
# shared helpers

def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _strip_timing(doc):
    """Drop wall-clock values and execution metadata, recursively."""
    if isinstance(doc, dict):
        return {
            k: _strip_timing(v)
            for k, v in doc.items()
            if k not in ("wall_time_s", "runtime")
        }
    if isinstance(doc, list):
        return [_strip_timing(v) for v in doc]
    return doc


def _semantic_digest(payload: dict) -> str:
    """Digest of a JSON document with timing fields excluded, so reruns of
    the same computation hash identically."""
    canonical = json.dumps(_strip_timing(payload), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def _resolve_inputs(inputs: tuple[Path, ...]) -> list[Path]:
    files: list[Path] = []
    for item in inputs:
        if item.is_dir():
            found = sorted(item.glob("*.emb1"))
            if not found:
                raise DataError(f"{item}: no .emb1 files in directory")
            files.extend(found)
        else:
            files.append(item)
    if not files:
        raise DataError("no embedding inputs given")
    return files


def _load_set(path: Path, label_col: str) -> EmbeddingSet:
    if path.suffix == ".csv":
        return load_csv(path, label_column=label_col)
    return load_emb1(path)


def _manifest(command: str, config: dict, input_files: list[Path]) -> dict:
    return {
        "version": __version__,
        "command": command,
        "config": config,
        "inputs": {str(p): _sha256(p) for p in input_files},
        # execution metadata; excluded from determinism comparisons
        "runtime": {},
    }


def _dump_json(obj: dict, path: Path) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _echo_json(obj: dict) -> None:
    click.echo(json.dumps(obj, indent=2, sort_keys=True))


def _parse_range(text: str, flag: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise click.BadParameter(f"{flag} expects 'a:b', got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise click.BadParameter(f"{flag} expects numbers, got {text!r}") from None


def _parse_grid(text: str, flag: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip()]
    except ValueError:
        raise click.BadParameter(f"{flag} expects comma-separated numbers") from None
    if not values:
        raise click.BadParameter(f"{flag} is empty")
    return values


def _score_records(
    sets: list[EmbeddingSet],
    metric_names: tuple[str, ...],
    modes: tuple[str, ...],
    alpha: float,
    sigma: float,
    attract_dir: str,
    pca_energy: float | None,
    pca_rank: int | None,
    seed: int,
    jobs: int,
    nleep_k: int | None,
    lda_eps: float,
) -> list[ScoreRecord]:
    """Score every (model, mode, metric) cell; parallel across models.

    The result order and values are independent of the job count: each
    model gets its own derived seed and a deterministic task.
    """
    lda_cfg = LdaConfig(epsilon_scale=lda_eps)

    def run_model(index: int) -> list[ScoreRecord]:
        model_seed = seed ^ index
        records = []
        for mode in modes:
            cfg = PerturbConfig(
                alpha=alpha,
                sigma=sigma,
                mode=PerturbMode(mode),
                attract_direction=AttractDirection(attract_dir),
            )
            for name in metric_names:
                records.append(
                    score_model(
                        sets[index],
                        MetricId(name),
                        perturb=cfg,
                        energy=pca_energy,
                        rank=pca_rank,
                        seed=model_seed,
                        nleep_components=nleep_k,
                        lda_config=lda_cfg,
                    )
                )
        return records

    with ThreadPoolExecutor(max_workers=max(1, jobs)) as pool:
        nested = list(pool.map(run_model, range(len(sets))))
    return [rec for group in nested for rec in group]


def _print_table(headers: list[str], rows: list[list[str]]) -> None:
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    click.echo(line)
    click.echo("  ".join("-" * w for w in widths))
    for r in rows:
        click.echo("  ".join(c.ljust(w) for c, w in zip(r, widths)))


# ---------------------------------------------------------------------------
# commands

@click.group()
@click.version_option(version=__version__)
def main():
    """Score and rank pre-trained models from their feature embeddings."""


@main.command()
@click.option("--models", type=int, default=8, show_default=True)
@click.option("--classes", type=int, default=4, show_default=True)
@click.option("--per-class", type=int, default=100, show_default=True)
@click.option("--dim", type=int, default=16, show_default=True)
@click.option("--rho-range", default="2:10", show_default=True,
              help="Centroid scale a:b, linearly spaced across models.")
@click.option("--noise-range", default="1:1", show_default=True,
              help="Intra-class std a:b, linearly spaced across models.")
@click.option("--out", type=click.Path(path_type=Path), required=True)
@_common_options
@_handle_errors
def synth(models, classes, per_class, dim, rho_range, noise_range, out, seed,
          jobs, fmt):
    """Generate a synthetic model zoo: EMB1 files plus an oracle truth CSV."""
    rho_a, rho_b = _parse_range(rho_range, "--rho-range")
    noise_a, noise_b = _parse_range(noise_range, "--noise-range")
    cfg = ZooConfig(
        models=models,
        classes=classes,
        per_class=per_class,
        dim=dim,
        rhos=tuple(np.linspace(rho_a, rho_b, models).tolist()),
        noises=tuple(np.linspace(noise_a, noise_b, models).tolist()),
        seed=seed,
    )
    t0 = time.perf_counter()
    sets, truth = gen_model_zoo(cfg, jobs=jobs)
    out.mkdir(parents=True, exist_ok=True)
    for ds in sets:
        save_emb1(ds, out / f"{ds.model_id}.emb1")
    truth_path = out / "truth.csv"
    with truth_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "dataset", "regime", "pool", "accuracy"])
        for key in sorted(truth.records):
            writer.writerow([*key, repr(truth.records[key])])
    manifest = _manifest(
        "synth",
        {
            "models": models, "classes": classes, "per_class": per_class,
            "dim": dim, "rho_range": rho_range, "noise_range": noise_range,
            "seed": seed,
        },
        [],
    )
    manifest["runtime"] = {
        "jobs": jobs, "timings": {"total_s": time.perf_counter() - t0},
    }
    _dump_json(manifest, out / "manifest.json")
    summary = [
        {
            "model": ds.model_id,
            "rho": cfg.rhos[i],
            "noise": cfg.noises[i],
            "oracle_accuracy":
                truth.records[(ds.model_id, SYNTH_DATASET, SYNTH_REGIME,
                               SYNTH_POOL)],
        }
        for i, ds in enumerate(sets)
    ]
    if fmt == "json":
        _echo_json({"manifest": manifest, "models": summary})
    elif fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["model", "rho", "noise", "oracle_accuracy"])
        for row in summary:
            writer.writerow([row["model"], repr(row["rho"]), repr(row["noise"]),
                             repr(row["oracle_accuracy"])])
    else:
        _print_table(
            ["model", "rho", "noise", "oracle_acc_%"],
            [[r["model"], f"{r['rho']:.3f}", f"{r['noise']:.3f}",
              f"{r['oracle_accuracy']:.2f}"] for r in summary],
        )
        click.echo(f"wrote {len(sets)} embedding sets + truth.csv to {out}")


@main.command()
@_scoring_options
@click.option("--mode", "modes", multiple=True, type=click.Choice(MODE_CHOICES),
              default=("sa",), show_default=True)
@click.option("--out", type=click.Path(path_type=Path), default=None,
              help="Write the score JSON here.")
@_common_options
@_handle_errors
def score(inputs, label_col, metric_names, modes, alpha, sigma, attract_dir,
          pca_energy, pca_rank, nleep_k, lda_eps, out, seed, jobs, fmt):
    """Score models: one record per (model, metric, mode)."""
    files = _resolve_inputs(inputs)
    t0 = time.perf_counter()
    sets = [_load_set(p, label_col) for p in files]
    load_s = time.perf_counter() - t0

    t1 = time.perf_counter()
    records = _score_records(
        sets, metric_names, modes, alpha, sigma, attract_dir,
        pca_energy, pca_rank, seed, jobs, nleep_k, lda_eps,
    )
    score_s = time.perf_counter() - t1

    manifest = _manifest(
        "score",
        {
            "label_col": label_col,
            "metrics": list(metric_names),
            "modes": list(modes),
            "alpha": alpha, "sigma": sigma, "attract_dir": attract_dir,
            "pca_energy": pca_energy, "pca_rank": pca_rank,
            "nleep_k": nleep_k, "lda_eps": lda_eps, "seed": seed,
        },
        files,
    )
    manifest["runtime"] = {
        "jobs": jobs,
        "timings": {"load_s": load_s, "score_s": score_s},
    }
    payload = {"manifest": manifest, "records": [r.to_dict() for r in records]}
    if out is not None:
        _dump_json(payload, out)
    if fmt == "json":
        _echo_json(payload)
    elif fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["model", "metric", "mode", "score", "wall_time_s"])
        for r in records:
            writer.writerow([r.model_id, r.metric, r.mode, repr(r.score),
                             f"{r.wall_time_s:.6f}"])
    else:
        _print_table(
            ["model", "metric", "mode", "score"],
            [[r.model_id, r.metric, r.mode, f"{r.score:.6f}"] for r in records],
        )


def _load_score_payload(path: Path) -> tuple[dict, list[ScoreRecord]]:
    payload = json.loads(path.read_text())
    try:
        records = [ScoreRecord.from_dict(d) for d in payload["records"]]
        manifest = payload["manifest"]
    except (KeyError, TypeError) as exc:
        raise DataError(f"{path}: not a score JSON file ({exc})") from None
    return manifest, records


@main.command()
@click.option("--scores", "scores_path", required=True,
              type=click.Path(exists=True, path_type=Path),
              help="Score JSON produced by `terank score`.")
@_truth_options
@click.option("--out", type=click.Path(path_type=Path), default=None,
              help="Directory for report JSON/CSV files.")
@_common_options
@_handle_errors
def evaluate(scores_path, truth_path, dataset, regime, pool, weighting, out,
             seed, jobs, fmt):
    """Rank scored models against ground truth; emit reports and, when a
    baseline mode is present, an improvement summary."""
    t0 = time.perf_counter()
    score_manifest, records = _load_score_payload(scores_path)
    truth = load_truth(truth_path) if truth_path else load_bundled_truth()

    groups: dict[tuple[str, str], list[ScoreRecord]] = {}
    for rec in records:
        groups.setdefault((rec.metric, rec.mode), []).append(rec)

    manifest = _manifest(
        "evaluate",
        {
            "scores": str(scores_path),
            "truth": str(truth_path) if truth_path else "bundled",
            "dataset": dataset, "regime": regime, "pool": pool,
            "weighting": weighting, "seed": seed,
        },
        [truth_path] if truth_path else [],
    )
    # hash the score file's content net of timings, so re-scoring the same
    # inputs leads to the same evaluate manifest
    manifest["inputs"][str(scores_path)] = _semantic_digest(
        json.loads(scores_path.read_text())
    )
    manifest["score_manifest"] = score_manifest

    reports: dict[tuple[str, str], RankingReport] = {}
    for (metric, mode) in sorted(groups):
        reports[(metric, mode)] = rank_and_report(
            groups[(metric, mode)], truth, dataset, regime, pool,
            weighting=weighting,
        )
    manifest["runtime"] = {
        "jobs": jobs, "timings": {"total_s": time.perf_counter() - t0},
    }

    out_files = []
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        for (metric, mode), rep in reports.items():
            doc = rep.to_dict()
            doc["manifest"] = manifest
            report_path = out / f"report_{metric}_{mode}.json"
            _dump_json(doc, report_path)
            plot_path = out / f"plot_{metric}_{mode}.csv"
            with plot_path.open("w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["score", "accuracy", "model"])
                for s_val, acc, model in rep.plot_rows():
                    writer.writerow([repr(s_val), repr(acc), model])
            out_files += [report_path, plot_path]

    baseline_modes = {mode for _, mode in reports if mode == "none"}
    summaries = {}
    if baseline_modes:
        for mode in sorted({m for _, m in reports} - {"none"}):
            before, after = [], []
            for metric in sorted({met for met, _ in reports}):
                if (metric, "none") in reports and (metric, mode) in reports:
                    before.append(reports[(metric, "none")])
                    after.append(reports[(metric, mode)])
            if before:
                summaries[mode] = improvement_summary(before, after)
        if out is not None:
            for mode, rows in summaries.items():
                doc = {"manifest": manifest, "mode": mode,
                       "rows": [r.to_dict() for r in rows]}
                path = out / f"improvement_{mode}.json"
                _dump_json(doc, path)
                out_files.append(path)

    if fmt == "json":
        _echo_json(
            {
                "manifest": manifest,
                "reports": {f"{m}/{md}": r.to_dict() for (m, md), r in reports.items()},
                "improvement": {
                    mode: [r.to_dict() for r in rows]
                    for mode, rows in summaries.items()
                },
            }
        )
    elif fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["metric", "mode", "tau_w"])
        for (metric, mode), rep in sorted(reports.items()):
            writer.writerow([metric, mode, repr(rep.tau_w)])
    else:
        _print_table(
            ["metric", "mode", "tau_w"],
            [[m, md, f"{rep.tau_w:+.4f}"] for (m, md), rep in sorted(reports.items())],
        )
        for mode, rows in summaries.items():
            for row in rows:
                pct = ("n/a" if row.improvement_pct is None
                       else f"{row.improvement_pct:+.2f}%")
                click.echo(
                    f"improvement[{row.metric}, {mode} vs none]: "
                    f"{row.mean_tau_before:+.4f} -> {row.mean_tau_after:+.4f} "
                    f"({pct})"
                )
    if out_files:
        click.echo(f"wrote {len(out_files)} files to {out}", err=True)


@main.command()
@_scoring_options
@_truth_options
@click.option("--alpha-grid", default="0.001,0.005,0.01,0.05", show_default=True)
@click.option("--sigma-grid", default="0.5,0.6,0.7,0.8,0.9", show_default=True)
@click.option("--out", type=click.Path(path_type=Path), default=None,
              help="Write the sweep CSV here.")
@_common_options
@_handle_errors
def sweep(inputs, label_col, metric_names, alpha, sigma, attract_dir,
          pca_energy, pca_rank, nleep_k, lda_eps, truth_path, dataset, regime,
          pool, weighting, alpha_grid, sigma_grid, out, seed, jobs, fmt):
    """Hyper-parameter sensitivity: vary alpha with sigma fixed, then sigma
    with alpha fixed, reporting tau_w per cell."""
    alphas = _parse_grid(alpha_grid, "--alpha-grid")
    sigmas = _parse_grid(sigma_grid, "--sigma-grid")
    files = _resolve_inputs(inputs)
    sets = [_load_set(p, label_col) for p in files]
    truth = load_truth(truth_path) if truth_path else load_bundled_truth()

    t0 = time.perf_counter()
    cells = [(a, sigma) for a in alphas] + [(alpha, s) for s in sigmas]
    rows = []
    for cell_alpha, cell_sigma in cells:
        records = _score_records(
            sets, metric_names, ("sa",), cell_alpha, cell_sigma, attract_dir,
            pca_energy, pca_rank, seed, jobs, nleep_k, lda_eps,
        )
        by_metric: dict[str, list[ScoreRecord]] = {}
        for rec in records:
            by_metric.setdefault(rec.metric, []).append(rec)
        for metric in metric_names:
            rep = rank_and_report(
                by_metric[metric], truth, dataset, regime, pool,
                weighting=weighting,
            )
            rows.append((cell_alpha, cell_sigma, metric, rep.tau_w))

    if out is not None:
        with out.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["alpha", "sigma", "metric", "tau_w"])
            for a, s_val, metric, tau in rows:
                writer.writerow([repr(a), repr(s_val), metric, repr(tau)])
        manifest = _manifest(
            "sweep",
            {
                "alpha_grid": alphas, "sigma_grid": sigmas,
                "alpha_fixed": alpha, "sigma_fixed": sigma,
                "metrics": list(metric_names), "dataset": dataset,
                "regime": regime, "pool": pool, "weighting": weighting,
                "seed": seed,
            },
            files,
        )
        manifest["runtime"] = {
            "jobs": jobs, "timings": {"total_s": time.perf_counter() - t0},
        }
        _dump_json(manifest, Path(str(out) + ".manifest.json"))

    if fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["alpha", "sigma", "metric", "tau_w"])
        for a, s_val, metric, tau in rows:
            writer.writerow([repr(a), repr(s_val), metric, repr(tau)])
    elif fmt == "json":
        _echo_json(
            {"rows": [
                {"alpha": a, "sigma": s_val, "metric": m, "tau_w": tau}
                for a, s_val, m, tau in rows
            ]}
        )
    else:
        _print_table(
            ["alpha", "sigma", "metric", "tau_w"],
            [[f"{a:g}", f"{s_val:g}", m, f"{tau:+.4f}"] for a, s_val, m, tau in rows],
        )


@main.command()
@_scoring_options
@click.option("--mode", "modes", multiple=True, type=click.Choice(MODE_CHOICES),
              default=("none", "sa"), show_default=True)
@click.option("--out", type=click.Path(path_type=Path), default=None,
              help="Write the timing CSV here.")
@_common_options
@_handle_errors
def bench(inputs, label_col, metric_names, modes, alpha, sigma, attract_dir,
          pca_energy, pca_rank, nleep_k, lda_eps, out, seed, jobs, fmt):
    """Wall-time comparison per metric: raw features (no reduction, no
    perturbation) against each requested pipeline mode."""
    files = _resolve_inputs(inputs)
    sets = [_load_set(p, label_col) for p in files]
    lda_cfg = LdaConfig(epsilon_scale=lda_eps)

    timings: dict[tuple[str, str], float] = {}
    for name in metric_names:
        t0 = time.perf_counter()
        for index, ds in enumerate(sets):
            score_metric(ds, MetricId(name), seed=seed ^ index,
                         nleep_components=nleep_k, lda_config=lda_cfg)
        timings[(name, "raw")] = time.perf_counter() - t0
    for mode in modes:
        for name in metric_names:
            records = _score_records(
                sets, (name,), (mode,), alpha, sigma, attract_dir,
                pca_energy, pca_rank, seed, jobs, nleep_k, lda_eps,
            )
            timings[(name, mode)] = sum(r.wall_time_s for r in records)

    rows = []
    for name in metric_names:
        raw_t = timings[(name, "raw")]
        for mode in ("raw", *modes):
            t = timings[(name, mode)]
            rows.append((name, mode, t, t / raw_t if raw_t > 0 else float("nan")))

    if out is not None:
        with out.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["metric", "mode", "wall_time_s", "ratio_vs_raw"])
            for name, mode, t, ratio in rows:
                writer.writerow([name, mode, f"{t:.6f}", f"{ratio:.4f}"])

    if fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["metric", "mode", "wall_time_s", "ratio_vs_raw"])
        for name, mode, t, ratio in rows:
            writer.writerow([name, mode, f"{t:.6f}", f"{ratio:.4f}"])
    elif fmt == "json":
        _echo_json(
            {"rows": [
                {"metric": n, "mode": m, "wall_time_s": t, "ratio_vs_raw": r}
                for n, m, t, r in rows
            ]}
        )
    else:
        _print_table(
            ["metric", "mode", "wall_time_s", "ratio_vs_raw"],
            [[n, m, f"{t:.4f}", f"{r:.3f}"] for n, m, t, r in rows],
        )


if __name__ == "__main__":
    main()
