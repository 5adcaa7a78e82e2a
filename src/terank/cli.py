"""Command-line front end: synth, score, evaluate, sweep.

JSON files are the canonical machine output; stdout tables are cosmetic.
Exit codes: 0 ok, 2 usage, 3 data error, 4 numeric failure.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import json
import logging
import math
import shutil
import sys
import tempfile
import time
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import click
import numpy as np

from . import __version__
from .embeddings import EmbeddingSet, load_csv, load_emb1, save_emb1
from .errors import DataError, NumericError
from .evaluation import (
    POOLS,
    REGIMES,
    WEIGHTINGS,
    ScoreRecord,
    TruthTable,
    improvement_summary,
    load_bundled_truth,
    load_scores,
    load_truth,
    rank_cells,
    write_truth,
)
from .synth import (
    SYNTH_DATASET,
    SYNTH_POOL,
    SYNTH_REGIME,
    ZooConfig,
    gen_zoo_model,
    zoo_truth,
)
from .vocabulary import AttractDirection, MetricId, PerturbMode

# the scoring stack (metrics, perturbation, reduction) is imported inside
# score and sweep, so that synth and evaluate do not load it

EXIT_DATA = 3
EXIT_NUMERIC = 4

METRIC_CHOICES = [m.value for m in MetricId]
MODE_CHOICES = [m.value for m in PerturbMode]


# ---------------------------------------------------------------------------
# option plumbing

class _FiniteRange(click.FloatRange):
    """The one value rule of the float flags and of range and grid
    entries: a click.FloatRange that also refuses NaN, which passes every
    bound, and infinity, which passes a lower one."""

    def convert(self, value, param, ctx):
        value = super().convert(value, param, ctx)
        if not math.isfinite(value):
            self.fail(f"{value} is not finite", param, ctx)
        return value


_NONNEG = _FiniteRange(min=0)


class _FloatList(click.ParamType):
    """Floats split on `sep`, each held to `entry`; the name is the metavar."""

    def __init__(self, sep: str, entry: _FiniteRange, pair: bool = False):
        self.sep, self.entry, self.pair = sep, entry, pair
        self.name = f"a{sep}b" if pair else f"a{sep}b{sep}..."

    def convert(self, value, param, ctx):
        parts = value.split(self.sep)
        if self.pair:  # exactly two entries, an empty one included
            bad_shape = len(parts) != 2
        else:  # one or more entries, empty ones skipped
            parts = [part for part in parts if part.strip()]
            bad_shape = not parts
        if bad_shape:
            self.fail(f"expects '{self.name}', got {value!r}", param, ctx)
        return [self.entry.convert(part, param, ctx) for part in parts]


_POSITIVE_PAIR = _FloatList(":", _FiniteRange(0, min_open=True), pair=True)


def _unique(ctx, param, value):
    # a repeated --metric or --mode value would score and time its cells twice
    return tuple(dict.fromkeys(value))


def _one_pca_rule(ctx, param, value):
    # whichever of --pca-energy and --pca-rank is processed second sees both
    other = "pca_rank" if param.name == "pca_energy" else "pca_energy"
    if value is not None and ctx.params.get(other) is not None:
        raise click.UsageError("--pca-energy and --pca-rank are mutually exclusive")
    return value


class _WarnOnce(logging.Handler):
    """Writes each distinct warning of a command once, as one
    `warning: <message>` line on the sys.stderr of the moment (as
    logging.lastResort does), so a runner that swaps it captures it."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self._seen: set[str] = set()

    def emit(self, record: logging.LogRecord) -> None:
        # handle() holds the handler's lock, so pool workers see one set
        message = record.getMessage()
        if message not in self._seen:
            self._seen.add(message)
            click.echo(f"warning: {message}", err=True)


def _handle_errors(fn):
    # numpy's floating-point warnings are silenced: a non-finite result ends
    # in NumericError or DataError, which is reported below as one line.
    # The package's logged warnings go through one _WarnOnce for the
    # length of the command; it is removed afterwards, so commands run one
    # after another in a process do not pile handlers up
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        logger = logging.getLogger(__package__)
        handler = _WarnOnce()
        logger.addHandler(handler)
        try:
            with np.errstate(all="ignore"):
                return fn(*args, **kwargs)
        except DataError as exc:
            click.echo(f"data error: {exc}", err=True)
            sys.exit(EXIT_DATA)
        except OSError as exc:
            click.echo(f"i/o error: {exc}", err=True)
            sys.exit(EXIT_DATA)
        except MemoryError as exc:
            # numpy's allocation failure says how much it asked for
            detail = f": {exc}" if str(exc) else ""
            click.echo(f"data error: out of memory{detail}", err=True)
            sys.exit(EXIT_DATA)
        except (NumericError, np.linalg.LinAlgError) as exc:
            click.echo(f"numeric failure: {exc}", err=True)
            sys.exit(EXIT_NUMERIC)
        finally:
            logger.removeHandler(handler)

    return wrapper


def _common_options(fn):
    # SplitMix64 keeps 64 bits of a seed, so a wider one would alias
    fn = click.option("--seed", type=click.IntRange(0, 2**64 - 1), default=0,
                      show_default=True,
                      help="Base seed in [0, 2^64). synth, score and sweep "
                           "give model i the seed XOR i; evaluate only "
                           "records it.")(fn)
    fn = click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
                      help="Machine format on stdout instead of a table.")(fn)
    return fn


_jobs_option = click.option("--jobs", type=click.IntRange(min=1), default=1,
                            show_default=True,
                            help="Max models loaded and scored at once.")


def _scoring_options(fn):
    fn = click.option("--input", "inputs", multiple=True, required=True,
                      type=click.Path(exists=True, path_type=Path),
                      help="EMB1/CSV embedding file, or a directory of .emb1 files. "
                           "Repeatable.")(fn)
    fn = click.option("--label-col", default="label", show_default=True,
                      help="Label column for CSV embedding inputs.")(fn)
    fn = click.option("--metric", "metrics", multiple=True,
                      type=click.Choice(METRIC_CHOICES), callback=_unique,
                      default=tuple(METRIC_CHOICES), show_default=True)(fn)
    fn = click.option("--alpha", type=_NONNEG, default=0.005, show_default=True,
                      help="Attract step scale.")(fn)
    fn = click.option("--sigma", type=_NONNEG, default=0.6, show_default=True,
                      help="Radius sensitivity.")(fn)
    fn = click.option("--attract-dir",
                      type=click.Choice([d.value for d in AttractDirection]),
                      default="toward", show_default=True)(fn)
    fn = click.option("--pca-energy", type=_FiniteRange(0, 1, min_open=True),
                      callback=_one_pca_rule,
                      help="Retained-variance target (default 0.8).")(fn)
    fn = click.option("--pca-rank", type=click.IntRange(min=1), callback=_one_pca_rule,
                      help="Explicit PCA rank; excludes --pca-energy.")(fn)
    fn = click.option("--nleep-k", type=click.IntRange(min=1),
                      help="GMM components for nleep (default: class count).")(fn)
    fn = click.option("--lda-eps", type=_FiniteRange(0, min_open=True),
                      default=1e-4, show_default=True,
                      help="LDA ridge as a fraction of the mean within-class "
                           "variance.")(fn)
    return _jobs_option(fn)


def _truth_options(fn):
    fn = click.option("--truth",
                      type=click.Path(exists=True, dir_okay=False, path_type=Path),
                      help="Truth CSV (default: bundled accuracy tables).")(fn)
    fn = click.option("--dataset", default=SYNTH_DATASET, show_default=True)(fn)
    fn = click.option("--regime", type=click.Choice(REGIMES), default=SYNTH_REGIME,
                      show_default=True)(fn)
    fn = click.option("--pool", type=click.Choice(POOLS), default=SYNTH_POOL,
                      show_default=True)(fn)
    fn = click.option("--weighting", type=click.Choice(WEIGHTINGS),
                      default="symmetric", show_default=True)(fn)
    return fn


# ---------------------------------------------------------------------------
# shared helpers

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
    """Expand directories to their .emb1 files, in order. Two files with
    the same model id (the file stem) are a data error, raised before any
    file loads."""
    files: list[Path] = []
    for item in inputs:
        if item.is_dir():
            found = sorted(item.glob("*.emb1"))
            if not found:
                raise DataError(f"{item}: no .emb1 files in directory")
            files.extend(found)
        else:
            files.append(item)
    seen: dict[str, Path] = {}
    for path in files:
        if path.stem in seen:
            raise DataError(f"model id {path.stem!r} given twice: "
                            f"{seen[path.stem]} and {path}")
        seen[path.stem] = path
    return files


def _load_set(path: Path, label_col: str) -> EmbeddingSet:
    if path.suffix == ".csv":
        return load_csv(path, label_column=label_col)
    return load_emb1(path)


# the parameters that only say how or where a command runs
_RUN_PARAMS = ("inputs", "out", "jobs", "fmt")


def _manifest(input_files: list[Path], **runtime) -> dict:
    """The running command's manifest. Its `config` holds every parameter
    but _RUN_PARAMS under its own name, paths as text and an absent
    --truth as "bundled"; `runtime` is execution metadata, excluded from
    determinism comparisons."""
    ctx = click.get_current_context()
    config = {}
    for name, value in ctx.params.items():
        if name == "truth" and value is None:
            value = "bundled"
        if name not in _RUN_PARAMS:
            config[name] = str(value) if isinstance(value, Path) else value
    return {
        "version": __version__,
        "command": ctx.command.name,
        "config": config,
        "inputs": {str(p): hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in input_files},
        "runtime": runtime,
    }


def _load_truth_table(truth: Path | None) -> TruthTable:
    # --truth's file, or the bundled tables when it is absent
    return load_truth(truth) if truth else load_bundled_truth()


def _json_text(doc: dict) -> str:
    # strict JSON: a bare NaN or Infinity token is a numeric failure
    try:
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise NumericError(f"output is not finite: {exc}") from None


def _csv_text(rows: list[list]) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


@contextlib.contextmanager
def _all_or_nothing(out: Path):
    """Create directory `out` and yield a fresh staging directory inside
    it for the block to write into. When the block succeeds, check that
    no staged name is a directory in `out`, then move each staged file
    into `out`, replacing any file of the same name. When the block or
    the check raises, remove the staging directory, then `out` and each
    parent this call created while they are empty, and re-raise: a
    failed command leaves `out` as it found it."""
    created = [d for d in (out, *out.parents) if not d.exists()]
    out.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=".partial-", dir=out))
    try:
        yield stage
        staged = list(stage.iterdir())
        for path in staged:  # a file cannot replace a directory: check first
            if (target := out / path.name).is_dir() and not target.is_symlink():
                raise IsADirectoryError(f"{target} is a directory")
        for path in staged:
            path.replace(out / path.name)
    except BaseException:
        shutil.rmtree(stage, ignore_errors=True)
        for directory in created:  # deepest first
            try:
                directory.rmdir()
            except OSError:  # it holds files this run did not write
                break
        raise
    stage.rmdir()


def _write_files(out_dir: Path, files: dict[str, str]) -> None:
    """Write each named text into directory `out_dir` through
    _all_or_nothing, so either every file lands or `out_dir` is left
    as it was found. The one file writer of score, evaluate and sweep."""
    with _all_or_nothing(out_dir) as stage:
        for name, text in files.items():
            (stage / name).write_text(text, newline="")


def _pool_map(count: int, jobs: int, task) -> list:
    """Run `task(index)` for every index in range(count), `jobs` at a
    time, and return the results in index order.

    This is the one pool of the commands. A task keeps only what it
    returns, so at most `jobs` models' data are alive at once. The first
    failing index raises its error, after every started task has ended;
    the tasks that have not started are cancelled.
    """
    def run(index: int):
        # np.errstate is per thread: pool workers do not inherit the
        # command's setting from _handle_errors
        with np.errstate(all="ignore"):
            return task(index)

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        try:
            return list(pool.map(run, range(count)))
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def _map_models(files: list[Path], label_col: str, jobs: int, seed: int, fn):
    """Run `fn(ds, model_seed)` on each input file's set through
    `_pool_map`; return the results in input order and the summed
    per-model load seconds. `model_seed` is `seed` XOR the input's index,
    so the results are independent of the job count. Each task loads its
    own set, so a corrupt input is found when its turn comes; a data or
    numeric error of a model is re-raised with its input path in front."""
    def task(index: int):
        path = files[index]
        try:
            start = time.perf_counter()
            ds = _load_set(path, label_col)
            load_s = time.perf_counter() - start
            return load_s, fn(ds, seed ^ index)
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None
        except (NumericError, np.linalg.LinAlgError) as exc:
            raise NumericError(f"{path}: {exc}") from None

    done = _pool_map(len(files), jobs, task)
    return [result for _, result in done], sum(load_s for load_s, _ in done)


def _emit(fmt: str | None, doc: dict, header: list[str], rows: Sequence[Sequence],
          notes: Sequence[str] = ()) -> None:
    """Print a command's result on stdout. JSON prints the document `doc`;
    CSV and the table print the one row table, `header` over `rows` of
    strings, ints and floats. CSV writes each float in full (its repr);
    the aligned table shows it to 6 significant digits and is followed
    by `notes`."""
    if fmt == "json":
        sys.stdout.write(_json_text(doc))
        return
    if fmt == "csv":
        sys.stdout.write(_csv_text([header, *rows]))
        return
    cells = [header] + [[f"{c:.6g}" if isinstance(c, float) else str(c) for c in row]
                        for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    lines = [[c.ljust(w) for c, w in zip(row, widths)] for row in cells]
    lines.insert(1, ["-" * w for w in widths])
    for line in lines:
        click.echo("  ".join(line))
    for note in notes:
        click.echo(note)


# ---------------------------------------------------------------------------
# commands

@click.group()
@click.version_option(version=__version__)
def main():
    """Score and rank pre-trained models from their feature embeddings."""


@main.command()
@click.option("--models", type=click.IntRange(min=2), default=8, show_default=True)
@click.option("--classes", type=click.IntRange(min=2), default=4, show_default=True)
@click.option("--per-class", type=click.IntRange(min=2), default=100, show_default=True)
@click.option("--dim", type=click.IntRange(min=2), default=16, show_default=True)
@click.option("--rho-range", type=_POSITIVE_PAIR, default="0.25:1.0", show_default=True,
              help="Centroid scale a:b, linearly spaced across models.")
@click.option("--noise-range", type=_POSITIVE_PAIR, default="1:1", show_default=True,
              help="Intra-class std a:b, linearly spaced across models.")
@click.option("--out", type=click.Path(file_okay=False, path_type=Path), required=True)
@_jobs_option
@_common_options
@_handle_errors
def synth(models, classes, per_class, dim, rho_range, noise_range, out, seed,
          jobs, fmt):
    """Generate a synthetic model zoo: EMB1 files plus an oracle truth CSV."""
    cfg = ZooConfig(
        models=models,
        classes=classes,
        per_class=per_class,
        dim=dim,
        rhos=tuple(np.linspace(*rho_range, models).tolist()),
        noises=tuple(np.linspace(*noise_range, models).tolist()),
        seed=seed,
    )
    t0 = time.perf_counter()
    with _all_or_nothing(out) as stage:
        def task(m: int) -> tuple[str, float]:
            # the set is freed when the task returns: only its accuracy stays
            ds, acc = gen_zoo_model(cfg, m)
            # a bad accuracy stops the zoo here, not after every model
            zoo_truth([(ds.model_id, acc)])
            save_emb1(ds, stage / f"{ds.model_id}.emb1")
            return ds.model_id, acc

        accuracies = _pool_map(models, jobs, task)
        write_truth(zoo_truth(accuracies), stage / "truth.csv")
        manifest = _manifest(
            [], jobs=jobs, timings={"total_s": time.perf_counter() - t0})
        (stage / "manifest.json").write_text(_json_text(manifest))
    header = ["model", "rho", "noise", "oracle_accuracy"]
    rows = [[model_id, cfg.rhos[i], cfg.noises[i], acc]
            for i, (model_id, acc) in enumerate(accuracies)]
    _emit(
        fmt,
        {"manifest": manifest, "models": [dict(zip(header, row)) for row in rows]},
        header, rows,
        notes=(f"wrote {len(rows)} embedding sets + truth.csv to {out}",),
    )


@main.command()
@_scoring_options
@click.option("--mode", "modes", multiple=True, type=click.Choice(MODE_CHOICES),
              callback=_unique, default=("sa",), show_default=True,
              help="Feature preparation. Repeatable. raw: the metric on the "
                   "input features, with no PCA and no perturbation; none: "
                   "PCA only; spread, attract, sa: PCA, then perturbation.")
@click.option("--out", type=click.Path(dir_okay=False, path_type=Path),
              help="Write the score JSON here.")
@_common_options
@_handle_errors
def score(inputs, label_col, metrics, modes, alpha, sigma, attract_dir,
          pca_energy, pca_rank, nleep_k, lda_eps, out, seed, jobs, fmt):
    """Score models: one record per (model, metric, mode)."""
    from .metrics import score_model
    from .perturbation import PerturbConfig

    files = _resolve_inputs(inputs)
    t0 = time.perf_counter()
    configs = [PerturbConfig(alpha=alpha, sigma=sigma, mode=mode,
                             attract_direction=attract_dir) for mode in modes]
    groups, load_s = _map_models(
        files, label_col, jobs, seed,
        lambda ds, model_seed: score_model(
            ds, metrics, configs, energy=pca_energy, rank=pca_rank,
            seed=model_seed, nleep_components=nleep_k, eps_scale=lda_eps))
    records = [rec for group in groups for rec in group]
    manifest = _manifest(files, jobs=jobs, timings={
        "load_s": load_s, "total_s": time.perf_counter() - t0})
    payload = {"manifest": manifest, "records": [r.to_dict() for r in records]}
    if out is not None:
        _write_files(out.parent, {out.name: _json_text(payload)})
    _emit(
        fmt,
        payload,
        ["model", "metric", "mode", "score", "wall_time_s"],
        [[r.model_id, r.metric, r.mode, r.score, r.wall_time_s] for r in records],
    )


@main.command()
@click.option("--scores", required=True,
              type=click.Path(exists=True, dir_okay=False, path_type=Path),
              help="Score JSON produced by `terank score`.")
@_truth_options
@click.option("--out", type=click.Path(file_okay=False, path_type=Path),
              help="Directory for report JSON/CSV files.")
@_common_options
@_handle_errors
def evaluate(scores, truth, dataset, regime, pool, weighting, out, seed, fmt):
    """Rank scored models against ground truth: one report per (metric,
    mode) cell and, per perturbed mode, an improvement summary that pairs
    each metric's cell with its mode-none cell (no row without one)."""
    t0 = time.perf_counter()
    score_payload, records = load_scores(scores)
    reports = rank_cells(records, _load_truth_table(truth), dataset, regime, pool,
                         weighting)
    summaries = improvement_summary(reports)
    manifest = _manifest([truth] if truth else [],
                         timings={"total_s": time.perf_counter() - t0})
    # hash the score file's content net of timings, so re-scoring the same
    # inputs leads to the same evaluate manifest
    manifest["inputs"][str(scores)] = _semantic_digest(score_payload)
    manifest["score_manifest"] = score_payload["manifest"]

    # file name -> text, written under --out
    out_files = {}
    for rep in reports:
        cell = f"{rep.metric}_{rep.perturb_mode}"
        out_files[f"report_{cell}.json"] = _json_text(
            {**rep.to_dict(), "manifest": manifest})
        out_files[f"plot_{cell}.csv"] = _csv_text(
            [["score", "accuracy", "model"], *rep.plot_rows()])
    for mode, rows in summaries.items():
        out_files[f"improvement_{mode}.json"] = _json_text(
            {"manifest": manifest, "mode": mode, "rows": [r.to_dict() for r in rows]})
    if out is not None:
        _write_files(out, out_files)

    notes = []
    for mode, rows in summaries.items():
        for row in rows:
            pct = ("n/a" if row.improvement_pct is None
                   else f"{row.improvement_pct:+.2f}%")
            notes.append(
                f"improvement[{row.metric}, {mode} vs none]: "
                f"{row.mean_tau_before:+.4f} -> {row.mean_tau_after:+.4f} ({pct})"
            )
    _emit(
        fmt,
        {
            "manifest": manifest,
            "reports": {f"{r.metric}/{r.perturb_mode}": r.to_dict() for r in reports},
            "improvement": {
                mode: [r.to_dict() for r in rows]
                for mode, rows in summaries.items()
            },
        },
        ["metric", "mode", "tau_w"],
        [[r.metric, r.perturb_mode, r.tau_w] for r in reports],
        notes,
    )
    if out is not None and out_files:
        click.echo(f"wrote {len(out_files)} files to {out}", err=True)


@main.command()
@_scoring_options
@_truth_options
@click.option("--alpha-grid", type=_FloatList(",", _NONNEG),
              default="0.001,0.005,0.01,0.05", show_default=True)
@click.option("--sigma-grid", type=_FloatList(",", _NONNEG),
              default="0.5,0.6,0.7,0.8,0.9", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False, path_type=Path),
              help="Write the sweep CSV here.")
@_common_options
@_handle_errors
def sweep(inputs, label_col, metrics, alpha, sigma, attract_dir, pca_energy,
          pca_rank, nleep_k, lda_eps, truth, dataset, regime, pool, weighting,
          alpha_grid, sigma_grid, out, seed, jobs, fmt):
    """Hyper-parameter sensitivity: vary alpha with sigma fixed, then sigma
    with alpha fixed, reporting tau_w per cell."""
    from .metrics import score_model
    from .perturbation import PerturbConfig

    files = _resolve_inputs(inputs)
    if len(files) == 1:  # refused here, not after scoring every cell
        raise DataError(f"--input {inputs[0]} holds 1 model; ranking needs at least two")
    truth_table = _load_truth_table(truth)

    t0 = time.perf_counter()
    cells = [(a, sigma) for a in alpha_grid] + [(alpha, s) for s in sigma_grid]
    configs = [PerturbConfig(alpha=a, sigma=s_val, attract_direction=attract_dir)
               for a, s_val in cells]

    def run(ds: EmbeddingSet, model_seed: int) -> list[ScoreRecord]:
        # a model without a truth row under the slice fails once it loads,
        # before it is scored; a corrupt input still fails on its load
        truth_table.accuracy(ds.model_id, dataset, regime, pool)
        return score_model(ds, metrics, configs, energy=pca_energy, rank=pca_rank,
                           seed=model_seed, nleep_components=nleep_k,
                           eps_scale=lda_eps)

    groups, _ = _map_models(files, label_col, jobs, seed, run)
    rows = []
    for cell, (cell_alpha, cell_sigma) in enumerate(cells):
        # each model's records come in (cell, metric) order
        records = [rec for group in groups
                   for rec in group[cell * len(metrics):(cell + 1) * len(metrics)]]
        taus = {rep.metric: rep.tau_w for rep in rank_cells(
            records, truth_table, dataset, regime, pool, weighting)}
        rows += [(cell_alpha, cell_sigma, metric, taus[metric]) for metric in metrics]

    header = ["alpha", "sigma", "metric", "tau_w"]
    if out is not None:
        manifest = _manifest(files + ([truth] if truth else []), jobs=jobs,
                             timings={"total_s": time.perf_counter() - t0})
        _write_files(out.parent, {out.name: _csv_text([header, *rows]),
                                  f"{out.name}.manifest.json": _json_text(manifest)})
    _emit(fmt, {"rows": [dict(zip(header, row)) for row in rows]}, header, rows)


if __name__ == "__main__":
    main()
