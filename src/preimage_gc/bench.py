"""ROC-AUC scoring and the generators x methods x T x seeds sweep harness."""

from __future__ import annotations

import csv
import io
import json
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

from .causality import PipelineConfig, infer_graph
from .errors import ConfigError, PreimageGCError, ShapeError, UndefinedAucError
from .synthgen import GENERATOR_IDS, generate

# The environment bench workers start in. numpy's and scipy's OpenBLAS
# each size their thread pool once, when loaded, to the core count, so
# jobs workers would each run that many BLAS threads.
_WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def _average_ranks(x):
    """1-based ranks of x, each tie group sharing the mean of its positions.

    The "average" method of scipy.stats.rankdata, without importing
    scipy.stats. Every rank is an integer or a half-integer, so both
    agree exactly. x must hold no NaN.
    """
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    # each tie group is a run of equal values in sorted order: [start, end)
    bounds = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1], True])
    # the mean of the 1-based positions start + 1 .. end
    group_ranks = (bounds[:-1] + bounds[1:] + 1) / 2.0
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(group_ranks, np.diff(bounds))
    return ranks


def roc_auc(scores, labels) -> float:
    """Probability a random positive outranks a random negative, ties 1/2.

    Computed from rank sums (the Mann-Whitney statistic with average
    ranks), so it is exact under ties. Non-finite scores are refused.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.ndim != 1 or labels.ndim != 1:
        raise ShapeError("scores and labels must be 1-d")
    if scores.shape != labels.shape:
        raise ShapeError(
            f"length mismatch: {scores.shape[0]} scores, {labels.shape[0]} labels"
        )
    if not np.all(np.isin(labels, (0, 1))):
        raise ValueError("labels must be 0/1")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    positive = labels == 1
    n_pos = int(positive.sum())
    n_neg = labels.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedAucError(
            f"need both classes, got {n_pos} positives and {n_neg} negatives"
        )
    ranks = _average_ranks(scores)
    auc = (ranks[positive].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    return float(auc)


def off_diagonal(matrix) -> np.ndarray:
    """The N(N-1) off-diagonal entries in row-major order."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {matrix.shape}")
    mask = ~np.eye(matrix.shape[0], dtype=bool)
    return matrix[mask]


@dataclass(frozen=True)
class CellRecord:
    """One (generator, method, T, seed) outcome; failed cells carry the reason."""

    generator_id: str
    method_id: str
    T: int
    seed: int
    auc: float | None
    error: str | None = None

    def __post_init__(self):
        if self.auc is not None and not 0.0 <= self.auc <= 1.0:
            raise ValueError(f"auc must lie in [0, 1], got {self.auc}")


@dataclass(frozen=True)
class CellSummary:
    """Seed-aggregated statistics for one (generator, method, T) cell.

    Cells with fewer than 2 successful records keep ``note`` set and any
    uncomputable statistics as None.
    """

    generator_id: str
    method_id: str
    T: int
    n: int
    mean: float | None
    median: float | None
    q25: float | None
    q75: float | None
    ci95_half_width: float | None
    note: str | None = None


@dataclass(frozen=True)
class BenchmarkReport:
    records: tuple
    summaries: tuple

    def to_records_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["generator_id", "method_id", "T", "seed", "auc", "error"])
        for r in self.records:
            writer.writerow(
                [
                    r.generator_id,
                    r.method_id,
                    r.T,
                    r.seed,
                    "" if r.auc is None else repr(r.auc),
                    "" if r.error is None else r.error,
                ]
            )
        return buf.getvalue()

    def to_summaries_json(self) -> str:
        return json.dumps([asdict(s) for s in self.summaries], indent=2) + "\n"


def _run_panel(task, progress=None):
    """Generate one (generator, T, seed) panel and score every method on it.

    Returns one CellRecord per method, in method order, and passes each to
    ``progress`` (if given) as soon as it is complete.
    """
    generator_id, T, seed, methods = task
    generation_error = None
    try:
        dataset = generate(generator_id, T, seed)
    except (PreimageGCError, np.linalg.LinAlgError) as err:
        generation_error = err
    records = []
    for method_id, config in methods:
        auc, error = None, generation_error
        if error is None:
            try:
                graph = infer_graph(dataset.panel, config)
                auc = roc_auc(
                    off_diagonal(graph.delta), off_diagonal(dataset.ground_truth)
                )
            except (PreimageGCError, np.linalg.LinAlgError) as err:
                error = err
        # numerical failures are data: record and keep sweeping; bugs raise
        record = CellRecord(
            generator_id,
            method_id,
            T,
            seed,
            auc=auc,
            error=None if error is None else f"{type(error).__name__}: {error}",
        )
        records.append(record)
        if progress is not None:
            progress(record)
    return records


@contextmanager
def _environ(overrides):
    """Set environment variables for the duration of the block."""
    saved = {name: os.environ.get(name) for name in overrides}
    os.environ.update(overrides)
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                del os.environ[name]
            else:
                os.environ[name] = value


def _map_in_workers(fn, tasks, jobs):
    """fn over tasks in jobs spawned worker processes, results in task order.

    Spawned, not forked, workers load numpy and scipy afresh, in
    _WORKER_ENV; this process keeps its own BLAS threads and environment.
    """
    spawn = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=jobs, mp_context=spawn) as pool:
        # the pool starts its spawned workers as tasks are submitted,
        # and map submits every task before it returns
        with _environ(_WORKER_ENV):
            results = pool.map(fn, tasks)
        yield from results


def _checked_grid(generators, methods, T_grid, seeds, jobs):
    """run_benchmark's arguments as lists (seeds as a seed list) and an int
    job count; ConfigError for anything it cannot sweep, a repeated value
    included, since its records would be pooled into one summary."""
    generators = list(generators)
    if not generators:
        raise ConfigError("no generators given")
    for g in generators:
        if g not in GENERATOR_IDS:
            raise ConfigError(f"unknown generator {g!r}; choose from {GENERATOR_IDS}")
    methods = list(methods)
    if not methods:
        raise ConfigError("no methods given")
    for method_id, config in methods:
        if not isinstance(config, PipelineConfig):
            raise ConfigError(f"method {method_id!r} has no PipelineConfig")
    T_grid = [int(T) for T in T_grid]
    if not T_grid:
        raise ConfigError("empty T grid")
    for T in T_grid:
        if T < 50:
            raise ConfigError(f"T values must be >= 50, got {T}")
    if isinstance(seeds, (int, np.integer)):
        seed_list = list(range(int(seeds)))
    else:
        seed_list = [int(s) for s in seeds]
    if not seed_list:
        raise ConfigError("no seeds given")
    jobs = int(jobs)
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    method_ids = [method_id for method_id, _ in methods]
    for label, values in (("generator", generators), ("method", method_ids), ("T", T_grid), ("seed", seed_list)):
        repeated = sorted({v for v in values if values.count(v) > 1})
        if repeated:
            raise ConfigError(f"repeated {label} value(s) in the grid: {', '.join(map(str, repeated))}")
    return generators, methods, T_grid, seed_list, jobs


def run_benchmark(
    generators,
    methods,
    T_grid,
    seeds,
    jobs: int = 1,
    progress=None,
) -> BenchmarkReport:
    """Score every (generator, method, T, seed) cell and summarize.

    methods is a list of (method_id, PipelineConfig) pairs; seeds is a
    count (0..seeds-1) or an explicit list. A repeated generator, method
    id, T or seed is a ConfigError. Each (generator, T, seed) panel is
    generated once and every method runs on it. Panels are independent,
    so jobs > 1 runs them in worker processes with one BLAS thread each;
    records always come back in grid order (generator, method, T, seed),
    so the report is identical regardless of jobs. ``progress`` (if
    given) is called with each CellRecord, panels in (generator, T, seed)
    order and a panel's records in method order: at jobs = 1 as each
    record completes, at jobs > 1 a panel's records together once it and
    every earlier panel are done, not in completion order.
    """
    generators, methods, T_grid, seed_list, jobs = _checked_grid(generators, methods, T_grid, seeds, jobs)

    # one task per panel, so each panel is generated once for all methods
    tasks = [(g, T, s, methods) for g in generators for T in T_grid for s in seed_list]
    if jobs == 1:
        panels = [_run_panel(task, progress) for task in tasks]
    else:
        panels = []
        # map preserves task order, keeping assembly deterministic
        for panel in _map_in_workers(_run_panel, tasks, jobs):
            panels.append(panel)
            if progress is not None:
                for record in panel:
                    progress(record)

    # tasks run generator -> T -> seed; records go out generator -> method -> T -> seed
    per_generator = len(T_grid) * len(seed_list)
    records = [
        panel[m]
        for start in range(0, len(panels), per_generator)
        for m in range(len(methods))
        for panel in panels[start:start + per_generator]
    ]

    return BenchmarkReport(
        records=tuple(records), summaries=tuple(summarize(records))
    )


def summarize(records):
    """Aggregate records into per-(generator, method, T) summaries.

    Quartiles use linear interpolation between order statistics; the CI
    half-width is 1.96 * sd / sqrt(n) with the n-1 divisor.
    """
    groups = {}
    for r in records:
        groups.setdefault((r.generator_id, r.method_id, r.T), []).append(r)
    summaries = []
    for (generator_id, method_id, T), cell in groups.items():
        values = np.array([r.auc for r in cell if r.auc is not None])
        n = int(values.size)
        if n == 0:
            summaries.append(
                CellSummary(
                    generator_id, method_id, T, n=0,
                    mean=None, median=None, q25=None, q75=None,
                    ci95_half_width=None, note="no successful records",
                )
            )
            continue
        q25, median, q75 = np.percentile(values, [25, 50, 75])
        if n == 1:
            ci = None
            note = "single record; dispersion undefined"
        else:
            ci = float(1.96 * values.std(ddof=1) / math.sqrt(n))
            note = None
        summaries.append(
            CellSummary(
                generator_id,
                method_id,
                T,
                n=n,
                mean=float(values.mean()),
                median=float(median),
                q25=float(q25),
                q75=float(q75),
                ci95_half_width=ci,
                note=note,
            )
        )
    return summaries
