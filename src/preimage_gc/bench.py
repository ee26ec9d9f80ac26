"""ROC-AUC scoring and the generators x methods x T x seeds sweep harness."""

from __future__ import annotations

import json
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

from .causality import PipelineConfig, infer_graph
from .data import TimeSeriesPanel, _csv_text, _is_integer
from .errors import PreimageGCError
from .synthgen import GENERATOR_IDS, MIN_T, generate

# The environment bench workers start in. numpy's and scipy's OpenBLAS
# each size their thread pool once, when loaded, to the core count, so
# jobs workers would each run that many BLAS threads.
_WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def roc_auc(scores, labels) -> float:
    """The share of (positive, negative) pairs whose positive scores higher,
    a tie counting one half: the Mann-Whitney U over n_pos * n_neg
    (Hanley and McNeil, Radiology 143, 1982).

    Each positive's negatives below it and tied with it come from two
    binary searches of the sorted negatives. The count is a multiple of
    1/2 and exact in float64, so a tie, -0.0 against 0.0 included, is
    exactly half a pair. Non-finite scores are refused.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.ndim != 1 or labels.ndim != 1:
        raise ValueError("scores and labels must be 1-d")
    if scores.shape != labels.shape:
        raise ValueError(
            f"length mismatch: {scores.shape[0]} scores, {labels.shape[0]} labels"
        )
    if not ((labels == 0) | (labels == 1)).all():
        raise ValueError("labels must be 0/1")
    if not np.all(np.isfinite(scores)):
        raise ValueError("scores must be finite")
    positive = labels == 1
    n_pos = int(positive.sum())
    n_neg = labels.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError(
            f"need both classes, got {n_pos} positives and {n_neg} negatives"
        )
    negatives = np.sort(scores[~positive])
    positives = scores[positive]
    below = np.searchsorted(negatives, positives, side="left").sum()
    ties = np.searchsorted(negatives, positives, side="right").sum() - below
    return float((below + 0.5 * ties) / (n_pos * n_neg))


def off_diagonal(matrix) -> np.ndarray:
    """The N(N-1) off-diagonal entries in row-major order."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
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
    """A sweep's CellRecords in grid order; summaries is worked out from them."""

    records: tuple
    summaries: tuple = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "summaries", tuple(summarize(self.records)))

    def to_records_csv(self) -> str:
        header = ("generator_id", "method_id", "T", "seed", "auc", "error")
        return _csv_text([header] + [
            (r.generator_id, r.method_id, r.T, r.seed,
             "" if r.auc is None else repr(r.auc), "" if r.error is None else r.error)
            for r in self.records
        ])

    def to_summaries_json(self) -> str:
        return json.dumps([asdict(s) for s in self.summaries], indent=2) + "\n"


def _run_trajectory(task, progress=None):
    """Simulate one (generator, seed) once and score every method on every T.

    The trajectory is generated once, at the largest T, and every T's
    panel is its first T rows, which generating at that T gives bit for
    bit (see synthgen). If that one generation fails, every (T, method)
    cell records its error. Returns one CellRecord per (T, method), T in
    the task's T order and methods in method order, and passes each to
    ``progress`` (if given) as soon as it is complete.
    """
    generator_id, seed, T_grid, methods = task
    generation_error = None
    try:
        dataset = generate(generator_id, max(T_grid), seed)
    except PreimageGCError as err:
        generation_error = err
    records = []
    for T in T_grid:
        if generation_error is None:
            panel = TimeSeriesPanel(dataset.panel.values[:T], dataset.panel.node_names)
        for method_id, config in methods:
            auc, error = None, generation_error
            if error is None:
                try:
                    graph = infer_graph(panel, config)
                    auc = roc_auc(
                        off_diagonal(graph.delta), off_diagonal(dataset.ground_truth)
                    )
                except PreimageGCError as err:
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


def _whole(what, value) -> int:
    """value as an int if its type is an integer type other than bool, else ValueError."""
    if not _is_integer(value):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _checked_grid(generators, methods, T_grid, seeds, jobs):
    """run_benchmark's arguments as lists and int seed and job counts;
    ValueError for anything it cannot sweep, a repeated grid value
    included, since its records would be pooled into one summary."""
    generators = list(generators)
    if not generators:
        raise ValueError("no generators given")
    for g in generators:
        if g not in GENERATOR_IDS:
            raise ValueError(f"unknown generator {g!r}; choose from {GENERATOR_IDS}")
    methods = list(methods)
    if not methods:
        raise ValueError("no methods given")
    for method_id, config in methods:
        if not isinstance(config, PipelineConfig):
            raise ValueError(f"method {method_id!r} has no PipelineConfig")
    T_grid = [_whole("T", T) for T in T_grid]
    if not T_grid:
        raise ValueError("empty T grid")
    for T in T_grid:
        if T < MIN_T:
            raise ValueError(f"T values must be >= {MIN_T}, got {T}")
    seeds = _whole("seed count", seeds)
    if seeds < 1:
        raise ValueError("no seeds given")
    jobs = _whole("jobs", jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    method_ids = [method_id for method_id, _ in methods]
    for label, values in (("generator", generators), ("method", method_ids), ("T", T_grid)):
        repeated = sorted({v for v in values if values.count(v) > 1})
        if repeated:
            raise ValueError(f"repeated {label} value(s) in the grid: {', '.join(map(str, repeated))}")
    return generators, methods, T_grid, seeds, jobs


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
    count, and the seeds are 0..seeds-1. A repeated generator, method id
    or T is a ValueError. Each (generator, seed) trajectory is
    generated once, at the largest T, and every T's panel is its prefix;
    every method runs on each panel. A trajectory whose generation fails
    records that one error in each of its (T, method) cells. Trajectories
    are independent, so jobs > 1 runs them in worker processes with one
    BLAS thread each; records always come back in grid order (generator,
    method, T, seed), so the report is identical regardless of jobs.
    ``progress`` (if given) is called with each CellRecord in (generator,
    seed, T, method) order: at jobs = 1 as each record completes, at
    jobs > 1 a trajectory's records together once it and every earlier
    trajectory are done, not in completion order.
    """
    generators, methods, T_grid, seeds, jobs = _checked_grid(generators, methods, T_grid, seeds, jobs)

    # one task per trajectory, so each (generator, seed) is simulated once
    tasks = [(g, s, T_grid, methods) for g in generators for s in range(seeds)]
    if jobs == 1:
        trajectories = [_run_trajectory(task, progress) for task in tasks]
    else:
        trajectories = []
        # map preserves task order, keeping assembly deterministic
        for trajectory in _map_in_workers(_run_trajectory, tasks, jobs):
            trajectories.append(trajectory)
            if progress is not None:
                for record in trajectory:
                    progress(record)

    # tasks run generator -> seed, each T -> method; records go out
    # generator -> method -> T -> seed
    n_methods = len(methods)
    records = [
        trajectories[g * seeds + s][t * n_methods + m]
        for g in range(len(generators))
        for m in range(n_methods)
        for t in range(len(T_grid))
        for s in range(seeds)
    ]

    return BenchmarkReport(tuple(records))


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
