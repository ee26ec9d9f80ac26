"""The benchmark's workloads and the checks on their outputs.

Every workload is a closed loop: one client in this process calls
``preimage_gc.cli.main`` and issues the next call when the previous one
returns. The program sees only what a user would hand it: panel CSVs and
INI configs written during set-up. Why each workload exists, and what it
predicts, is in README.md beside this file.

The workload seed fixes the order of the inputs, not the inputs
themselves: the input pools are fixed so that the committed references
in refs.json cover every op a run can make.
"""

from __future__ import annotations

import csv
import io
import json
import random
import re
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from preimage_gc import cli
from preimage_gc.bench import off_diagonal, roc_auc
from preimage_gc.causality import linear_gc_baseline
from preimage_gc.data import ingest_csv, panel_to_csv
from preimage_gc.synthgen import generate

# The grid of configs/full_sweep.ini at a seed count sized so one sweep
# takes a few seconds on 2 cores; the benchmark owns its copy so that a
# change to the shipped config cannot change the benchmark's inputs.
SWEEP_GENERATORS = ("logistic2", "fanout3", "fanin3", "linear5", "nonlinear5")
SWEEP_T_GRID = (50, 100, 200, 500)
SWEEP_SEEDS = 2
SWEEP_METHODS = {
    "kernel": "kernel = rbf\nbandwidth = median\np_select = 0.95\nlag = 1\n",
    "linear-gc": "kernel = linear-identity\nlag = 1\nridge_var = 0\nridge_preimage = 0\n",
}
LINEAR_ORACLE = "[pipeline]\n" + SWEEP_METHODS["linear-gc"]

# A kernel delta may differ from its reference by this much, absolutely.
# On the infer-kernel pool, one component more or fewer, or a bandwidth
# 1% off, moved entries by 1.5e-2 or more; an exact top-k eigensolver
# moved them by 1.5e-15 (README.md).
KERNEL_DELTA_TOL = 1e-9
# A mean ROC-AUC may differ from its reference by this much. One rank
# change in one cell moves a mean by at least 3e-4, so this asks for the
# same ranking everywhere.
AUC_TOL = 1e-9

_PROGRESS = re.compile(r"^\[\d+/\d+\] .* (auc=\S+|failed: .*)$")


class _Null(io.TextIOBase):
    def write(self, text):
        return len(text)


class _ProgressClock(io.TextIOBase):
    """A stderr stand-in that timestamps each completed progress line."""

    def __init__(self, on_line):
        self._buf = ""
        self._on_line = on_line

    def write(self, text):
        self._buf += text
        while "\n" in self._buf:
            line, self._buf = self._buf.split("\n", 1)
            match = _PROGRESS.match(line)
            if match:
                self._on_line(time.perf_counter(), match.group(1).startswith("failed"))
        return len(text)


def _main(argv, stderr=None):
    """One call into the CLI with its console output discarded."""
    with redirect_stdout(_Null()), redirect_stderr(stderr or _Null()):
        return cli.main(argv)


class Sweep:
    """``preimage-gc bench`` over the sweep grid; one op is one cell."""

    def __init__(self, name, jobs):
        self.name = name
        self.refs_key = "sweep"
        self.jobs = jobs
        self.rounds = []
        self.tracer = None

    def prepare(self, work: Path, seed: int):
        work.mkdir(parents=True, exist_ok=True)
        rng = random.Random(seed)
        gens = rng.sample(SWEEP_GENERATORS, len(SWEEP_GENERATORS))
        grid = rng.sample(SWEEP_T_GRID, len(SWEEP_T_GRID))
        methods = rng.sample(sorted(SWEEP_METHODS), len(SWEEP_METHODS))
        self.config = work / "sweep.ini"
        self.config.write_text(_bench_ini(gens, grid, SWEEP_SEEDS, methods), encoding="utf-8")
        warmup = work / "warmup.ini"
        warmup.write_text(_bench_ini(["logistic2"], [50], 1, methods), encoding="utf-8")
        if _main(["bench", "--config", str(warmup), "--out", str(work / "warmup"),
                  "--jobs", str(self.jobs)]) != 0:
            raise RuntimeError("warm-up sweep failed")
        self.work = work

    def round(self):
        """Run one whole sweep; return (latency_s, failed) per cell."""
        out = self.work / f"round-{len(self.rounds)}"
        stamps = []

        def on_line(t, failed):
            stamps.append((t, failed))
            if self.tracer is not None:
                self.tracer.op += 1

        start = time.perf_counter()
        code = _main(["bench", "--config", str(self.config), "--out", str(out),
                      "--jobs", str(self.jobs)], stderr=_ProgressClock(on_line))
        self.rounds.append((out, code))
        ops = []
        prev = start
        for t, failed in stamps:
            ops.append((t - prev, failed or code != 0))
            prev = t
        if code != 0 and not ops:
            ops.append((time.perf_counter() - start, True))
        return ops

    def covered(self):
        return bool(self.rounds)

    def outputs(self):
        """Per-method AUC means of each round, and the failed cells."""
        means, failures = [], []
        for out, code in self.rounds:
            if code != 0:
                failures.append(f"{out.name}: bench exited with {code}")
                continue
            with open(out / "records.csv", encoding="utf-8") as fh:
                records = list(csv.DictReader(fh))
            by_method = {}
            for r in records:
                if r["error"]:
                    failures.append(f"{out.name}: {r['generator_id']} {r['method_id']} "
                                    f"T={r['T']} seed={r['seed']}: {r['error']}")
                else:
                    by_method.setdefault(r["method_id"], []).append(float(r["auc"]))
            means.append({m: float(np.mean(v)) for m, v in sorted(by_method.items())})
        return means, failures

    def reference(self):
        means, failures = self.outputs()
        if failures or not means:
            raise RuntimeError(f"{self.name}: cannot make references: {failures}")
        return {"auc_mean": means[0]}

    def check(self, refs):
        """Failed checks by name, and the mean AUC over the grid's cells."""
        means, failures = self.outputs()
        problems = [f"no-failed-ops: {f}" for f in failures]
        expected = refs["auc_mean"]
        for i, got in enumerate(means):
            for method, want in expected.items():
                if method not in got or abs(got[method] - want) > AUC_TOL:
                    problems.append(f"auc-reference: round {i} method {method} "
                                    f"mean AUC {got.get(method)} != {want} (tol {AUC_TOL})")
        auc = float(np.mean(list(means[0].values()))) if means else 0.0
        return problems, auc


def _bench_ini(generators, t_grid, seeds, methods):
    text = (f"[bench]\ngenerators = {', '.join(generators)}\n"
            f"T_grid = {', '.join(str(t) for t in t_grid)}\nseeds = {seeds}\n")
    for m in methods:
        text += f"\n[method {m}]\n{SWEEP_METHODS[m]}"
    return text


class Infer:
    """``preimage-gc infer`` on a fixed pool of panels, visited in an
    order drawn from the workload seed; one op is one call."""

    def __init__(self, name, pool, T, config_text, oracle):
        self.name = name
        self.refs_key = name
        self.pool = pool
        self.T = T
        self.config_text = config_text
        self.oracle = oracle
        self.ops = []
        self.tracer = None

    def prepare(self, work: Path, seed: int):
        self.order = random.Random(seed).sample(range(len(self.pool)), len(self.pool))
        inputs = work / "inputs"
        inputs.mkdir(parents=True, exist_ok=True)
        self.csvs, self.truth = [], []
        for gen, panel_seed in self.pool:
            dataset = generate(gen, self.T, panel_seed)
            path = inputs / f"{gen}-T{self.T}-s{panel_seed}.csv"
            path.write_text(panel_to_csv(dataset.panel), encoding="utf-8")
            self.csvs.append(path)
            self.truth.append(dataset.ground_truth)
        self.args = []
        if self.config_text is not None:
            config = work / "pipeline.ini"
            config.write_text(self.config_text, encoding="utf-8")
            self.args = ["--config", str(config)]
        self.work = work
        # A short panel of the same generator warms the same code paths.
        warmup = inputs / "warmup.csv"
        warmup.write_text(panel_to_csv(generate(self.pool[0][0], 100, 0).panel), encoding="utf-8")
        if _main(["infer", str(warmup), *self.args, "--out", str(work / "warmup")]) != 0:
            raise RuntimeError("warm-up infer failed")

    def round(self):
        i = len(self.ops)
        k = self.order[i % len(self.order)]
        out = self.work / "ops" / str(i)
        if self.tracer is not None:
            self.tracer.op += 1
        start = time.perf_counter()
        code = _main(["infer", str(self.csvs[k]), *self.args, "--out", str(out)])
        latency = time.perf_counter() - start
        self.ops.append((k, out, code))
        return [(latency, code != 0)]

    def covered(self):
        return len(self.ops) >= len(self.pool)

    def key(self, k):
        gen, panel_seed = self.pool[k]
        return f"{gen}/T{self.T}/s{panel_seed}"

    def outputs(self):
        """Delta of each successful op, and the failed ops."""
        deltas, failures = [], []
        for i, (k, out, code) in enumerate(self.ops):
            if code != 0:
                failures.append(f"op {i} ({self.key(k)}) exited with {code}")
                continue
            graph = json.loads((out / "graph.json").read_text(encoding="utf-8"))
            deltas.append((k, np.array(graph["delta"])))
        return deltas, failures

    def reference(self):
        deltas, failures = self.outputs()
        if failures:
            raise RuntimeError(f"{self.name}: cannot make references: {failures}")
        return {"deltas": {self.key(k): d.tolist() for k, d in deltas}}

    def check(self, refs):
        """Failed checks by name, and the mean AUC over the distinct
        panels the run scored."""
        deltas, failures = self.outputs()
        problems = [f"no-failed-ops: {f}" for f in failures]
        baselines = {}
        aucs, ref_aucs = {}, {}
        for k, delta in deltas:
            key = self.key(k)
            want = np.array(refs["deltas"][key])
            if self.oracle:
                if k not in baselines:
                    baselines[k] = linear_gc_baseline(ingest_csv(self.csvs[k])).delta
                if not np.array_equal(delta, baselines[k]):
                    problems.append(f"linear-equals-baseline: {key} differs from "
                                    "linear_gc_baseline on the same panel")
                if not np.array_equal(delta, want):
                    problems.append(f"linear-reference: {key} differs from the reference")
            else:
                err = float(np.max(np.abs(delta - want)))
                if err > KERNEL_DELTA_TOL:
                    problems.append(f"kernel-reference: {key} max |delta - ref| = "
                                    f"{err:.3g} > {KERNEL_DELTA_TOL:g}")
            truth = off_diagonal(self.truth[k])
            aucs[k] = roc_auc(off_diagonal(delta), truth)
            ref_aucs[k] = roc_auc(off_diagonal(want), truth)
        auc = float(np.mean(list(aucs.values()))) if aucs else 0.0
        ref_auc = float(np.mean(list(ref_aucs.values()))) if ref_aucs else 0.0
        if abs(auc - ref_auc) > AUC_TOL:
            problems.append(f"auc-reference: mean AUC {auc} != {ref_auc} (tol {AUC_TOL})")
        # an op repeats its panel's message; report each once
        return list(dict.fromkeys(problems)), auc


def make(name):
    """A fresh workload object by name."""
    if name == "sweep-j1":
        return Sweep(name, jobs=1)
    if name == "sweep-j2":
        return Sweep(name, jobs=2)
    if name == "infer-kernel":
        return Infer(name, [("nonlinear5", s) for s in range(8)], 1000,
                     config_text=None, oracle=False)
    if name == "infer-linear":
        return Infer(name, [(g, s) for g in ("linear5", "nonlinear5") for s in range(8)],
                     2000, config_text=LINEAR_ORACLE, oracle=True)
    raise KeyError(name)


NAMES = ("sweep-j1", "sweep-j2", "infer-kernel", "infer-linear")
