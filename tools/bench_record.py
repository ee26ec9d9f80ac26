"""Record the end-to-end figures of one source tree into a BENCH json file.

    python3 tools/bench_record.py --label change --out BENCH_8.json
    python3 tools/bench_record.py --label parent --src ../parent/src --out BENCH_8.json

It measures what the roadmap's north star asks every speed claim to
quote, on the source tree given by --src (default: this checkout's src/):

- kernel infer_graph latency on the nonlinear5 panel of seed 0 at
  T = 500, 1000 and 2000, best of 3 calls (INFER_REPEATS) after one
  warm-up call, with the process CPU time of each call;
- the wall time of `preimage-gc bench --config configs/full_sweep.ini`
  at --jobs 1 and at --jobs 2, each in a fresh interpreter (start-up and
  import included), with the CPU time of that interpreter and its
  workers and the sha256 of the records.csv and summaries.json it
  wrote, so that two trees can be checked for identical results;
- cold start, best of 3 fresh interpreters each (COLD_REPEATS): the time
  `import preimage_gc.cli` takes, and the wall and CPU time of
  `python -m preimage_gc infer` on the nonlinear5 panel of seed 0 at
  T = 1000, each with the largest peak RSS of its children, and the
  sha256 of the graph.json infer wrote;
- the identity digest: the sha256 over raw_log_ratios.tobytes() of 180
  graph calls, so that two trees can be checked for identical numbers
  without a sweep. For each generator in GENERATOR_IDS order, then each
  T of DIGEST_T, then each seed of DIGEST_SEEDS, the panel goes through
  five infer_graph configs (default rbf, rbf at lag 2, rbf at p_select
  0.999, polynomial at p_select 4, linear at p_select 2) in that order
  and then linear_gc_baseline, so every kernel kind is covered; warnings
  are suppressed, as they change no output;
- the machine: core count, Python, numpy and scipy versions, the BLAS
  build each of numpy and scipy loads, and the BLAS thread variables.
- src_sha256: the sha256 over the sorted relative paths and bytes of
  the .py files of the measured preimage_gc package, so that a record
  names the tree it measured, whether --src is a git checkout or a
  plain copy.

The record goes under its label into the --out file, which has no
default, so that no run overwrites an earlier change's record; records
under other labels are kept, so one file can hold a parent and a change
measured alike.
The sweep's and infer's outputs go to a scratch directory under the
checkout that is removed afterwards.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWEEP_CONFIG = ROOT / "configs" / "full_sweep.ini"
INFER_GENERATOR = "nonlinear5"
INFER_SEED = 0
INFER_T = (500, 1000, 2000)
INFER_REPEATS = 3
COLD_T = 1000
COLD_REPEATS = 3
IMPORT_TIMER = (
    "import time; start = time.perf_counter(); import preimage_gc.cli; "
    "print(time.perf_counter() - start)"
)
DIGEST_T = (50, 300, 1000)
DIGEST_SEEDS = (0, 1)
SWEEP_JOBS = (1, 2)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas(show_config):
    """Name, version and build line of the BLAS a package was built with."""
    blas = show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {key: blas.get(key) for key in ("name", "version", "openblas configuration")}


def machine():
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy.show_config),
        "scipy_blas": _blas(scipy.show_config),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def infer_latency():
    """Best and every wall time of infer_graph, in ms, per T, and the
    process CPU time of each call (every thread of this process)."""
    from preimage_gc import generate, infer_graph

    out = {}
    for T in INFER_T:
        panel = generate(INFER_GENERATOR, T, INFER_SEED).panel
        infer_graph(panel)
        times, cpu = [], []
        for _ in range(INFER_REPEATS):
            cpu_start, start = time.process_time(), time.perf_counter()
            infer_graph(panel)
            times.append(1e3 * (time.perf_counter() - start))
            cpu.append(1e3 * (time.process_time() - cpu_start))
        out[str(T)] = {"best_ms": min(times), "runs_ms": times, "cpu_runs_ms": cpu}
    return out


def identity_digest():
    """sha256 over the raw_log_ratios bytes of the DIGEST_* grid, and its time."""
    from preimage_gc import (
        GENERATOR_IDS,
        KernelSpec,
        PipelineConfig,
        generate,
        infer_graph,
        linear_gc_baseline,
    )

    configs = {
        "default rbf": PipelineConfig(),
        "rbf, lag 2": PipelineConfig(lag=2),
        "rbf, p_select 0.999": PipelineConfig(p_select=0.999),
        "polynomial, p_select 4": PipelineConfig(kernel=KernelSpec("polynomial"), p_select=4),
        # p_select 2: logistic2 has 2 nodes, so a linear gram has rank 2 at most
        "linear, p_select 2": PipelineConfig(kernel=KernelSpec("linear"), p_select=2),
    }
    digest = hashlib.sha256()
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for generator in GENERATOR_IDS:
            for T in DIGEST_T:
                for seed in DIGEST_SEEDS:
                    panel = generate(generator, T, seed).panel
                    graphs = [infer_graph(panel, config) for config in configs.values()]
                    graphs.append(linear_gc_baseline(panel))
                    for graph in graphs:
                        digest.update(graph.raw_log_ratios.tobytes())
    return {
        "generators": list(GENERATOR_IDS),
        "T": list(DIGEST_T),
        "seeds": list(DIGEST_SEEDS),
        "configs": list(configs) + ["linear_gc_baseline"],
        "raw_log_ratios_sha256": digest.hexdigest(),
        "wall_s": time.perf_counter() - start,
    }


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def src_sha256(src):
    """sha256 over the sorted relative paths and bytes of the package's .py files."""
    package = src / "preimage_gc"
    digest = hashlib.sha256()
    for rel in sorted(path.relative_to(package).as_posix() for path in package.rglob("*.py")):
        data = (package / rel).read_bytes()
        # path and length first, so no two trees hash the same byte stream
        digest.update(f"{rel}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def sweep_wall(src, jobs, work):
    """Wall and CPU time of one full_sweep.ini bench run and digests of its outputs."""
    out = work / f"sweep-j{jobs}"
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-m", "preimage_gc", "bench", "--config", str(SWEEP_CONFIG),
            "--out", str(out), "--jobs", str(jobs)]
    wall, cpu, _, _ = _child(argv, env)
    return {
        "wall_s": wall,
        "cpu_s": cpu,
        "records_csv_sha256": _sha256(out / "records.csv"),
        "summaries_json_sha256": _sha256(out / "summaries.json"),
    }


def _child(argv, env):
    """Wall seconds, CPU seconds, peak RSS in MB and stdout of one child
    run to its end.

    The CPU time is the child's user and system time, with that of every
    process it waited for (a bench run's workers). A child's peak RSS
    starts from the RSS of this process when it forks, so it is the
    child's own only while this process is the smaller.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    out = proc.stdout.read()
    proc.stdout.close()
    # wait4, unlike wait, reports the resources of this one child
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, argv)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, out


def cold_start(src, work):
    """Import time and cold infer wall time, each in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(src))
    cli = [sys.executable, "-m", "preimage_gc"]
    subprocess.run(cli + ["synth", INFER_GENERATOR, "--T", str(COLD_T), "--seed", str(INFER_SEED),
                          "--out", str(work)],
                   env=env, check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    panel = work / f"{INFER_GENERATOR}_T{COLD_T}_seed{INFER_SEED}.csv"
    out = work / "infer"
    imports, infers = [], []
    for _ in range(COLD_REPEATS):
        _, _, rss, stdout = _child([sys.executable, "-c", IMPORT_TIMER], env)
        imports.append((float(stdout), rss))
        wall, cpu, rss, _ = _child(cli + ["infer", str(panel), "--out", str(out)], env)
        infers.append((wall, cpu, rss))
    return {
        "import_preimage_gc_cli": {
            "best_s": min(t for t, _ in imports),
            "runs_s": [t for t, _ in imports],
            "peak_rss_mb": max(rss for _, rss in imports),
        },
        "infer": {
            "generator": INFER_GENERATOR,
            "seed": INFER_SEED,
            "T": COLD_T,
            "best_s": min(t for t, _, _ in infers),
            "runs_s": [t for t, _, _ in infers],
            "cpu_runs_s": [cpu for _, cpu, _ in infers],
            "peak_rss_mb": max(rss for _, _, rss in infers),
            "graph_json_sha256": _sha256(out / "graph.json"),
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="key of this record in the output file")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the preimage_gc package to measure")
    parser.add_argument("--out", type=Path, required=True,
                        help="BENCH json file to add the record to")
    args = parser.parse_args(argv)

    src = args.src.resolve()
    sys.path.insert(0, str(src))
    work = ROOT / ".bench-record-work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        # before this process loads numpy and grows past the children; see _child
        cold = cold_start(src, work)
        record = {
            "src_sha256": src_sha256(src),
            "machine": machine(),
            "infer_graph": {
                "generator": INFER_GENERATOR,
                "seed": INFER_SEED,
                "kernel": "rbf, median bandwidth, p_select 0.95, lag 1",
                "repeats": INFER_REPEATS,
                "T": infer_latency(),
            },
            "identity_digest": identity_digest(),
            "full_sweep": {f"jobs_{jobs}": sweep_wall(src, jobs, work) for jobs in SWEEP_JOBS},
            "cold_start": cold,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    records[args.label] = record
    args.out.write_text(json.dumps(records, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({args.label: record}, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
