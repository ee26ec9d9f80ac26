"""Record the end-to-end figures of one source tree into a BENCH json file.

    python3 tools/bench_record.py --label change
    python3 tools/bench_record.py --label parent --src ../parent/src

It measures what the roadmap's north star asks every speed claim to
quote, on the source tree given by --src (default: this checkout's src/):

- kernel infer_graph latency on the nonlinear5 panel of seed 0 at
  T = 500, 1000 and 2000, best of 3 calls (INFER_REPEATS) after one warm-up call;
- the wall time of `preimage-gc bench --config configs/full_sweep.ini`
  at --jobs 1 and at --jobs 2, each in a fresh interpreter (start-up and
  import included), with the sha256 of the records.csv and summaries.json
  it wrote, so that two trees can be checked for identical results;
- the machine: core count, Python, numpy and scipy versions, the BLAS
  build each of numpy and scipy loads, and the BLAS thread variables.

The record goes under its label into the --out file (default
BENCH_6.json beside this checkout's README); records under other labels
are kept, so one file can hold a parent and a change measured alike.
The sweep's outputs go to a scratch directory under the checkout that is
removed afterwards.
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWEEP_CONFIG = ROOT / "configs" / "full_sweep.ini"
INFER_GENERATOR = "nonlinear5"
INFER_SEED = 0
INFER_T = (500, 1000, 2000)
INFER_REPEATS = 3
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
    """Best and every wall time of infer_graph, in ms, per T."""
    from preimage_gc import generate, infer_graph

    out = {}
    for T in INFER_T:
        panel = generate(INFER_GENERATOR, T, INFER_SEED).panel
        infer_graph(panel)
        times = []
        for _ in range(INFER_REPEATS):
            start = time.perf_counter()
            infer_graph(panel)
            times.append(1e3 * (time.perf_counter() - start))
        out[str(T)] = {"best_ms": min(times), "runs_ms": times}
    return out


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def sweep_wall(src, jobs, work):
    """Wall time of one full_sweep.ini bench run and digests of its outputs."""
    out = work / f"sweep-j{jobs}"
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-m", "preimage_gc", "bench", "--config", str(SWEEP_CONFIG),
            "--out", str(out), "--jobs", str(jobs)]
    start = time.perf_counter()
    subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "records_csv_sha256": _sha256(out / "records.csv"),
        "summaries_json_sha256": _sha256(out / "summaries.json"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="key of this record in the output file")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the preimage_gc package to measure")
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_6.json")
    args = parser.parse_args(argv)

    src = args.src.resolve()
    sys.path.insert(0, str(src))
    work = ROOT / ".bench-record-work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        record = {
            "machine": machine(),
            "infer_graph": {
                "generator": INFER_GENERATOR,
                "seed": INFER_SEED,
                "kernel": "rbf, median bandwidth, p_select 0.95, lag 1",
                "repeats": INFER_REPEATS,
                "T": infer_latency(),
            },
            "full_sweep": {f"jobs_{jobs}": sweep_wall(src, jobs, work) for jobs in SWEEP_JOBS},
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
