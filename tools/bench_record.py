"""Record the result digests of one source tree into a BENCH json file.

    python3 tools/bench_record.py --label change --out BENCH_8.json
    python3 tools/bench_record.py --label parent --src ../parent/src --out BENCH_8.json

It answers one question: does the source tree given by --src (default:
this checkout's src/) compute the same numbers as another? It records
no timing; perfbench/run.py times a parent and a change in alternating
runs, which is what a speed claim quotes. It records:

- the identity digest: the sha256 over raw_log_ratios.tobytes() of 180
  graph calls, so that two trees can be checked for identical numbers
  without a sweep. For each generator in GENERATOR_IDS order, then each
  T of DIGEST_T, then each seed of DIGEST_SEEDS, the panel goes through
  five infer_graph configs (default rbf, rbf at lag 2, rbf at p_select
  0.999, polynomial at p_select 4, linear at p_select 2) in that order
  and then linear_gc_baseline, so every kernel kind is covered; warnings
  are suppressed, as they change no output;
- the sha256 of the records.csv and summaries.json that
  `preimage-gc bench --config configs/full_sweep.ini` writes at --jobs 1
  and at --jobs 2, each run in a fresh interpreter;
- the sha256 of the graph.json that one fresh-interpreter
  `python -m preimage_gc infer` writes for the nonlinear5 panel of
  seed 0 at T = 1000;
- the machine: core count, Python, numpy and scipy versions, the BLAS
  build each of numpy and scipy loads, and the BLAS thread variables,
  since a fit's last bits depend on them;
- src_sha256: the sha256 over the sorted relative paths and bytes of
  the .py files of the preimage_gc package, so that a record names the
  tree it checked, whether --src is a git checkout or a plain copy.

The record goes under its label into the --out file, which has no
default, so that no run overwrites an earlier change's record; records
under other labels are kept, so one file can hold a parent and a change
checked alike.
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
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SWEEP_CONFIG = ROOT / "configs" / "full_sweep.ini"
INFER_GENERATOR = "nonlinear5"
INFER_SEED = 0
COLD_T = 1000
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


def identity_digest():
    """sha256 over the raw_log_ratios bytes of the DIGEST_* grid."""
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


def _cli(src, *args):
    """Run `python -m preimage_gc <args>` on the tree src to its end."""
    subprocess.run([sys.executable, "-m", "preimage_gc", *map(str, args)],
                   env=dict(os.environ, PYTHONPATH=str(src)), check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


def sweep(src, jobs, work):
    """Digests of the outputs of one full_sweep.ini bench run."""
    out = work / f"sweep-j{jobs}"
    _cli(src, "bench", "--config", SWEEP_CONFIG, "--out", out, "--jobs", jobs)
    return {
        "records_csv_sha256": _sha256(out / "records.csv"),
        "summaries_json_sha256": _sha256(out / "summaries.json"),
    }


def cold_infer(src, work):
    """Digest of the graph.json of one infer in a fresh interpreter."""
    _cli(src, "synth", INFER_GENERATOR, "--T", COLD_T, "--seed", INFER_SEED, "--out", work)
    panel = work / f"{INFER_GENERATOR}_T{COLD_T}_seed{INFER_SEED}.csv"
    out = work / "infer"
    _cli(src, "infer", panel, "--out", out)
    return {
        "generator": INFER_GENERATOR,
        "seed": INFER_SEED,
        "T": COLD_T,
        "graph_json_sha256": _sha256(out / "graph.json"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="key of this record in the output file")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the preimage_gc package to check")
    parser.add_argument("--out", type=Path, required=True,
                        help="BENCH json file to add the record to")
    args = parser.parse_args(argv)

    src = args.src.resolve()
    sys.path.insert(0, str(src))
    work = ROOT / ".bench-record-work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        record = {
            "src_sha256": src_sha256(src),
            "machine": machine(),
            "identity_digest": identity_digest(),
            "full_sweep": {f"jobs_{jobs}": sweep(src, jobs, work) for jobs in SWEEP_JOBS},
            "cold_start": {"infer": cold_infer(src, work)},
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
