"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` the run measures the end-to-end metrics for
``--seconds``. With ``--trace 1`` it runs untraced for the first half and
traced for the second, and reports the per-layer metrics from the traced
half and the tracing overhead as traced ops/s over untraced ops/s.

Either way the outputs are checked against refs.json after the timed
section. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the exit code is nonzero if a
check failed. Run files go to ``.perfbench-work/`` in the checkout.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"
REFS = HERE / "refs.json"

# Set-up is repeated this many times per run and its median reported:
# the import once here and in SETUP_REPS - 1 fresh interpreters, and the
# workload's preparation SETUP_REPS times.
SETUP_REPS = 3
_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import sys; sys.path.insert(0, 'src'); "
    "import preimage_gc.cli; print(time.perf_counter() - t)"
)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _cpu_s():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _timed(workload, seconds, until_covered):
    """Issue rounds until ``seconds`` have passed (and, if asked, every
    input was visited); return ((latency_s, failed) per op, wall s, cpu s)."""
    ops = []
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    while True:
        ops.extend(workload.round())
        wall = time.perf_counter() - t0
        if wall >= seconds and (workload.covered() or not until_covered):
            break
    return ops, wall, _cpu_s() - cpu0


def _commit(root):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
        "commit": _commit(ROOT),
    }


def main(argv=None):
    args = _parse(argv)
    if not (ROOT / "src" / "preimage_gc" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'preimage_gc'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import preimage_gc.cli  # noqa: F401  (the import is part of set-up)

    import spans
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.NAMES}",
              file=sys.stderr)
        return 2
    imported = time.perf_counter() - _START

    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    prepare_s = []
    for rep in range(SETUP_REPS):
        workload = workloads.make(args.workload)
        t0 = time.perf_counter()
        workload.prepare(run_dir / f"setup-{rep}", args.seed)
        prepare_s.append(time.perf_counter() - t0)
    import_s = [imported] + [
        float(subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT, check=True,
                             capture_output=True, text=True).stdout)
        for _ in range(SETUP_REPS - 1)
    ]
    setup_s = statistics.median(import_s) + statistics.median(prepare_s)

    tracer = None
    if args.trace:
        ops, wall, cpu = _timed(workload, args.seconds / 2, until_covered=False)
        tracer = spans.Tracer()
        tracer.install()
        workload.tracer = tracer
        try:
            traced, traced_wall, _ = _timed(workload, args.seconds / 2, until_covered=False)
        finally:
            tracer.uninstall()
            workload.tracer = None
        all_ops = ops + traced
    else:
        ops, wall, cpu = _timed(workload, args.seconds, until_covered=True)
        all_ops = ops

    refs = json.loads(REFS.read_text(encoding="utf-8"))
    if workload.refs_key in refs:
        problems, auc = workload.check(refs[workload.refs_key])
    else:
        problems, auc = [f"references: none for {workload.refs_key} in {REFS.name}"], 0.0

    latencies = [lat for lat, _ in ops]
    failed = sum(1 for _, f in all_ops if f)
    ops_per_s = len(ops) / wall
    if args.trace:
        metrics = spans.per_layer(tracer.spans, len(traced), sum(lat for lat, _ in traced))
        metrics["bench.pool.cpu_util"] = (
            cpu / (wall * workload.jobs) if isinstance(workload, workloads.Sweep) else 0.0
        )
        metrics["trace.ops_per_s_ratio"] = (len(traced) / traced_wall) / ops_per_s
    else:
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": ops_per_s,
            "op_ms_p50": 1e3 * statistics.median(latencies),
            "cpu_ms_per_op": 1e3 * cpu / len(ops),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "auc": auc,
        }
    units = _units()
    result = {
        "correct": not problems,
        "attempted": len(all_ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }

    tail = spans.tail(latencies)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(),
        "ops": len(ops),
        "failed_frac": failed / len(all_ops),
        "import_s": import_s,
        "prepare_s": prepare_s,
        "op_ms_tail": None if tail is None else
        {"percentile": tail[0], "value": 1e3 * tail[1], "samples": tail[2]},
        "peak_child_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "checks_failed": problems,
        "absent": tracer.absent if tracer else [],
        "result": result,
    }
    if tracer is not None:
        tracer.write(run_dir / "spans.jsonl")
    for sub in run_dir.iterdir():
        if sub.is_dir():
            shutil.rmtree(sub)
    (run_dir / "result.json").write_text(json.dumps(detail, indent=2) + "\n", encoding="utf-8")

    _report(detail)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if not problems else 1


def _units():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _report(detail):
    print(f"workload {detail['workload']}  seed {detail['seed']}  trace {detail['trace']}  "
          f"ops {detail['ops']}  failed_frac {detail['failed_frac']:.3g}")
    for name, m in detail["result"]["metrics"].items():
        print(f"  {name:45s} {m['value']:14.6g} {m['unit']}")
    tail = detail["op_ms_tail"]
    if tail is None:
        print("  op_ms tail: fewer than 20 ops, no percentile has ten samples beyond it")
    else:
        print(f"  op_ms_p{tail['percentile']:g} {tail['value']:.6g} ms "
              f"over {tail['samples']} ops")
    print(f"  environment {json.dumps(detail['environment'])}")


if __name__ == "__main__":
    sys.exit(main())
