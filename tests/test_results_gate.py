"""The benchmark's stored results, checked in the test suite.

perfbench/refs.json holds the outputs perfbench's runs are checked
against: the deltas of the infer-kernel and infer-linear panels and the
sweep's mean AUC per method. These tests recompute them in process, as
the workloads compute them, so a change that moves a result fails here
without a benchmark run. They read the file and write nothing.

The grids below restate perfbench/workloads.py. A digest would not do:
CI's OpenBLAS may pick other kernels, and T = 1000 kernel deltas already
differ in their last bits between one BLAS thread and two.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from preimage_gc import IDENTITY, PipelineConfig, generate, infer_graph, linear_gc_baseline, run_benchmark
from preimage_gc.data import ingest_csv, panel_to_csv

REFS = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "refs.json").read_text(encoding="utf-8")
)

# perfbench's KERNEL_DELTA_TOL: one component more or fewer, or a
# bandwidth 1% off, moves a kernel delta by 1.5e-2 or more, while other
# BLAS kernels or thread counts move it by about 3e-15.
KERNEL_DELTA_TOL = 1e-9
# The linear-gc deltas are log ratios of least-squares residual
# variances on well-conditioned T = 2000 designs: another BLAS build
# moves them by rounding, some 1e-15, and any change of method (lag,
# normalization, rows) by far more than this. perfbench compares them
# exactly on the machine that made the references.
LINEAR_DELTA_TOL = 1e-9
# perfbench's AUC_TOL: one rank change in one cell moves a mean by 3e-4.
AUC_TOL = 1e-9

LINEAR_IDENTITY = PipelineConfig(kernel=IDENTITY, lag=1, ridge_var=0.0, ridge_preimage=0.0)


def panels(workload):
    """(name, panel, reference delta) of each panel of an infer workload,
    the panel written to CSV and read back as the workload feeds it."""
    for name, delta in sorted(REFS[workload]["deltas"].items()):
        generator, T, seed = name.split("/")
        dataset = generate(generator, int(T.removeprefix("T")), int(seed.removeprefix("s")))
        yield name, ingest_csv(panel_to_csv(dataset.panel)), np.array(delta)


def test_kernel_deltas_match_the_references():
    names = []
    for name, panel, want in panels("infer-kernel"):
        err = float(np.max(np.abs(infer_graph(panel).delta - want)))
        assert err <= KERNEL_DELTA_TOL, f"{name}: max |delta - ref| = {err:.3g}"
        names.append(name)
    assert names == sorted(f"nonlinear5/T1000/s{s}" for s in range(8))


def test_linear_gc_deltas_match_the_references_and_the_oracle():
    names = []
    for name, panel, want in panels("infer-linear"):
        baseline = linear_gc_baseline(panel).delta
        assert np.array_equal(infer_graph(panel, LINEAR_IDENTITY).delta, baseline), name
        err = float(np.max(np.abs(baseline - want)))
        assert err <= LINEAR_DELTA_TOL, f"{name}: max |delta - ref| = {err:.3g}"
        names.append(name)
    assert names == sorted(f"{g}/T2000/s{s}" for g in ("linear5", "nonlinear5") for s in range(8))


def test_sweep_mean_auc_matches_the_references():
    # the sweep-j1 grid: configs/full_sweep.ini's methods at 2 seeds
    methods = [("kernel", PipelineConfig()), ("linear-gc", LINEAR_IDENTITY)]
    report = run_benchmark(
        ("logistic2", "fanout3", "fanin3", "linear5", "nonlinear5"), methods, (50, 100, 200, 500), 2
    )
    aucs = {}
    for record in report.records:
        assert record.error is None, record
        aucs.setdefault(record.method_id, []).append(record.auc)
    want = REFS["sweep"]["auc_mean"]
    assert sorted(aucs) == sorted(want)
    for method, values in aucs.items():
        assert len(values) == 40
        assert float(np.mean(values)) == pytest.approx(want[method], rel=0, abs=AUC_TOL), method
