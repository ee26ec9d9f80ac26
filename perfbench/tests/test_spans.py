"""The benchmark's own arithmetic: self time, the tail percentile rule and
the counted ratios.

    python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import spans  # noqa: E402


def _span(label, start, end, parent, fact=None):
    return (label, start, end, parent, 0, fact)


def test_self_time_subtracts_only_direct_children():
    recorded = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("causality.infer_graph", 1.0, 4.0, 0),
        _span("kernels.gram", 2.0, 3.0, 1),
        _span("causality.infer_graph", 5.0, 9.0, 0),
    ]
    assert spans.self_times(recorded) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    recorded = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("kernels.gram", 1.0, 6.0, 0),
        _span("kernels.gram", 4.0, 12.0, 0),
    ]
    assert spans.self_times(recorded)[0] == pytest.approx(1.0)


def test_tracer_links_nested_calls_to_parent_and_op():
    tracer = spans.Tracer()
    inner = tracer.span("varm.fit_var", lambda: None)
    outer = tracer.span("causality.infer_graph", lambda: (inner(), inner()))
    tracer.op = 7
    outer()
    labels = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    assert labels == ["causality.infer_graph", "varm.fit_var", "varm.fit_var"]
    assert parents == [-1, 0, 0]
    assert {s[4] for s in tracer.spans} == {7}


@pytest.mark.parametrize(
    "n, expected",
    [
        (19, None),
        (20, (50.0, 10, 20)),
        (99, (50.0, 50, 99)),
        (100, (90.0, 90, 100)),
        (1000, (99.0, 990, 1000)),
        (10000, (99.9, 9990, 10000)),
    ],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected):
    assert spans.tail(list(range(n, 0, -1))) == expected


def test_calls_per_panel_counts_distinct_generator_t_seed():
    keys = [("linear5", 50, 0), ("linear5", 50, 0), ("linear5", 50, 1),
            ("linear5", 100, 0), ("linear5", 50, 1), ("linear5", 100, 0)]
    assert spans.calls_per_panel(keys) == 2.0
    assert spans.calls_per_panel([]) == 0.0


def test_per_layer_ratios_from_spans():
    recorded = [
        _span("kernels.fit_kernel_pca", 0.0, 4.0, -1, fact=(50, 5)),
        _span("kernels.gram", 0.5, 1.5, 0, fact=50 * 50),
        _span("kernels.gram", 2.0, 3.0, -1, fact=49 * 50),
    ]
    m = spans.per_layer(recorded, n_ops=2, op_wall_s=8.0)
    assert m["kernels.gram.calls_per_fit"] == 2.0
    assert m["kernels.gram.calls"] == 1.0
    assert m["kernels.fit_kernel_pca.self_ms"] == pytest.approx(1500.0)
    assert m["kernels.fit_kernel_pca.share"] == pytest.approx(3.0 / 8.0)
    assert m["kernels.gram.mb_computed"] == pytest.approx(8e-6 * (2500 + 2450) / 2)
    assert m["kernels.fit_kernel_pca.retained_frac"] == pytest.approx(0.1)
    assert m["causality.infer_graph.calls"] == 0.0


def test_installed_tracer_sees_duplicate_generation_and_two_grams_per_fit():
    from preimage_gc import bench, kernels
    from preimage_gc.causality import IDENTITY, PipelineConfig

    original = kernels.gram
    tracer = spans.Tracer()
    tracer.install()
    try:
        methods = [("kernel", PipelineConfig()), ("linear", PipelineConfig(kernel=IDENTITY))]
        bench.run_benchmark(["fanin3"], methods, [50], 2)
    finally:
        tracer.uninstall()
    assert kernels.gram is original
    assert tracer.absent == []
    m = spans.per_layer(tracer.spans, n_ops=4, op_wall_s=1.0)
    assert m["synthgen.generate.calls_per_panel"] == 2.0
    assert m["kernels.gram.calls_per_fit"] == 2.0
    assert m["causality.infer_graph.fits_per_call"] == 4.0
