"""The package's top-level names, the array arguments of its stages, and
the frozen result dataclasses."""

import re
from pathlib import Path

import numpy as np
import pytest

import preimage_gc
import preimage_gc.errors
from preimage_gc import (
    KernelSpec,
    PipelineConfig,
    TimeSeriesPanel,
    fit_kernel_pca,
    fit_var,
    generate,
    learn_preimage,
    normalize_columns,
    run_full_model,
)
from preimage_gc.bench import BenchmarkReport, CellRecord, summarize
from preimage_gc.causality import CausalGraph
from preimage_gc.kernels import KernelPcaModel
from preimage_gc.preimage import PreimageMap, reconstruct
from preimage_gc.synthgen import LINEAR5_COEFFICIENTS, SyntheticDataset
from preimage_gc.varm import VarModelFit

# what the CLI, demos/ and tests/test_acceptance.py use; README.md's
# export table lists the same names (test_readme_export_table_is_all)
TOP_LEVEL = [
    "GENERATOR_IDS",
    "IDENTITY",
    "KernelSpec",
    "PipelineConfig",
    "TimeSeriesPanel",
    "fit_kernel_pca",
    "fit_var",
    "generate",
    "infer_graph",
    "ingest_csv",
    "learn_preimage",
    "linear_gc_baseline",
    "normalize_columns",
    "off_diagonal",
    "reconstruct",
    "roc_auc",
    "run_benchmark",
    "run_full_model",
]


def test_all_is_exactly_the_used_api():
    assert sorted(preimage_gc.__all__) == TOP_LEVEL
    namespace = {}
    exec("from preimage_gc import *", namespace)
    assert sorted(k for k in namespace if not k.startswith("__")) == TOP_LEVEL


def test_readme_export_table_is_all():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    count = re.search(r"The top-level package exports the (\d+) names", text)
    # the sentence's paragraph, then the table: a header, a rule and one
    # "| stage | `name`, `name` |" row per stage
    rows = text[count.end() :].split("\n\n")[1].splitlines()[2:]
    names = [name for row in rows for name in re.findall(r"`([^`]+)`", row.split("|")[2])]
    assert sorted(names) == sorted(preimage_gc.__all__)
    assert len(names) == int(count.group(1)) == len(preimage_gc.__all__)


def test_readme_error_class_count_is_the_errors_module():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    count = re.search(r"the (\d+)\s+error classes of `preimage_gc.errors`", text)
    module = preimage_gc.errors
    defined = [v for v in vars(module).values() if isinstance(v, type) and v.__module__ == module.__name__]
    assert all(issubclass(cls, module.PreimageGCError) for cls in defined)
    assert len(defined) == int(count.group(1))


def test_no_version_attribute():
    # pyproject.toml holds the version
    assert not hasattr(preimage_gc, "__version__")


_GOOD = np.random.default_rng(1).normal(size=(8, 2))
_LINEAR = KernelSpec("linear")

# each stage's array arguments: a call that passes `bad` as the named one
_GUARDED = {
    "normalize_columns": ("values", normalize_columns),
    "fit_var": ("series", fit_var),
    "learn_preimage Y": ("Y", lambda bad: learn_preimage(bad, _GOOD)),
    "learn_preimage H": ("H", lambda bad: learn_preimage(_GOOD, bad)),
    "fit_kernel_pca": ("X", lambda bad: fit_kernel_pca(_LINEAR, bad, 1)),
    "reconstruct H": ("H", lambda bad: reconstruct(PreimageMap(np.ones((2, 2)), 0.0), bad)),
}


@pytest.mark.parametrize("shape", [(8,), (8, 2, 1)], ids=["1-d", "3-d"])
@pytest.mark.parametrize("site", _GUARDED)
def test_non_2d_array_is_a_shape_error_naming_it(site, shape):
    name, call = _GUARDED[site]
    with pytest.raises(ValueError, match=f"^{name} must be 2-d"):
        call(np.ones(shape))


def _caller_arrays():
    rng = np.random.default_rng(0)
    return {
        "square": rng.normal(size=(3, 3)),
        "tall": rng.normal(size=(6, 3)),
        "vector": rng.normal(size=3),
    }


def _panel(a):
    return TimeSeriesPanel(a["tall"], ("a", "b", "c")), {"values": a["tall"]}


def _kpca(a):
    model = KernelPcaModel(KernelSpec("linear"), a["tall"], a["vector"])
    return model, {"dual_coefficients": a["tall"], "eigenvalues": a["vector"]}


def _var_fit(a):
    fit = VarModelFit((a["square"],), fitted=a["tall"], residual_variance=a["vector"])
    return fit, {"fitted": a["tall"], "residual_variance": a["vector"]}


def _pmap(a):
    return PreimageMap(a["tall"], 1.0), {"gamma": a["tall"]}


def _graph(a):
    raw = a["square"]
    np.fill_diagonal(raw, 0.0)
    return CausalGraph(raw, ("a", "b", "c")), {"raw_log_ratios": raw, "delta": raw}


def _dataset(a):
    gt = np.array([[0, 1], [0, 0]])
    a["truth"] = gt
    panel = TimeSeriesPanel(a["tall"][:, :2], ("a", "b"))
    return SyntheticDataset(panel, gt, "logistic2", 0, {}), {"ground_truth": gt}


@pytest.mark.parametrize(
    "build", [_panel, _kpca, _var_fit, _pmap, _graph, _dataset],
    ids=lambda f: f.__name__.lstrip("_"),
)
def test_array_fields_are_read_only_copies(build):
    arrays = _caller_arrays()
    obj, fields = build(arrays)
    before = {name: getattr(obj, name).copy() for name in fields}
    for name, source in fields.items():
        field = getattr(obj, name)
        assert not field.flags.writeable, name
        assert not np.shares_memory(field, source), name
        with pytest.raises(ValueError):
            field[...] = 0
    for source in arrays.values():
        source[...] = 1
    for name in fields:
        np.testing.assert_array_equal(getattr(obj, name), before[name])


def _full_model(a):
    return run_full_model(TimeSeriesPanel(a["tall"], ("a", "b", "c"))), {}


@pytest.mark.parametrize("kernel", [KernelSpec("rbf"), "linear-identity"])
def test_full_model_arrays_are_read_only_copies(kernel):
    panel = generate("linear5", 80, 0).panel
    result = run_full_model(panel, PipelineConfig(kernel=kernel))
    for name in ("normalized", "features", "reconstruction", "residual_variance"):
        field = getattr(result, name)
        assert not field.flags.writeable, name
        with pytest.raises(ValueError):
            field[...] = 0
    if result.kpca is None:
        # under linear-identity the features are the normalized inputs themselves
        assert result.features is result.normalized
    else:
        assert result.features.tobytes() == result.kpca.coordinates.tobytes()


# numpy cannot say whether two arrays are equal in one bool, so records
# that hold arrays compare, and hash, by identity
@pytest.mark.parametrize(
    "build", [_panel, _kpca, _var_fit, _pmap, _graph, _dataset, _full_model],
    ids=lambda f: f.__name__.lstrip("_"),
)
def test_records_holding_arrays_compare_by_identity(build):
    arrays = _caller_arrays()
    a, _ = build(arrays)
    b, _ = build(arrays)
    assert a == a and not a != a
    assert a != b and not a == b
    assert len({a, b, a}) == 2 and a in {a} and b not in {a}


def test_records_without_arrays_compare_by_value():
    records = (CellRecord("linear5", "m", 50, 0, auc=0.5), CellRecord("linear5", "m", 50, 1, auc=0.7))
    for make in (
        lambda: KernelSpec("polynomial", degree=3),
        lambda: PipelineConfig(kernel=KernelSpec("linear"), lag=2),
        lambda: CellRecord("linear5", "m", 50, 0, auc=0.5),
        lambda: summarize(records)[0],
        lambda: BenchmarkReport(records),
    ):
        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b)


def test_var_coefficients_are_read_only_copies():
    A = np.eye(2)
    fit = VarModelFit((A,), fitted=np.zeros((3, 2)), residual_variance=np.zeros(2))
    A[0, 0] = 5.0
    assert fit.coefficients[0][0, 0] == 1.0
    assert not fit.coefficients[0].flags.writeable


def test_linear5_coefficients_are_read_only():
    assert not LINEAR5_COEFFICIENTS.flags.writeable


def test_panel_and_design_are_c_ordered():
    values = np.asfortranarray(np.random.default_rng(1).normal(size=(6, 3)))
    assert TimeSeriesPanel(values, ("a", "b", "c")).values.flags.c_contiguous
    # fit_var solves on C-ordered copies of its design and targets, so an
    # F-ordered series, whose layout would pick another BLAS path, fits
    # to the same bits
    series = np.random.default_rng(3).normal(size=(1000, 22))
    for lag in (1, 2, 3):
        for ridge in (0.0, 1e-3):
            c_fit = fit_var(series, lag, ridge)
            f_fit = fit_var(np.asfortranarray(series), lag, ridge)
            case = f"lag {lag}, ridge {ridge}"
            for A, B in zip(c_fit.coefficients, f_fit.coefficients, strict=True):
                np.testing.assert_array_equal(A, B, err_msg=case)
            np.testing.assert_array_equal(c_fit.fitted, f_fit.fitted, err_msg=case)
            np.testing.assert_array_equal(c_fit.residual_variance, f_fit.residual_variance, err_msg=case)


def test_other_fields_keep_the_input_layout():
    # the layout picks the BLAS path and so the last bits of later products
    gamma = np.asfortranarray(np.random.default_rng(2).normal(size=(4, 3)))
    assert PreimageMap(gamma, 0.0).gamma.flags.f_contiguous
    result = run_full_model(generate("fanout3", 60, 0).panel)
    assert result.preimage_map.gamma.flags.f_contiguous
