"""Nonlinear Granger-causal graph discovery for multivariate time series.

State vectors are lifted into kernel principal components, a VAR is fit
on the component series, predictions are mapped back to input space with
a learned pre-image map, and causal influence is scored by how much each
node's removal inflates the others' residual variances.

The package exports what the CLI, the demos and the acceptance checks
use; the rest (result dataclasses, lower-level helpers) stays in its
submodule, and every error class in ``preimage_gc.errors``.
"""

from .data import TimeSeriesPanel, ingest_csv, normalize_columns
from .kernels import KernelSpec, fit_kernel_pca
from .varm import fit_var
from .preimage import learn_preimage, reconstruct
from .causality import (
    IDENTITY,
    PipelineConfig,
    infer_graph,
    linear_gc_baseline,
    run_full_model,
)
from .synthgen import GENERATOR_IDS, generate
from .bench import off_diagonal, roc_auc, run_benchmark

__all__ = [
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
