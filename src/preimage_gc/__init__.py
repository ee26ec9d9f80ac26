"""Nonlinear Granger-causal graph discovery for multivariate time series.

State vectors are lifted into kernel principal components, a VAR is fit
on the component series, predictions are mapped back to input space with
a learned pre-image map, and causal influence is scored by how much each
node's removal inflates the others' residual variances.
"""

from .errors import (
    ConfigError,
    CsvError,
    CsvFormatError,
    CsvParseError,
    CsvSchemaError,
    DegenerateInputError,
    DegenerateModelError,
    EigensolverError,
    InstabilityError,
    InsufficientSamplesError,
    PreimageGCError,
    RankError,
    ShapeError,
    UndefinedAucError,
)
from .data import (
    LaggedDesign,
    TimeSeriesPanel,
    ingest_csv,
    lag_embed,
    normalize_columns,
    panel_to_csv,
)
from .kernels import (
    KernelPcaModel,
    KernelSpec,
    fit_kernel_pca,
    gram,
    median_bandwidth,
    project,
)
from .varm import VarModelFit, fit_var, predict, residual_variance_about
from .preimage import PreimageMap, learn_preimage, reconstruct
from .causality import (
    IDENTITY,
    MEDIAN_RBF,
    CausalGraph,
    FullModelResult,
    PipelineConfig,
    causality_index,
    infer_graph,
    linear_gc_baseline,
    run_full_model,
)
from .synthgen import (
    GENERATOR_IDS,
    LINEAR5_COEFFICIENTS,
    SyntheticDataset,
    generate,
    ground_truth_edges,
)
from .bench import (
    BenchmarkReport,
    CellRecord,
    CellSummary,
    off_diagonal,
    roc_auc,
    run_benchmark,
    summarize,
)

__version__ = "0.1.0"

__all__ = [
    "BenchmarkReport",
    "CausalGraph",
    "CellRecord",
    "CellSummary",
    "ConfigError",
    "CsvError",
    "CsvFormatError",
    "CsvParseError",
    "CsvSchemaError",
    "DegenerateInputError",
    "DegenerateModelError",
    "EigensolverError",
    "FullModelResult",
    "GENERATOR_IDS",
    "IDENTITY",
    "InstabilityError",
    "InsufficientSamplesError",
    "KernelPcaModel",
    "KernelSpec",
    "LINEAR5_COEFFICIENTS",
    "LaggedDesign",
    "MEDIAN_RBF",
    "PipelineConfig",
    "PreimageGCError",
    "PreimageMap",
    "RankError",
    "ShapeError",
    "SyntheticDataset",
    "TimeSeriesPanel",
    "UndefinedAucError",
    "VarModelFit",
    "causality_index",
    "fit_kernel_pca",
    "fit_var",
    "generate",
    "gram",
    "ground_truth_edges",
    "infer_graph",
    "ingest_csv",
    "lag_embed",
    "learn_preimage",
    "linear_gc_baseline",
    "median_bandwidth",
    "normalize_columns",
    "off_diagonal",
    "panel_to_csv",
    "predict",
    "project",
    "reconstruct",
    "residual_variance_about",
    "roc_auc",
    "run_benchmark",
    "run_full_model",
    "summarize",
]
