"""Granger-causal graph discovery via kernel features and a pre-image map.

The pipeline for one model is: normalize columns, lift state vectors into
kernel principal components, fit a VAR on the coordinates, map predicted
coordinates back to input space through a learned pre-image map, and take
per-node residual variances. A node's causal influence is read off by
comparing the full model against the model refit without that node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import TimeSeriesPanel, _check_lag, _csv_text, _finite_nonnegative, _freeze, _frozen_array, _node_names, normalize_columns
from .errors import DegenerateModelError, InsufficientSamplesError, PreimageGCError, RankError
from .kernels import KernelPcaModel, KernelSpec, _check_p_select, fit_kernel_pca
from .preimage import PreimageMap, learn_preimage, reconstruct
from .varm import DEFAULT_RIDGE, VarModelFit, _column_variance, fit_var

# The sentinel kernel PipelineConfig accepts besides a KernelSpec: it
# skips the feature lift entirely (coordinates are the normalized inputs
# themselves), which reduces the whole pipeline to ordinary linear
# Granger causality.
IDENTITY = "linear-identity"


@dataclass(frozen=True)
class PipelineConfig:
    """Everything infer_graph needs besides the data."""

    kernel: KernelSpec | str = KernelSpec("rbf")
    p_select: int | float = 0.95
    lag: int = 1
    ridge_var: float = DEFAULT_RIDGE
    ridge_preimage: float = DEFAULT_RIDGE

    def __post_init__(self):
        k = self.kernel
        if not isinstance(k, KernelSpec) and k != IDENTITY:
            raise ValueError(f"kernel must be a KernelSpec or {IDENTITY!r}; got {k!r}")
        _check_p_select(self.p_select)
        _check_lag(self.lag)
        if not (_finite_nonnegative(self.ridge_var) and _finite_nonnegative(self.ridge_preimage)):
            raise ValueError(f"ridge_var and ridge_preimage must be finite and >= 0, got {self.ridge_var!r}, {self.ridge_preimage!r}")


@dataclass(frozen=True, eq=False)
class FullModelResult:
    """One fitted pipeline: the normalized inputs and its stage models.

    The rest is worked out, read-only. features is normalized under
    linear-identity (kpca None), else kpca.coordinates. reconstruction,
    the pre-image of var_fit.fitted, predicts normalized[lag:], lag being
    len(var_fit.coefficients); another shape raises ValueError.
    residual_variance is the column variance (ddof 0) of their difference.
    """

    normalized: np.ndarray
    kpca: KernelPcaModel | None
    var_fit: VarModelFit
    preimage_map: PreimageMap
    reconstruction: np.ndarray = field(init=False)
    residual_variance: np.ndarray = field(init=False)

    def __post_init__(self):
        _freeze(self, "normalized")
        targets = self.normalized[len(self.var_fit.coefficients) :]
        reconstruction = reconstruct(self.preimage_map, self.var_fit.fitted)
        if reconstruction.shape != targets.shape:
            raise ValueError(f"reconstruction has shape {reconstruction.shape}, normalized[lag:] has {targets.shape}")
        object.__setattr__(self, "reconstruction", _frozen_array(reconstruction))
        object.__setattr__(self, "residual_variance", _frozen_array(_column_variance(targets - reconstruction)))

    @property
    def features(self) -> np.ndarray:
        return self.normalized if self.kpca is None else self.kpca.coordinates


class _tagged:
    """Prefix the message of library errors raised inside with ``prefix``.

    Tags stack: the pipeline stage ("[pca]") goes on first, the
    left-out node ("excluding node 'n0':") outside it. A class: a
    contextlib generator costs four times as much, 1.2 us (Python 3.11)
    on each of the four or five blocks a fit enters.
    """

    __slots__ = ("prefix",)

    def __init__(self, prefix):
        self.prefix = prefix

    def __enter__(self):
        return self

    def __exit__(self, kind, err, traceback):
        if kind is not None and issubclass(kind, PreimageGCError):
            err.args = (f"{self.prefix} {err.args[0]}",) + err.args[1:]
        return False


def _fit_pipeline(values, config: PipelineConfig, node_names, cap_rank: bool = False) -> FullModelResult:
    """Run the full pipeline on a raw value matrix whose columns are node_names.

    cap_rank softens an integer p_select to the achievable rank; the
    leave-one-out loop uses it so a component count valid on the full
    panel still works on the narrower reduced one.
    """
    T = values.shape[0]
    if T < config.lag + 2:
        raise InsufficientSamplesError(
            f"need at least lag + 2 = {config.lag + 2} rows, got {T}"
        )

    with _tagged("[normalize]"):
        X = normalize_columns(values, node_names)

    with _tagged("[pca]"):
        if config.kernel == IDENTITY:
            kpca = None
            H = X
        else:
            try:
                kpca = fit_kernel_pca(config.kernel, X, config.p_select)
            except RankError as err:
                # a nonzero achievable rank comes only with an integer p_select above it
                if not (cap_rank and err.achievable_rank):
                    raise
                kpca = fit_kernel_pca(config.kernel, X, err.achievable_rank)
            H = kpca.coordinates

    with _tagged("[var]"):
        var_fit = fit_var(H, config.lag, config.ridge_var)

    with _tagged("[preimage]"):
        pmap = learn_preimage(X[config.lag :], H[config.lag :], config.ridge_preimage)
        return FullModelResult(X, kpca, var_fit, pmap)


def run_full_model(panel: TimeSeriesPanel, config: PipelineConfig | None = None) -> FullModelResult:
    """Fit the pipeline on all nodes of a panel."""
    if config is None:
        config = PipelineConfig()
    return _fit_pipeline(panel.values, config, panel.node_names)


def _log_ratio(var_reduced: float, var_full: float) -> float:
    """ln(var_reduced / var_full), the unclamped leave-one-out score.

    Both variances must be strictly positive; a nonpositive one means the
    model degenerated (typically a zero ridge on rank-deficient features).
    """
    for label, v in (("reduced", var_reduced), ("full", var_full)):
        if not (math.isfinite(v) and v > 0):
            raise DegenerateModelError(
                f"{label}-model residual variance must be positive, got {v}; "
                "increase the ridge penalties"
            )
    return math.log(var_reduced / var_full)


@dataclass(frozen=True, eq=False)
class CausalGraph:
    """Estimated influence matrix: delta[i, j] is evidence for i -> j.

    raw_log_ratios holds the unclamped log variance ratios, useful for
    null calibration; delta, the paper's causality index, is worked out
    from them, as their clamp at zero.
    """

    raw_log_ratios: np.ndarray
    node_names: tuple
    delta: np.ndarray = field(init=False)

    def __post_init__(self):
        _freeze(self, "raw_log_ratios")
        raw = self.raw_log_ratios
        if raw.ndim != 2 or raw.shape[0] != raw.shape[1]:
            raise ValueError(f"raw_log_ratios must be square, got shape {raw.shape}")
        names = _node_names(self.node_names, raw.shape[0], "raw_log_ratios")
        if not np.isfinite(raw).all():
            raise ValueError("graph entries must be finite")
        if raw.diagonal().any():
            raise ValueError("diagonal entries must be zero")
        object.__setattr__(self, "delta", _frozen_array(np.maximum(raw, 0.0)))
        object.__setattr__(self, "node_names", names)

    @property
    def n_nodes(self):
        return self.delta.shape[0]

    def edge_rows(self):
        """(cause, effect, delta) triples, strongest first, stable order."""
        N = self.n_nodes
        rows = [(i, j) for i in range(N) for j in range(N) if i != j]
        rows.sort(key=lambda ij: (-self.delta[ij[0], ij[1]], ij[0], ij[1]))
        return [
            (self.node_names[i], self.node_names[j], float(self.delta[i, j]))
            for i, j in rows
        ]

    def to_edge_csv(self) -> str:
        rows = [(cause, effect, repr(value)) for cause, effect, value in self.edge_rows()]
        return _csv_text([("cause", "effect", "delta")] + rows)

    def to_dict(self) -> dict:
        return {
            "node_names": list(self.node_names),
            "delta": self.delta.tolist(),
            "raw_log_ratios": self.raw_log_ratios.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CausalGraph":
        if not isinstance(payload, dict):
            raise ValueError(f"a graph must be a dict, got {type(payload).__name__}")
        missing = {"node_names", "delta", "raw_log_ratios"} - set(payload)
        if missing:
            raise ValueError(f"graph dict is missing keys: {sorted(missing)}")
        names = payload["node_names"]
        if not isinstance(names, list):
            raise ValueError(f"node_names must be a list, got {type(names).__name__}")
        if not all(isinstance(name, str) for name in names):
            raise ValueError(f"node_names must hold only strings, got {names!r}")
        delta = _number_array(payload["delta"], "delta")
        graph = cls(_number_array(payload["raw_log_ratios"], "raw_log_ratios"), tuple(names))
        if not np.array_equal(delta, graph.delta):
            raise ValueError("delta must be raw_log_ratios clamped at zero")
        return graph


def _number_array(value, key):
    """A JSON value as a float array; ValueError, naming key, unless it is
    rectangular nested lists of numbers (a bool or a numeric string is
    not a number) that float64 holds."""
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a list, got {type(value).__name__}")
    pending = [value]
    while pending:
        item = pending.pop()
        if isinstance(item, list):
            pending.extend(item)
        elif isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ValueError(f"{key} must hold only numbers, got {item!r}")
    try:
        return np.asarray(value, dtype=float)
    except OverflowError:  # an integer too large for a float
        raise ValueError(f"{key} holds an integer too large for float64") from None
    except ValueError:  # ragged lists
        raise ValueError(f"{key} must be a rectangular list of lists") from None


def infer_graph(panel: TimeSeriesPanel, config: PipelineConfig | None = None) -> CausalGraph:
    """Leave-one-node-out causal discovery over a whole panel.

    Fits the full pipeline once, then once more per excluded node; entry
    (i, j) compares node j's residual variance without node i against the
    full model. Reduced models recompute everything (bandwidth, feature
    basis, pre-image) from scratch on the remaining columns.
    """
    if config is None:
        config = PipelineConfig()
    values = panel.values
    names = panel.node_names
    N = panel.n_nodes

    full = _fit_pipeline(values, config, names)
    # Python floats: their division and log are numpy's bits, without its scalar overhead
    sigma_full = full.residual_variance.tolist()

    raw = np.zeros((N, N))
    for i in range(N):
        rest = [j for j in range(N) if j != i]
        # Each reduced fit normalizes the raw reduced columns itself, as a
        # fit of the panel without node i would. Deleting column i from
        # the normalized full panel instead is not the same in the last
        # bits: numpy's column means and standard deviations can round
        # differently once the matrix has one column fewer. take copies
        # the columns in C order, as np.delete does, in less time.
        reduced_values = values.take(rest, axis=1)
        reduced_names = names[:i] + names[i + 1 :]
        with _tagged(f"excluding node {names[i]!r}:"):
            reduced = _fit_pipeline(reduced_values, config, reduced_names, cap_rank=True)
        sigma_reduced = reduced.residual_variance.tolist()
        for k, j in enumerate(rest):
            raw[i, j] = _log_ratio(sigma_reduced[k], sigma_full[j])

    return CausalGraph(raw, names)


def linear_gc_baseline(panel: TimeSeriesPanel, lag: int = 1) -> CausalGraph:
    """Classical linear Granger causality as a degenerate pipeline run.

    Identity features and zero ridge make the reconstruction equal the
    plain VAR prediction, so the indices are the textbook ones.
    """
    config = PipelineConfig(
        kernel=IDENTITY,
        lag=lag,
        ridge_var=0.0,
        ridge_preimage=0.0,
    )
    return infer_graph(panel, config)
