"""Granger-causal graph discovery via kernel features and a pre-image map.

The pipeline for one model is: normalize columns, lift state vectors into
kernel principal components, fit a VAR on the coordinates, map predicted
coordinates back to input space through a learned pre-image map, and take
per-node residual variances. A node's causal influence is read off by
comparing the full model against the model refit without that node.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .data import TimeSeriesPanel, _freeze, normalize_columns
from .errors import (
    DegenerateModelError,
    InsufficientSamplesError,
    PreimageGCError,
    RankError,
)
from .kernels import KernelPcaModel, KernelSpec, _check_p_select, fit_kernel_pca
from .preimage import PreimageMap, learn_preimage, reconstruct
from .varm import DEFAULT_RIDGE, VarModelFit, fit_var, predict, residual_variance_about

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
    normalize_input: bool = True

    def __post_init__(self):
        k = self.kernel
        if not isinstance(k, KernelSpec) and k != IDENTITY:
            raise ValueError(f"kernel must be a KernelSpec or {IDENTITY!r}; got {k!r}")
        _check_p_select(self.p_select)
        if isinstance(self.lag, bool) or not isinstance(self.lag, (int, np.integer)) or self.lag < 1:
            raise ValueError(f"lag must be a positive integer, got {self.lag!r}")
        if not (0 <= self.ridge_var < math.inf and 0 <= self.ridge_preimage < math.inf):
            raise ValueError(f"ridge_var and ridge_preimage must be finite and >= 0, got {self.ridge_var}, {self.ridge_preimage}")


@dataclass(frozen=True)
class FullModelResult:
    """One fitted pipeline: inputs, features, stage models, reconstruction.

    reconstruction holds predicted inputs for rows lag..T-1 of the
    normalized series; residual_variance is the per-column population
    variance of (normalized[lag:] - reconstruction).
    """

    normalized: np.ndarray
    features: np.ndarray
    kpca: KernelPcaModel | None
    var_fit: VarModelFit
    preimage_map: PreimageMap
    reconstruction: np.ndarray
    residual_variance: np.ndarray


@contextmanager
def _tagged(prefix):
    """Prefix the message of library errors raised inside with ``prefix``.

    Tags stack: the pipeline stage ("[pca]") goes on first, the
    left-out node ("excluding node 'n0':") outside it.
    """
    try:
        yield
    except PreimageGCError as err:
        err.args = (f"{prefix} {err.args[0]}",) + err.args[1:]
        raise


def _fit_pipeline(
    values, config: PipelineConfig, cap_rank: bool = False, node_names=None
) -> FullModelResult:
    """Run the full pipeline on a raw value matrix.

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
        if config.normalize_input:
            X = normalize_columns(values, node_names)
        else:
            X = values.copy()

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
            # project(kpca, X) without a second gram: Kc @ U / sqrt(lam) = U sqrt(lam)
            H = kpca.dual_coefficients * kpca.eigenvalues

    with _tagged("[var]"):
        var_fit = fit_var(H, config.lag, config.ridge_var)
        H_hat = predict(var_fit, H)

    with _tagged("[preimage]"):
        Y_t = X[config.lag :]
        pmap = learn_preimage(Y_t, H[config.lag :], config.ridge_preimage)
        Y_hat = reconstruct(pmap, H_hat)
        residual_variance = residual_variance_about(Y_t, Y_hat)

    return FullModelResult(
        normalized=X,
        features=H,
        kpca=kpca,
        var_fit=var_fit,
        preimage_map=pmap,
        reconstruction=Y_hat,
        residual_variance=residual_variance,
    )


def run_full_model(panel: TimeSeriesPanel, config: PipelineConfig | None = None) -> FullModelResult:
    """Fit the pipeline on all nodes of a panel."""
    if config is None:
        config = PipelineConfig()
    return _fit_pipeline(panel.values, config, node_names=panel.node_names)


def causality_index(var_reduced: float, var_full: float) -> float:
    """max(ln(var_reduced / var_full), 0): how much removing a node hurts.

    Both variances must be strictly positive; a nonpositive one means the
    model degenerated (typically a zero ridge on rank-deficient features).
    """
    for label, v in (("reduced", var_reduced), ("full", var_full)):
        if not (np.isfinite(v) and v > 0):
            raise DegenerateModelError(
                f"{label}-model residual variance must be positive, got {v}; "
                "increase the ridge penalties"
            )
    return max(math.log(var_reduced / var_full), 0.0)


@dataclass(frozen=True)
class CausalGraph:
    """Estimated influence matrix: delta[i, j] is evidence for i -> j.

    raw_log_ratios keeps the unclamped log variance ratios, useful for
    null calibration; delta is its nonnegative clamp.
    """

    delta: np.ndarray
    node_names: tuple
    raw_log_ratios: np.ndarray

    def __post_init__(self):
        _freeze(self, "delta", "raw_log_ratios")
        delta, raw = self.delta, self.raw_log_ratios
        names = tuple(str(n) for n in self.node_names)
        if delta.ndim != 2 or delta.shape[0] != delta.shape[1]:
            raise ValueError(f"delta must be square, got shape {delta.shape}")
        if raw.shape != delta.shape:
            raise ValueError("raw_log_ratios must match delta's shape")
        if len(names) != delta.shape[0]:
            raise ValueError("node_names length must match delta")
        if not np.all(np.isfinite(delta)) or not np.all(np.isfinite(raw)):
            raise ValueError("graph entries must be finite")
        if np.any(delta < 0):
            raise ValueError("delta entries must be nonnegative")
        if np.any(np.diag(delta) != 0) or np.any(np.diag(raw) != 0):
            raise ValueError("diagonal entries must be zero")
        object.__setattr__(self, "node_names", names)

    @property
    def n_nodes(self):
        return self.delta.shape[0]

    def edge_rows(self):
        """(cause, effect, delta) triples, strongest first, stable order."""
        N = self.n_nodes
        rows = [
            (i, j)
            for i in range(N)
            for j in range(N)
            if i != j
        ]
        rows.sort(key=lambda ij: (-self.delta[ij[0], ij[1]], ij[0], ij[1]))
        return [
            (self.node_names[i], self.node_names[j], float(self.delta[i, j]))
            for i, j in rows
        ]

    def to_edge_csv(self) -> str:
        lines = ["cause,effect,delta"]
        for cause, effect, value in self.edge_rows():
            lines.append(f"{cause},{effect},{repr(value)}")
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {
            "node_names": list(self.node_names),
            "delta": self.delta.tolist(),
            "raw_log_ratios": self.raw_log_ratios.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CausalGraph":
        missing = {"node_names", "delta", "raw_log_ratios"} - set(payload)
        if missing:
            raise ValueError(f"graph dict is missing keys: {sorted(missing)}")
        return cls(
            delta=np.asarray(payload["delta"], dtype=float),
            node_names=tuple(payload["node_names"]),
            raw_log_ratios=np.asarray(payload["raw_log_ratios"], dtype=float),
        )


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

    full = _fit_pipeline(values, config, node_names=names)
    sigma_full = full.residual_variance

    delta = np.zeros((N, N))
    raw = np.zeros((N, N))
    for i in range(N):
        reduced_values = np.delete(values, i, axis=1)
        reduced_names = names[:i] + names[i + 1 :]
        with _tagged(f"excluding node {names[i]!r}:"):
            reduced = _fit_pipeline(reduced_values, config, cap_rank=True, node_names=reduced_names)
        sigma_reduced = reduced.residual_variance
        rest = [j for j in range(N) if j != i]
        for k, j in enumerate(rest):
            delta[i, j] = causality_index(sigma_reduced[k], sigma_full[j])
            raw[i, j] = math.log(sigma_reduced[k] / sigma_full[j])

    return CausalGraph(delta=delta, node_names=names, raw_log_ratios=raw)


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
