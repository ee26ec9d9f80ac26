"""Vector autoregression on (feature) coordinates, with optional ridge."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DegenerateInputError, InsufficientSamplesError, RankError, ShapeError
from .data import _freeze, _frozen_array, lag_embed

# The ridge penalty of both solves, fit_var's and learn_preimage's, unless
# the caller or the PipelineConfig picks another.
DEFAULT_RIDGE = 1e-3


@dataclass(frozen=True)
class VarModelFit:
    """Interceptless VAR(L) fit.

    coefficients[ell - 1] is the D x D matrix A_ell in
    y_t = sum_ell A_ell y_{t-ell} + e_t, acting on column vectors.
    residuals are in-sample (targets minus one-step predictions) and
    residual_variance their per-column population variance.
    """

    coefficients: tuple
    lag: int
    ridge_lambda: float
    residuals: np.ndarray
    residual_variance: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "coefficients", tuple(_frozen_array(A) for A in self.coefficients)
        )
        _freeze(self, "residuals", "residual_variance")

    @property
    def n_dims(self):
        return self.coefficients[0].shape[0]

    def stacked(self) -> np.ndarray:
        """The (D*L) x D matrix B with predictions = design @ B."""
        return np.vstack([A.T for A in self.coefficients])


def _column_variance(R):
    """Per-column population variance of the residuals R, raising
    DegenerateInputError when it overflows float64."""
    with np.errstate(over="ignore", invalid="ignore"):
        variance = R.var(axis=0)
    if not np.isfinite(variance).all():
        raise DegenerateInputError(
            "residual variance overflows float64; rescale the input or normalize it"
        )
    return variance


def _solve_ridge(X, Y, ridge_lambda, label) -> np.ndarray:
    """B minimizing ||Y - X B||^2 + ridge_lambda ||B||^2.

    With ridge_lambda = 0 a rank-deficient X is refused outright; the
    RankError suggests the fix instead of silently picking one of the
    infinitely many minimizers. A ridge too small to make X^T X + lambda I
    positive definite is a RankError too. A NaN or inf in X or Y, or in
    the products the ridge solve forms from them, is a DegenerateInputError.
    label names X in the messages.
    """
    if not 0 <= ridge_lambda < np.inf:
        raise ValueError(f"ridge_lambda must be finite and >= 0, got {ridge_lambda}")
    for name, arr in ((label, X), ("targets", Y)):
        if not np.isfinite(arr).all():
            raise DegenerateInputError(f"NaN or inf in the {name}")
    n = X.shape[1]
    if ridge_lambda == 0.0:
        # lstsq's rank uses matrix_rank's cutoff, max(X.shape) * eps * s_max,
        # from the one SVD the solve makes anyway
        B, _, rank, _ = np.linalg.lstsq(X, Y, rcond=None)
        if rank < n:
            raise RankError(
                f"{label} has rank {rank} < {n}; use a positive ridge_lambda",
                achievable_rank=int(rank),
            )
        return B
    # finite X and Y whose products overflow are reported here, not as
    # scipy's untyped ValueError
    with np.errstate(over="ignore", invalid="ignore"):
        G = X.T @ X + ridge_lambda * np.eye(n)
        XtY = X.T @ Y
    if not (np.isfinite(G).all() and np.isfinite(XtY).all()):
        raise DegenerateInputError(
            f"the {label}'s normal equations overflow float64; rescale the input or normalize it"
        )
    try:
        return scipy.linalg.solve(G, XtY, assume_a="pos")
    except np.linalg.LinAlgError as err:
        raise RankError(
            f"ridge solve on the {label} failed ({err}); "
            f"use a larger ridge_lambda than {ridge_lambda}"
        ) from err


def fit_var(series, lag: int = 1, ridge_lambda: float = DEFAULT_RIDGE) -> VarModelFit:
    """Least-squares (ridge_lambda > 0: ridge) fit of an interceptless VAR.

    A rank-deficient design at ridge_lambda = 0, or a ridge too small to
    make the solve positive definite, raises RankError; a residual
    variance that overflows raises DegenerateInputError.
    """
    series = np.asarray(series, dtype=float)
    if series.ndim != 2:
        raise ShapeError(f"series must be 2-d, got ndim={series.ndim}")
    T, D = series.shape
    emb = lag_embed(series, lag)
    recommended = lag + D * lag + 1
    if T < recommended:
        warnings.warn(
            f"fitting a VAR({lag}) in {D} dims on {T} samples; "
            f"at least {recommended} are recommended",
            stacklevel=2,
        )
    Z, Y = emb.design, emb.targets
    B = _solve_ridge(Z, Y, ridge_lambda, "design")
    residuals = Y - Z @ B
    coefficients = tuple(B[ell * D : (ell + 1) * D, :].T for ell in range(lag))
    return VarModelFit(
        coefficients=coefficients,
        lag=lag,
        ridge_lambda=float(ridge_lambda),
        residuals=residuals,
        residual_variance=_column_variance(residuals),
    )


def predict(fit: VarModelFit, series) -> np.ndarray:
    """One-step predictions for rows lag..T-1 of ``series``."""
    series = np.asarray(series, dtype=float)
    if series.ndim != 2 or series.shape[1] != fit.n_dims:
        raise ShapeError(
            f"series must be 2-d with {fit.n_dims} columns, got shape {series.shape}"
        )
    emb = lag_embed(series, fit.lag)
    return emb.design @ fit.stacked()


def residual_variance_about(Y, Yhat) -> np.ndarray:
    """Per-column population variance of Y - Yhat about its mean.

    A variance that overflows float64 raises DegenerateInputError.
    """
    Y = np.asarray(Y, dtype=float)
    Yhat = np.asarray(Yhat, dtype=float)
    if Y.shape != Yhat.shape:
        raise ShapeError(f"shape mismatch: {Y.shape} vs {Yhat.shape}")
    if Y.ndim != 2:
        raise ShapeError(f"expected 2-d arrays, got ndim={Y.ndim}")
    if Y.shape[0] < 2:
        raise InsufficientSamplesError(
            "variance needs at least 2 rows"
        )
    return _column_variance(Y - Yhat)
