"""Vector autoregression on (feature) coordinates, with optional ridge."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgWarning
from scipy.linalg.lapack import dlange, dpocon, dpotrf, dpotrs

from .errors import DegenerateInputError, EigensolverError, InsufficientSamplesError, RankError
from .data import _as_matrix, _check_lag, _column_moments, _finite_nonnegative, _freeze, _frozen_array, _refuse_overflow

# The ridge penalty of both solves, fit_var's and learn_preimage's, unless
# the caller or the PipelineConfig picks another.
DEFAULT_RIDGE = 1e-3

# scipy.linalg.solve warns of a system whose reciprocal condition number
# is below this, and so does the ridge solve
_RCOND_FLOOR = np.finfo(float).eps


@dataclass(frozen=True, eq=False)
class VarModelFit:
    """Interceptless VAR(L) fit.

    coefficients[ell - 1] is the D x D matrix A_ell in
    y_t = sum_ell A_ell y_{t-ell} + e_t, acting on column vectors; the
    lag L is len(coefficients), and the fit keeps no ridge penalty.
    fitted holds the in-sample one-step predictions of rows lag..T-1 of
    the series, and residual_variance the per-column population variance
    of those rows minus fitted.
    """

    coefficients: tuple
    fitted: np.ndarray
    residual_variance: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "coefficients", tuple(_frozen_array(A) for A in self.coefficients)
        )
        _freeze(self, "fitted", "residual_variance")


def _column_variance(R):
    """Per-column population variance of the residuals R, raising
    DegenerateInputError when it overflows float64."""
    with np.errstate(over="ignore", invalid="ignore"):
        _, variance = _column_moments(R)
    _refuse_overflow(variance, "residual variance overflows")
    return variance


def _solve_ridge(X, Y, ridge_lambda, label) -> np.ndarray:
    """B minimizing ||Y - X B||^2 + ridge_lambda ||B||^2.

    With ridge_lambda = 0 a rank-deficient X is refused outright; the
    RankError suggests the fix instead of silently picking one of the
    infinitely many minimizers. A ridge too small to make X^T X + lambda I
    positive definite is a RankError too, and one that leaves it too
    ill-conditioned to trust warns with scipy's LinAlgWarning. A NaN or
    inf in X or Y, or in the products the ridge solve forms from them, is
    a DegenerateInputError, and a least-squares SVD that does not
    converge an EigensolverError. label names X in the messages.
    """
    if not _finite_nonnegative(ridge_lambda):
        raise ValueError(f"ridge_lambda must be finite and >= 0, got {ridge_lambda!r}")
    for name, arr in ((label, X), ("targets", Y)):
        if not np.isfinite(arr).all():
            raise DegenerateInputError(f"NaN or inf in the {name}")
    n = X.shape[1]
    if ridge_lambda == 0.0:
        # lstsq's rank uses matrix_rank's cutoff, max(X.shape) * eps * s_max,
        # from the one SVD the solve makes anyway
        try:
            B, _, rank, _ = np.linalg.lstsq(X, Y, rcond=None)
        except np.linalg.LinAlgError as err:
            raise EigensolverError(f"least-squares solve on the {label} failed ({err})") from err
        if rank < n:
            raise RankError(
                f"{label} has rank {rank} < {n}; use a positive ridge_lambda",
                achievable_rank=int(rank),
            )
        return B
    # finite X and Y whose products overflow are reported here; LAPACK
    # would factor them into NaNs
    with np.errstate(over="ignore", invalid="ignore"):
        G = X.T @ X + ridge_lambda * np.eye(n)
        XtY = X.T @ Y
    for product in (G, XtY):
        _refuse_overflow(product, f"the {label}'s normal equations overflow")
    if n == 1:
        # as scipy.linalg.solve(G, XtY, assume_a="pos") does; G >= ridge_lambda > 0
        return XtY / G[0, 0]
    # the LAPACK calls scipy.linalg.solve(G, XtY, assume_a="pos") makes,
    # in its upper-triangle form, without the wrapper's 25-30 us a call at
    # n = 3-5 (2 cores, scipy 1.17.1): the same bits, returned in C order
    c, info = dpotrf(G, lower=0)
    if info == 0:
        B, info = dpotrs(c, XtY, lower=0)
    if info:
        raise RankError(
            f"ridge solve on the {label} failed (LAPACK dpotrf/dpotrs info {info}: "
            f"not positive definite); use a larger ridge_lambda than {ridge_lambda}"
        )
    # scipy's condition estimate, from the factor it already has
    rcond, _ = dpocon(c, dlange("1", G))
    if rcond < _RCOND_FLOOR:
        warnings.warn(f"ill-conditioned ridge solve on the {label} (rcond = {rcond})", LinAlgWarning, stacklevel=3)
    return np.ascontiguousarray(B)


def fit_var(series, lag: int = 1, ridge_lambda: float = DEFAULT_RIDGE) -> VarModelFit:
    """Least-squares (ridge_lambda > 0: ridge) fit of an interceptless VAR.

    Row t of the design is [y_{L+t-1}, y_{L+t-2}, ..., y_{L+t-L}], the
    lag-1 block first, each block in column order, and its target is
    y_{L+t}. Design and targets are C-ordered copies whatever the series'
    layout, so a fit's bits do not depend on it. A series with no more
    than lag rows raises InsufficientSamplesError. A rank-deficient
    design at ridge_lambda = 0, or a ridge too small to make the solve
    positive definite, raises RankError; a residual variance that
    overflows raises DegenerateInputError.
    """
    series = _as_matrix(series, "series")
    _check_lag(lag)
    T, D = series.shape
    if T <= lag:
        raise InsufficientSamplesError(f"need more than lag={lag} rows to embed, got {T}")
    recommended = lag + D * lag + 1
    if T < recommended:
        warnings.warn(
            f"fitting a VAR({lag}) in {D} dims on {T} samples; "
            f"at least {recommended} are recommended",
            stacklevel=2,
        )
    # C-order copies: the layout picks the solve's BLAS path and so its last bits
    Z = np.empty((T - lag, D * lag))
    for ell in range(1, lag + 1):
        Z[:, (ell - 1) * D : ell * D] = series[lag - ell : T - ell]
    Y = np.array(series[lag:], order="C")
    B = _solve_ridge(Z, Y, ridge_lambda, "design")
    fitted = Z @ B
    coefficients = tuple(B[ell * D : (ell + 1) * D, :].T for ell in range(lag))
    return VarModelFit(
        coefficients=coefficients,
        fitted=fitted,
        residual_variance=_column_variance(Y - fitted),
    )
