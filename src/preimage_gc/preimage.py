"""Learned linear pre-image map from feature coordinates back to inputs."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import _as_matrix, _freeze, _refuse_overflow
from .varm import DEFAULT_RIDGE, _solve_ridge


@dataclass(frozen=True, eq=False)
class PreimageMap:
    """gamma (D x P) maps a feature coordinate row h to the input row gamma @ h.

    training_fit_error is the mean squared reconstruction error over the
    training pairs the map was learned from. The map keeps no ridge penalty.
    """

    gamma: np.ndarray
    training_fit_error: float

    def __post_init__(self):
        _freeze(self, "gamma")


def learn_preimage(Y, H, ridge_lambda: float = DEFAULT_RIDGE) -> PreimageMap:
    """Ridge-regress each input dimension on the feature coordinates.

    Y is T x D (inputs), H is T x P (their feature coordinates), rows
    paired. Minimizes ||Y - H gamma^T||^2 + ridge_lambda ||gamma||^2.
    A training error that overflows float64 raises DegenerateInputError.
    """
    Y = _as_matrix(Y, "Y")
    H = _as_matrix(H, "H")
    if Y.shape[0] != H.shape[0]:
        raise ValueError(
            f"row mismatch: Y has {Y.shape[0]} rows, H has {H.shape[0]}"
        )
    T, P = H.shape
    if T < P:
        warnings.warn(
            f"learning a pre-image from {T} samples in {P} feature dims; "
            "the fit is underdetermined",
            stacklevel=2,
        )
    Gt = _solve_ridge(H, Y, ridge_lambda, "feature matrix")
    with np.errstate(over="ignore", invalid="ignore"):
        residuals = Y - H @ Gt
        np.square(residuals, out=residuals)
        fit_error = float(residuals.mean())
    _refuse_overflow(fit_error, "pre-image training error overflows")
    return PreimageMap(gamma=Gt.T, training_fit_error=fit_error)


def reconstruct(pmap: PreimageMap, H) -> np.ndarray:
    """Map feature-coordinate rows back to input space."""
    H = _as_matrix(H, "H")
    if H.shape[1] != pmap.gamma.shape[1]:
        raise ValueError(f"H must have {pmap.gamma.shape[1]} columns, got {H.shape[1]}")
    return H @ pmap.gamma.T
