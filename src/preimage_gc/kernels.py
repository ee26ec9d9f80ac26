"""Kernels, the median bandwidth heuristic, and kernel PCA."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist

from .errors import (
    DegenerateInputError,
    InsufficientSamplesError,
    RankError,
    ShapeError,
)

KERNEL_KINDS = ("rbf", "linear", "polynomial")

# Relative eigenvalue cutoff below which a component is treated as null.
EIGENVALUE_RTOL = 1e-10


@dataclass(frozen=True)
class KernelSpec:
    """Which kernel to evaluate.

    kind        one of "rbf", "linear", "polynomial"
    bandwidth   rbf only: positive length scale in exp(-d^2 / (2 bw^2))
    degree      polynomial only: positive integer exponent
    offset      polynomial only: nonnegative additive constant
    """

    kind: str
    bandwidth: float | None = None
    degree: int = 2
    offset: float = 1.0

    def __post_init__(self):
        if self.kind not in KERNEL_KINDS:
            raise ValueError(
                f"unknown kernel kind {self.kind!r}, expected one of {KERNEL_KINDS}"
            )
        if self.kind == "rbf":
            if self.bandwidth is None or not self.bandwidth > 0:
                raise ValueError("rbf kernel needs a positive bandwidth")
        if self.kind == "polynomial":
            if int(self.degree) != self.degree or self.degree < 1:
                raise ValueError("polynomial degree must be a positive integer")
            if self.offset < 0:
                raise ValueError("polynomial offset must be nonnegative")


def _as_points(X, name):
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ShapeError(f"{name} must be 2-d, got ndim={X.ndim}")
    return X


def gram(spec: KernelSpec, X, Z) -> np.ndarray:
    """Pairwise kernel matrix K[i, j] = k(X[i], Z[j])."""
    same = X is Z
    X = _as_points(X, "X")
    Z = X if same else _as_points(Z, "Z")
    if X.shape[1] != Z.shape[1]:
        raise ShapeError(
            f"point dimensions differ: {X.shape[1]} vs {Z.shape[1]}"
        )
    if spec.kind == "rbf":
        K = np.exp(cdist(X, Z, "sqeuclidean") / (-2.0 * spec.bandwidth**2))
    elif spec.kind == "linear":
        K = X @ Z.T
    else:
        K = (X @ Z.T + spec.offset) ** spec.degree
    if same:
        # gemm output is not exactly symmetric; make it so
        K = 0.5 * (K + K.T)
    return K


def median_bandwidth(X) -> float:
    """Median pairwise euclidean distance, the usual rbf length scale."""
    X = _as_points(X, "X")
    if X.shape[0] < 2:
        raise InsufficientSamplesError(
            "median bandwidth needs at least 2 points"
        )
    med = float(np.median(pdist(X)))
    if med <= 0.0:
        raise DegenerateInputError(
            "median pairwise distance is zero (points coincide)"
        )
    return med


@dataclass(frozen=True)
class KernelPcaModel:
    """Fitted kernel principal axes.

    dual_coefficients has one column per component; projecting the
    centered train/test gram onto it yields the component coordinate.
    eigenvalues are the retained centered-gram eigenvalues, descending.
    col_means / grand_mean are the training gram statistics needed to
    center out-of-sample kernel rows.
    """

    spec: KernelSpec
    training_points: np.ndarray
    dual_coefficients: np.ndarray
    eigenvalues: np.ndarray
    col_means: np.ndarray
    grand_mean: float

    def __post_init__(self):
        for name in ("training_points", "dual_coefficients", "eigenvalues", "col_means"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_components(self):
        return self.dual_coefficients.shape[1]


def _check_p_select(p_select):
    """Accept an int count >= 1 or a float fraction in (0, 1]; else ValueError."""
    if isinstance(p_select, bool) or not isinstance(p_select, (int, np.integer, float, np.floating)):
        raise ValueError(f"p_select must be an int count or float fraction, got {p_select!r}")
    if isinstance(p_select, (float, np.floating)):
        if not 0.0 < p_select <= 1.0:
            raise ValueError(f"fractional p_select must lie in (0, 1], got {p_select}")
    elif p_select < 1:
        raise ValueError(f"integer p_select must be >= 1, got {p_select}")


def fit_kernel_pca(spec: KernelSpec, X, p_select) -> KernelPcaModel:
    """Eigendecompose the double-centered gram of X and keep leading axes.

    p_select picks the component count: an int asks for exactly that many
    (RankError when the centered gram cannot support it, carrying the
    achievable rank), a float in (0, 1] asks for the smallest count whose
    eigenvalue mass reaches that fraction of the total.

    Dual coefficient columns are scaled by 1/sqrt(eigenvalue), so the
    implicit feature-space axes have unit norm, and signed so the
    largest-magnitude dual entry is positive.
    """
    X = _as_points(X, "X")
    M = X.shape[0]
    if M < 2:
        raise InsufficientSamplesError("kernel PCA needs at least 2 points")
    _check_p_select(p_select)

    K = gram(spec, X, X)
    col_means = K.mean(axis=0)
    grand_mean = float(K.mean())
    Kc = K - col_means[None, :] - col_means[:, None] + grand_mean

    evals, evecs = np.linalg.eigh(Kc)
    evals = np.maximum(evals[::-1], 0.0)
    evecs = evecs[:, ::-1]

    top = evals[0] if evals.size else 0.0
    rank = int(np.count_nonzero(evals > EIGENVALUE_RTOL * top)) if top > 0 else 0
    if rank == 0:
        raise RankError(
            "centered gram has rank 0 (all points identical?)",
            achievable_rank=0,
        )

    if isinstance(p_select, (float, np.floating)):
        cum = np.cumsum(evals[:rank])
        P = int(np.searchsorted(cum, p_select * cum[-1], side="left")) + 1
        P = min(P, rank)
    else:
        P = int(p_select)
        if P > rank:
            raise RankError(
                f"requested {P} components but centered gram rank is {rank}",
                achievable_rank=rank,
            )

    lam = evals[:P]
    A = evecs[:, :P] / np.sqrt(lam)[None, :]
    for p in range(P):
        if A[np.argmax(np.abs(A[:, p])), p] < 0:
            A[:, p] = -A[:, p]

    return KernelPcaModel(
        spec=spec,
        training_points=X,
        dual_coefficients=A,
        eigenvalues=lam,
        col_means=col_means,
        grand_mean=grand_mean,
    )


def project(model: KernelPcaModel, X) -> np.ndarray:
    """Coordinates of new points on the fitted axes, training-centered."""
    X = _as_points(X, "X")
    train = model.training_points
    if X.shape[1] != train.shape[1]:
        raise ShapeError(
            f"points have dimension {X.shape[1]}, model was fit on {train.shape[1]}"
        )
    Kt = gram(model.spec, X, train)
    Kt = (
        Kt
        - model.col_means[None, :]
        - Kt.mean(axis=1, keepdims=True)
        + model.grand_mean
    )
    return Kt @ model.dual_coefficients
