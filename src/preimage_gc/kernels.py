"""Kernels, the median bandwidth heuristic, and kernel PCA."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dsymv
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigsh
from scipy.spatial.distance import cdist, pdist

from .errors import (
    DegenerateInputError,
    EigensolverError,
    InsufficientSamplesError,
    RankError,
    ShapeError,
)

KERNEL_KINDS = ("rbf", "linear", "polynomial")

# Relative eigenvalue cutoff below which a component is treated as null.
EIGENVALUE_RTOL = 1e-10

# Matrix order from which kernel PCA takes its top eigenpairs from one
# Lanczos run instead of a full dense eigendecomposition: the smallest
# order at which Lanczos was no slower on any panel measured. Median
# times of the two solvers on rbf grams of the synthetic panels, rbf on
# one-dimensional points included (2 cores, scipy 1.17.1, OpenBLAS
# 0.3.30), dense vs Lanczos: M = 200: 3.2-4.5 ms vs 2.9-5.6 ms;
# M = 300: 6.2-10.0 ms vs 4.1-6.3 ms; M = 500: 19-25 ms vs 5.5-7.3 ms;
# M = 1000: 96-127 ms vs 14-19 ms.
LANCZOS_MIN_ORDER = 300
# Pairs in the one Lanczos run for a fractional p_select, and the most
# an integer p_select may ask for (it asks for p_select + 1). The
# synthetic panels keep P = 2-22 at p_select = 0.95; a target that 32
# pairs do not reach goes to the dense path.
LANCZOS_PAIRS = 32
# ARPACK restarts the one run may take. The synthetic panels converge in
# at most 2; a gram whose numerical rank is below LANCZOS_PAIRS (rbf on
# one-dimensional points) needs 10-18 to pin pairs at the rounding-noise
# floor, and gets by on the pairs that have converged by the third.
LANCZOS_RESTARTS = 3


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
        # in place: at T = 1000 each T x T temporary costs about a millisecond;
        # pairwise distances are exactly symmetric, so no symmetrizing either
        K = cdist(X, Z, "sqeuclidean")
        np.divide(K, -2.0 * spec.bandwidth**2, out=K)
        return np.exp(K, out=K)
    if spec.kind == "linear":
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
    if not np.all(np.isfinite(X)):
        raise DegenerateInputError("median bandwidth needs finite points")
    # np.median's selection, partitioning the fresh pdist buffer in place
    # instead of a copy of it
    d = pdist(X)
    k = d.size // 2
    d.partition(k)
    med = float(d[k] if d.size % 2 else np.mean([d[:k].max(), d[k]]))
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


def _dense_top(Kc, p_select):
    """Leading eigenpairs of Kc that p_select asks for, by a full eigh."""
    try:
        # LAPACK syevd, as in np.linalg.eigh, but through scipy's OpenBLAS,
        # which also serves the Lanczos run: numpy's own OpenBLAS threads
        # would compete with scipy's, still spinning after a failed Lanczos
        # attempt, and take 1.7-1.9x as long at M = 500-1000
        evals, evecs = scipy.linalg.eigh(Kc, driver="evd", check_finite=False)
    except np.linalg.LinAlgError as err:
        raise EigensolverError(f"eigendecomposition of the centered gram failed: {err}") from err
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
    return evals[:P], evecs[:, :P]


def _lanczos_top(Kc, p_select):
    """The same eigenpairs as _dense_top from one bounded Lanczos run.

    Returns None, leaving the answer (and any RankError) to the dense
    path, when the request is larger than LANCZOS_PAIRS, when the run's
    pairs do not reach the mass target or include a null component, and
    when ARPACK fails. A run cut off after LANCZOS_RESTARTS answers from
    the pairs that did converge, if they are provably the top ones. A
    fraction's total mass is trace(Kc), the sum of all eigenvalues, so
    the top pairs alone settle the count.
    """
    fraction = isinstance(p_select, (float, np.floating))
    if fraction:
        if p_select == 1.0:
            return None
        k = LANCZOS_PAIRS
    else:
        k = int(p_select) + 1
        if k > LANCZOS_PAIRS:
            return None
    M = Kc.shape[0]
    # Kc is symmetric, so its transpose is itself in Fortran order: dsymv
    # reads it without a copy, and far faster than a threaded gemv.
    upper = Kc.T
    op = LinearOperator((M, M), matvec=lambda v: dsymv(1.0, upper, v), dtype=float)
    # Not a vector of ones: Kc annihilates it.
    v0 = np.random.default_rng(0).standard_normal(M)
    partial = False
    try:
        evals, evecs = eigsh(op, k=k, which="LA", tol=0, v0=v0, maxiter=LANCZOS_RESTARTS)
    except ArpackNoConvergence as err:
        evals, evecs, partial = err.eigenvalues, err.eigenvectors, True
    except ArpackError:
        return None
    order = np.argsort(evals)[::-1]
    evals = np.maximum(evals[order], 0.0)
    evecs = evecs[:, order]

    total = np.trace(Kc)
    if fraction:
        P = int(np.searchsorted(np.cumsum(evals), p_select * total, side="left")) + 1
    else:
        P = int(p_select)
    if P > evals.size or not evals[P - 1] > EIGENVALUE_RTOL * evals[0]:
        return None
    # The converged part of an unfinished run need not be the top of the
    # spectrum. It is when no eigenvalue left out can exceed the smallest
    # kept one: Kc is positive semidefinite, so the mass left out bounds
    # each eigenvalue left out.
    if partial and not evals[P - 1] > total - evals.sum():
        return None
    return evals[:P], evecs[:, :P]


def fit_kernel_pca(spec: KernelSpec, X, p_select) -> KernelPcaModel:
    """Eigendecompose the double-centered gram of X and keep leading axes.

    p_select picks the component count: an int asks for exactly that many
    (RankError when the centered gram cannot support it, carrying the
    achievable rank), a float in (0, 1] asks for the smallest count whose
    eigenvalue mass reaches that fraction of the total.

    Dual coefficient columns are scaled by 1/sqrt(eigenvalue), so the
    implicit feature-space axes have unit norm, and signed so the
    largest-magnitude dual entry is positive. The training points'
    own coordinates are therefore dual_coefficients * eigenvalues.

    From LANCZOS_MIN_ORDER points up, the top eigenpairs come from one
    Lanczos run; below it, and whenever that run cannot answer, from a
    dense eigendecomposition. A failure of the dense solver raises
    EigensolverError.
    """
    X = _as_points(X, "X")
    M = X.shape[0]
    if M < 2:
        raise InsufficientSamplesError("kernel PCA needs at least 2 points")
    _check_p_select(p_select)

    Kc = gram(spec, X, X)
    col_means = Kc.mean(axis=0)
    grand_mean = float(Kc.mean())
    # centered in place, the same operations in the same order as
    # K - col_means[None, :] - col_means[:, None] + grand_mean
    Kc -= col_means[None, :]
    Kc -= col_means[:, None]
    Kc += grand_mean

    pairs = _lanczos_top(Kc, p_select) if M >= LANCZOS_MIN_ORDER else None
    lam, U = pairs if pairs is not None else _dense_top(Kc, p_select)
    A = U / np.sqrt(lam)[None, :]
    for p in range(A.shape[1]):
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
