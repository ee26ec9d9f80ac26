"""Kernels, the median bandwidth heuristic, and kernel PCA."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.blas import daxpy, ddot, dgemm, dgemv, dnrm2, dscal, dsymv
from scipy.spatial.distance import cdist, pdist, squareform

from .data import _freeze
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

# Matrix order from which kernel PCA takes its top eigenpairs from a
# self-stopping Lanczos run instead of a full dense eigendecomposition:
# the smallest order measured at which Lanczos was faster on every gram,
# with a margin. Worst ratio of the two solvers' median times on one
# gram (Lanczos / dense), over the rbf grams of the synthetic panels
# at p_select = 0.95, full and leave-one-out, 2 seeds (2 cores, scipy
# 1.17.1, OpenBLAS 0.3.30): M = 150: 1.08 (linear5); M = 175: 0.89;
# M = 200: 0.64; M = 250: 0.45. At M = 100 Lanczos lost on linear5 and
# nonlinear5 (up to 2.2 vs 1.4 ms); at M = 1000 it took 1-11 ms against
# 96-132 ms.
LANCZOS_MIN_ORDER = 200
# Most Lanczos steps before the dense path takes over. On those grams at
# M = 200-1000 a run settles p_select = 0.95 within 54 steps (P = 2-22)
# and 0.99 within 96 but for 1 of 138 grams (P = 3-51); 0.999 (P up to
# 54) falls back on 52 of them. A run cut off here costs 7.9 ms against
# 4.6 ms for dense at M = 200, 12 vs 28 ms at M = 500 and 25 vs 141 ms
# at M = 1000.
LANCZOS_MAX_STEPS = 96
# Lanczos steps between two tests of the Ritz pairs. Each test is a
# tridiagonal eigendecomposition of 0.1-0.5 ms; over those grams every
# 6 steps was as fast as every 8 or 12 and faster than every 2 or 4.
LANCZOS_CHECK_EVERY = 6
# ARPACK's tol=0 convergence test: LAPACK's unit roundoff and its 2/3 power.
_EPS = np.finfo(float).eps / 2
_EPS23 = _EPS ** (2.0 / 3.0)


@dataclass(frozen=True)
class KernelSpec:
    """Which kernel to evaluate.

    kind        one of "rbf", "linear", "polynomial"
    bandwidth   rbf only: positive length scale in exp(-d^2 / (2 bw^2)),
                or None for the median pairwise distance of the points
                fit_kernel_pca is given (the model's spec then carries it)
    degree      polynomial only: positive integer exponent
    offset      polynomial only: finite nonnegative additive constant
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
        if self.kind == "rbf" and self.bandwidth is not None and not _usable_bandwidth(self.bandwidth):
            raise ValueError(
                f"rbf bandwidth must be positive with 2 bandwidth^2 a nonzero "
                f"finite float64, got {self.bandwidth!r}"
            )
        if self.kind == "polynomial":
            if int(self.degree) != self.degree or self.degree < 1:
                raise ValueError("polynomial degree must be a positive integer")
            if not 0 <= self.offset < math.inf:
                raise ValueError(f"polynomial offset must be finite and nonnegative, got {self.offset!r}")


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
        if spec.bandwidth is None:
            raise ValueError("gram needs an rbf bandwidth; fit_kernel_pca takes the median")
        return _rbf_of_squared(cdist(X, Z, "sqeuclidean"), spec.bandwidth)
    if spec.kind == "linear":
        K = X @ Z.T
    else:
        K = (X @ Z.T + spec.offset) ** spec.degree
    if same:
        # gemm output is not exactly symmetric; make it so
        K = 0.5 * (K + K.T)
    return K


def _usable_bandwidth(bandwidth):
    """Whether the rbf can divide by 2 bandwidth^2: bandwidth > 0 and the
    divisor, computed as _rbf_of_squared computes it, neither underflows
    to zero nor overflows."""
    if not bandwidth > 0:
        return False
    try:
        return 0.0 < 2.0 * float(bandwidth) ** 2 < math.inf
    except OverflowError:  # a Python float's ** raises instead of returning inf
        return False


def _rbf_of_squared(D, bandwidth):
    """exp(-D / (2 bandwidth^2)) over squared distances D, in place.

    In place: at T = 1000 each T x T temporary costs about a millisecond;
    pairwise distances are exactly symmetric, so no symmetrizing either.
    """
    np.divide(D, -2.0 * bandwidth**2, out=D)
    return np.exp(D, out=D)


def _bandwidth_points(X):
    X = _as_points(X, "X")
    if X.shape[0] < 2:
        raise InsufficientSamplesError(
            "median bandwidth needs at least 2 points"
        )
    if not np.all(np.isfinite(X)):
        raise DegenerateInputError("median bandwidth needs finite points")
    return X


def _median_distance(d):
    """np.median of the distances whose squares d holds, partitioning d in place.

    The median is taken of the square roots of d's one or two middle
    values: sqrt is monotone, and sqrt of a squared pdist distance equals
    the pdist distance bit for bit.
    """
    k = d.size // 2
    d.partition(k)
    middle = np.sqrt([d[k]] if d.size % 2 else [d[:k].max(), d[k]])
    med = float(np.mean(middle))
    if med <= 0.0:
        raise DegenerateInputError(
            "median pairwise distance is zero (points coincide)"
        )
    if not _usable_bandwidth(med):
        raise DegenerateInputError(
            f"pairwise distances {'overflow' if med > 1.0 else 'underflow'} float64 "
            f"(median {med!r}, squared for the rbf); rescale the input or normalize it"
        )
    return med


def median_bandwidth(X) -> float:
    """Median pairwise euclidean distance, the usual rbf length scale."""
    return _median_distance(pdist(_bandwidth_points(X), "sqeuclidean"))


def _rbf_gram(spec, X):
    """The rbf gram K(X, X) and the spec it used, from one pdist of squared
    distances.

    A spec without a bandwidth takes the median pairwise distance from a
    partitioned copy, equal bit for bit to median_bandwidth(X). The kernel
    runs on the T(T-1)/2 condensed entries before squareform spreads them,
    and the diagonal is exp(-0) = 1 of the zero self-distances; K equals
    gram(spec, X, X) bit for bit.
    """
    if spec.bandwidth is None:
        d = pdist(_bandwidth_points(X), "sqeuclidean")
        # the copy is freed before squareform, so the peak stays the condensed vector and the gram
        spec = KernelSpec("rbf", bandwidth=_median_distance(d.copy()))
    else:
        d = pdist(X, "sqeuclidean")
    K = squareform(_rbf_of_squared(d, spec.bandwidth))
    np.fill_diagonal(K, 1.0)
    return spec, K


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
        _freeze(self, "training_points", "dual_coefficients", "eigenvalues", "col_means")

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


def _component_count(values, total, p_select):
    """How many leading values of a descending spectrum p_select asks for:
    an int as given, a fraction the fewest whose cumulative sum reaches
    p_select * total (one more than there are if none does). total None
    is the values' own sum, their last cumulative sum."""
    if not isinstance(p_select, (float, np.floating)):
        return int(p_select)
    cum = np.cumsum(values)
    target = p_select * (cum[-1] if total is None else total)
    return int(np.searchsorted(cum, target, side="left")) + 1


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

    rank = int(np.count_nonzero(evals > EIGENVALUE_RTOL * evals[0]))
    if rank == 0:
        raise RankError(
            "centered gram has rank 0 (all points identical?)",
            achievable_rank=0,
        )
    # the mass above the cutoff; _ritz_settled, short of the tail, takes trace(Kc)
    P = _component_count(evals[:rank], None, p_select)
    if P > rank:
        raise RankError(
            f"requested {P} components but centered gram rank is {rank}",
            achievable_rank=rank,
        )
    return evals[:P], evecs[:, :P]


def _ritz_settled(alpha, beta, residual, total, p_select):
    """The top Ritz pairs of a Lanczos tridiagonal, if they settle p_select.

    alpha and beta are the tridiagonal's diagonal and off-diagonal, and
    residual is the norm of the next Lanczos vector. A Ritz pair has
    converged by ARPACK's tol=0 test. Returns (values, vectors in the
    Lanczos basis) of the top P pairs when the leading converged ones
    settle the count and the P-th is not null, else None.
    """
    theta, S = scipy.linalg.eigh_tridiagonal(alpha, beta, check_finite=False)
    theta, S = theta[::-1], S[:, ::-1]
    converged = residual * np.abs(S[-1]) <= _EPS * np.maximum(_EPS23, np.abs(theta))
    # the leading run of converged pairs; Lanczos finds the top ones first
    c = int(np.argmin(converged)) if not converged.all() else converged.size
    P = _component_count(np.maximum(theta[:c], 0.0), total, p_select)
    if P > c or not theta[P - 1] > EIGENVALUE_RTOL * theta[0]:
        return None
    return theta[:P], S[:, :P]


def _lanczos_top(K, col_means, p_select):
    """The eigenpairs _dense_top would take from the centered gram, from a
    Lanczos run on the uncentered gram K that stops as soon as they are
    settled.

    K is never centered: with its column means c and g = mean(c), each
    step forms Kc q = K q - (c'q - g 1'q) 1 - (1'q) c, the centering of
    kernel PCA (Schoelkopf, Smola and Mueller 1998), and K is left as it
    was. The run keeps every Lanczos vector and reorthogonalises each new
    one against all of them (classical Gram-Schmidt, twice). Every
    LANCZOS_CHECK_EVERY steps it tests the Ritz pairs: a fraction's total
    mass is trace(Kc) = trace(K) - M g, the sum of all eigenvalues, so
    the top converged pairs alone settle the count. Returns None, leaving
    the answer (and any RankError) to the dense path, for p_select ==
    1.0, for a non-finite gram, after LANCZOS_MAX_STEPS steps, and when
    the Krylov space becomes invariant before the count is settled.
    """
    fraction = isinstance(p_select, (float, np.floating))
    if fraction and p_select == 1.0:
        return None
    M = K.shape[0]
    g = float(np.mean(col_means))
    total = float(np.trace(K)) - M * g
    # a non-finite entry reaches g through its column's mean
    if not np.isfinite(total):
        return None
    # converged mass is at most the sum of all Ritz values, the trace
    # alpha.sum() of the tridiagonal: while that is short of a fraction's
    # target (less a rounding margin), a test of the Ritz pairs cannot settle
    unreachable = p_select * total * (1.0 - 1e-9) if fraction else -np.inf
    steps = min(LANCZOS_MAX_STEPS, M)
    # a residual at the rounding level of one matvec: the Krylov space is invariant
    breakdown = _EPS * np.sqrt(M) * total
    # K is symmetric, so its transpose is itself in Fortran order: dsymv
    # reads it without a copy. Every BLAS call goes to scipy's OpenBLAS.
    upper = K.T
    Q = np.empty((M, steps + 1), order="F")
    alpha = np.empty(steps)
    beta = np.empty(steps)
    # Not a vector of ones: Kc annihilates it.
    v0 = np.random.default_rng(0).standard_normal(M)
    Q[:, 0] = dscal(1.0 / dnrm2(v0), v0)
    for j in range(steps):
        basis = Q[:, : j + 1]
        q = Q[:, j]
        s = q.sum()
        w = dsymv(1.0, upper, q)
        w -= ddot(col_means, q) - g * s
        w = daxpy(col_means, w, a=-s)
        h = dgemv(1.0, basis, w, trans=1)
        w = dgemv(-1.0, basis, h, beta=1.0, y=w, overwrite_y=1)
        h2 = dgemv(1.0, basis, w, trans=1)
        w = dgemv(-1.0, basis, h2, beta=1.0, y=w, overwrite_y=1)
        alpha[j] = h[j] + h2[j]
        beta[j] = dnrm2(w)
        invariant = not beta[j] > breakdown
        check = (j + 1) % LANCZOS_CHECK_EVERY == 0 or j + 1 == steps
        if invariant or (check and alpha[: j + 1].sum() >= unreachable):
            pairs = _ritz_settled(alpha[: j + 1], beta[:j], beta[j], total, p_select)
            if pairs is not None:
                theta, S = pairs
                return theta, dgemm(1.0, basis, S)
            if invariant:
                return None
        Q[:, j + 1] = dscal(1.0 / beta[j], w)
    return None


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

    From LANCZOS_MIN_ORDER points up, the top eigenpairs come from a
    Lanczos run on the uncentered gram that stops once they are settled;
    below it, and whenever that run cannot answer, from a dense
    eigendecomposition of the gram centered in place. A failure of the
    dense solver raises EigensolverError, and a linear or polynomial gram
    that overflows float64 DegenerateInputError.

    An rbf spec without a bandwidth takes the median pairwise distance
    of X; the model's spec carries the bandwidth used, so project needs
    no other.
    """
    X = _as_points(X, "X")
    M = X.shape[0]
    if M < 2:
        raise InsufficientSamplesError("kernel PCA needs at least 2 points")
    _check_p_select(p_select)

    # an overflowing linear or polynomial gram is refused below, not warned of
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.kind == "rbf":
            spec, K = _rbf_gram(spec, X)
        else:
            K = gram(spec, X, X)
        # one pass, shared by the Lanczos run and the dense path's centering
        col_means = K.mean(axis=0)
    # a non-finite entry reaches its column's mean
    if not np.isfinite(col_means).all():
        fix = "lower the degree or offset" if spec.kind == "polynomial" else "rescale the input or normalize it"
        raise DegenerateInputError(f"the {spec.kind} gram overflows float64; {fix}")
    pairs = _lanczos_top(K, col_means, p_select) if M >= LANCZOS_MIN_ORDER else None
    if pairs is not None:
        grand_mean = float(np.mean(col_means))
        lam, U = pairs
    else:
        grand_mean = float(K.mean())
        # centered in place, the same operations in the same order as
        # K - col_means[None, :] - col_means[:, None] + grand_mean
        K -= col_means[None, :]
        K -= col_means[:, None]
        K += grand_mean
        lam, U = _dense_top(K, p_select)
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
