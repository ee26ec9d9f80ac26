"""Kernels, the median bandwidth heuristic, and kernel PCA."""

from __future__ import annotations

import ctypes
import functools
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, eigh_tridiagonal
from scipy.linalg.blas import daxpy, ddot, dgemm, dgemv, dnrm2, dscal, dsymv
from scipy.linalg.lapack import dsyevd
from scipy.spatial.distance import pdist, squareform

from .data import _as_matrix, _finite_nonnegative, _freeze, _is_integer, _refuse_overflow
from .errors import (
    DegenerateInputError,
    EigensolverError,
    InsufficientSamplesError,
    RankError,
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
# 96-132 ms. With the leaner step below, both solvers on one thread, 16
# grams (4 generators, 2 seeds, full and one node left out): M = 150:
# 0.87 (Lanczos faster on all 16); M = 100: 1.48 (faster on 10).
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
# DGKS: a second Gram-Schmidt pass when the first left less than this
# share of the vector's norm.
_DGKS = 1.0 / math.sqrt(2.0)

# Order below which a fit's eigensolve, Lanczos run and dense solve
# alike, holds scipy's OpenBLAS pool at one thread. After its last
# threaded call an OpenBLAS worker spins for about 125 ms, a full core
# that slows the single-threaded work after it, and threaded calls on
# small grams stall now and then (20,000 dsymv at M = 200 took 1,183 ms
# threaded, 1,060 of them in 128 stalls, and 121 ms on one thread).
# Below this order the solves also give the same bits whatever thread
# count the process starts with. Measured on 2 cores, scipy 1.17.1,
# OpenBLAS 0.3.30.
#
# One more than the largest T of the sweep grid, so every fit of a
# T <= 500 panel (M = T points) runs on one thread; the method is
# meant for panels that short. A lone infer_graph (nonlinear5, 4
# seeds, median of 12 calls per T over 8 alternating rounds), in ms,
# threaded / on one thread:
#   T = 200: 20.1 / 20.4     T = 600: 50.3 / 61.4
#   T = 300: 25.0 / 25.7     T = 700: 62.8 / 89.4
#   T = 400: 33.1 / 34.8     T = 800: 76.8 / 108.7
#   T = 500: 40.5 / 45.2
# One thread costs 1-5% to T = 400 and 12% at T = 500, where it halves
# the sweep's CPU time; from T = 600 it costs 22% and more.
ONE_THREAD_ORDER = 501

# The pool is process-wide: a solve in another thread must neither run
# on a one-thread fit's count nor restore its own count under that fit.
_eigensolve_lock = threading.RLock()


@functools.cache
def _pool_controls():
    """(get, set) thread-count functions of the OpenBLAS scipy's BLAS
    calls, resolved on the first solve that asks for one thread: a
    scipy-openblas build's or a system OpenBLAS's; None when the library
    exports neither (Accelerate, MKL)."""
    try:
        from scipy.linalg import _fblas

        lib = ctypes.CDLL(_fblas.__file__)
    except (ImportError, OSError):
        return None
    for prefix in ("scipy_openblas", "openblas"):
        get = getattr(lib, prefix + "_get_num_threads", None)
        put = getattr(lib, prefix + "_set_num_threads", None)
        if get is not None and put is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            put.argtypes, put.restype = [ctypes.c_int], None
            return get, put
    return None


@contextmanager
def _eigensolve(one_thread):
    """Run the block as the process's only kernel-PCA eigensolve: every
    fit's solve takes one re-entrant lock, so fits in several threads
    take turns. With one_thread, and if the pool can be set, scipy's
    OpenBLAS pool runs the block on one thread and gets the count found
    on entry back after; otherwise the block runs on the count it finds.

    A process forked while another thread is inside the block inherits
    the lock held; bench spawns its workers, so none of them is forked.
    """
    with _eigensolve_lock:
        pool = _pool_controls() if one_thread else None
        if pool is None:
            yield
            return
        get, put = pool
        threads = get()
        put(1)
        try:
            yield
        finally:
            put(threads)


@dataclass(frozen=True)
class KernelSpec:
    """Which kernel to evaluate.

    kind        one of "rbf", "linear", "polynomial"
    bandwidth   rbf only: positive length scale in exp(-d^2 / (2 bw^2)),
                or None for the median pairwise distance of the points
                fit_kernel_pca is given (the model's spec then carries it)
    degree      polynomial only: integer exponent >= 1 that float64 holds,
                not 2.0, True or 10**400
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
            if not (_is_integer(self.degree) and self.degree >= 1 and _finite_nonnegative(self.degree)):
                raise ValueError(f"polynomial degree must be a positive integer, got {self.degree!r}")
            if not _finite_nonnegative(self.offset):
                raise ValueError(f"polynomial offset must be finite and nonnegative, got {self.offset!r}")


def _usable_bandwidth(bandwidth):
    """Whether the rbf can divide by 2 bandwidth^2: bandwidth is a number
    > 0 that is not a bool, and the divisor, computed as _rbf_gram
    computes it, neither underflows to zero nor overflows."""
    if not _finite_nonnegative(bandwidth):
        return False
    try:
        return 0.0 < 2.0 * float(bandwidth) ** 2 < math.inf
    except OverflowError:  # a Python float's ** raises instead of returning inf
        return False


def _median_distance(d):
    """np.median of the distances whose squares d holds, partitioning d in place.

    The median is taken of the square roots of d's one or two middle
    values: sqrt is monotone, and sqrt of a squared pdist distance equals
    the pdist distance bit for bit. The mean of two is their sum over 2,
    as np.mean computes it.
    """
    k = d.size // 2
    d.partition(k)
    med = math.sqrt(d[k]) if d.size % 2 else (math.sqrt(d[:k].max()) + math.sqrt(d[k])) / 2
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


def _rbf_gram(spec, X):
    """The rbf gram K(X, X) and the spec it used, from one pdist of squared
    distances.

    A spec without a bandwidth takes the median pairwise distance from a
    partitioned copy, equal bit for bit to np.median(pdist(X)). The kernel
    runs on the T(T-1)/2 condensed entries before squareform spreads them,
    and the diagonal is exp(-0) = 1 of the zero self-distances; K equals
    exp(-D / (2 bandwidth^2)) over the T x T squared distances D, divided
    and exponentiated in that order, bit for bit.
    """
    d = pdist(X, "sqeuclidean")
    if spec.bandwidth is None:
        # the copy is freed before squareform, so the peak stays the condensed vector and the gram
        spec = KernelSpec("rbf", bandwidth=_median_distance(d.copy()))
    # in place: at T = 1000 each temporary of this size costs about a
    # millisecond; pairwise distances are exactly symmetric, so no
    # symmetrizing either
    np.divide(d, -2.0 * spec.bandwidth**2, out=d)
    K = squareform(np.exp(d, out=d))
    np.fill_diagonal(K, 1.0)
    return spec, K


@dataclass(frozen=True, eq=False)
class KernelPcaModel:
    """Fitted kernel principal axes of the training points.

    spec is the kernel the fit used, an rbf's bandwidth included.
    dual_coefficients has one column per component, the axis as weights
    on the training points. eigenvalues are the retained centered-gram
    eigenvalues, descending.
    """

    spec: KernelSpec
    dual_coefficients: np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self):
        _freeze(self, "dual_coefficients", "eigenvalues")

    @property
    def n_components(self):
        return self.dual_coefficients.shape[1]

    @property
    def coordinates(self) -> np.ndarray:
        """The training points' coordinates on the axes, Kc @ dual_coefficients
        for their centered gram Kc, without that gram: Kc @ U / sqrt(lam) =
        U sqrt(lam). A fresh array each call, read-only as the fields are."""
        coordinates = self.dual_coefficients * self.eigenvalues
        coordinates.setflags(write=False)
        return coordinates


def _check_p_select(p_select):
    """Accept an integer count >= 1 or a float fraction in (0, 1]; else ValueError."""
    if isinstance(p_select, (float, np.floating)):
        if not 0.0 < p_select <= 1.0:
            raise ValueError(f"fractional p_select must lie in (0, 1], got {p_select}")
    elif not _is_integer(p_select):
        raise ValueError(f"p_select must be an int count or float fraction, got {p_select!r}")
    elif p_select < 1:
        raise ValueError(f"integer p_select must be >= 1, got {p_select}")


def _component_count(values, total, p_select):
    """How many leading values of a descending spectrum p_select asks for:
    an int as given, a fraction the fewest whose cumulative sum reaches
    p_select * total (one more than there are if none does). total None
    is the values' own sum, their last cumulative sum."""
    if not isinstance(p_select, (float, np.floating)):
        return int(p_select)
    cum = values.cumsum()
    target = p_select * (cum[-1] if total is None else total)
    return int(cum.searchsorted(target, side="left")) + 1


def _dense_top(Kc, p_select):
    """Leading eigenpairs of Kc that p_select asks for, by a full eigh.
    A Kc in Fortran order is overwritten; any other is copied into it."""
    # LAPACK syevd, as in np.linalg.eigh, but through scipy's OpenBLAS,
    # which also serves the Lanczos run: numpy's own OpenBLAS threads
    # would compete with scipy's, still spinning after a failed Lanczos
    # attempt, and take 1.7-1.9x as long at M = 500-1000. Called directly,
    # it is scipy.linalg.eigh(Kc, driver="evd") bit for bit without the
    # wrapper's checks (365 against 400 us at M = 50).
    evals, evecs, info = dsyevd(Kc, lower=1, overwrite_a=1)
    if info:
        raise EigensolverError(
            f"eigendecomposition of the centered gram did not converge (LAPACK dsyevd info {info})"
        )
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


def _ritz_settled(theta, S, residual, total, p_select):
    """The top Ritz pairs of a Lanczos tridiagonal, if they settle p_select.

    theta and S are the tridiagonal's eigenvalues, ascending, and
    eigenvectors, and residual is the norm of the next Lanczos vector. A
    Ritz pair has converged by ARPACK's tol=0 test. Returns (values,
    vectors in the Lanczos basis) of the top P pairs when the leading
    converged ones settle the count and the P-th is not null, else None.
    """
    theta, S = theta[::-1], S[:, ::-1]
    converged = residual * np.abs(S[-1]) <= _EPS * np.maximum(_EPS23, np.abs(theta))
    # the leading run of converged pairs; Lanczos finds the top ones first
    c = int(np.argmin(converged)) if not converged.all() else converged.size
    P = _component_count(np.maximum(theta[:c], 0.0), total, p_select)
    if P > c or not theta[P - 1] > EIGENVALUE_RTOL * theta[0]:
        return None
    return theta[:P], S[:, :P]


def _start_vector(M):
    """The unit Lanczos start vector of order M: the same seeded draw for
    every gram of that order. Not a vector of ones: Kc annihilates it."""
    v0 = np.random.default_rng(0).standard_normal(M)
    return dscal(1.0 / dnrm2(v0), v0)


def _lanczos_top(K, col_means, grand_mean, p_select):
    """The eigenpairs _dense_top would take from the centered gram, from a
    Lanczos run on the uncentered gram K that stops as soon as they are
    settled.

    K is never centered: with its column means c and their mean g =
    grand_mean, each step forms Kc q = K q - (c'q - g 1'q) 1 - (1'q) c,
    the centering of kernel PCA (Schoelkopf, Smola and Mueller 1998), and
    K is left as it was. Each step takes the three-term recurrence, then reorthogonalises
    the new vector against every Lanczos vector kept (classical
    Gram-Schmidt), a second time only when the first pass removed more
    than 1 - 1/sqrt(2) of its norm (the DGKS test). Every
    LANCZOS_CHECK_EVERY steps it tests the Ritz pairs: a fraction's total
    mass is trace(Kc) = trace(K) - M g, the sum of all eigenvalues, so
    the top converged pairs alone settle the count. Returns None, leaving
    the answer (and any RankError) to the dense path: before its first
    step for p_select == 1.0, for an integer p_select above its step
    count min(LANCZOS_MAX_STEPS, M), and for a non-finite gram; after
    LANCZOS_MAX_STEPS steps; when the Krylov space becomes invariant
    before the count is settled; and when LAPACK fails on the
    tridiagonal.
    """
    fraction = isinstance(p_select, (float, np.floating))
    M = K.shape[0]
    steps = min(LANCZOS_MAX_STEPS, M)
    # neither can settle: a count needs as many converged pairs, and a run
    # converges at most one per step; a fraction of 1.0 needs the whole spectrum
    if (p_select == 1.0) if fraction else (p_select > steps):
        return None
    total = float(np.trace(K)) - M * grand_mean
    # a non-finite entry reaches grand_mean through its column's mean; a trace can overflow alone
    if not np.isfinite(total):
        return None
    # converged mass is at most the sum of all Ritz values, the trace
    # alpha.sum() of the tridiagonal: while that is short of a fraction's
    # target (less a rounding margin), a test of the Ritz pairs cannot settle
    unreachable = p_select * total * (1.0 - 1e-9) if fraction else -np.inf
    # a residual at the rounding level of one matvec: the Krylov space is invariant
    breakdown = _EPS * np.sqrt(M) * total
    # K is symmetric, so its transpose is itself in Fortran order: dsymv
    # reads it without a copy. Every BLAS call goes to scipy's OpenBLAS.
    upper = K.T
    Q = np.empty((M, steps + 1), order="F")
    alpha = np.empty(steps)
    beta = np.empty(steps)
    Q[:, 0] = _start_vector(M)
    for j in range(steps):
        basis = Q[:, : j + 1]
        q = Q[:, j]
        s = np.add.reduce(q)
        w = dsymv(1.0, upper, q)
        w -= ddot(col_means, q) - grand_mean * s
        w = daxpy(col_means, w, a=-s)
        if j:
            w = daxpy(Q[:, j - 1], w, a=-beta[j - 1])
        alpha[j] = ddot(q, w)
        w = daxpy(q, w, a=-alpha[j])
        norm = dnrm2(w)
        for _ in range(2):
            h = dgemv(1.0, basis, w, trans=1)
            w = dgemv(-1.0, basis, h, beta=1.0, y=w, overwrite_y=1)
            alpha[j] += h[j]
            beta[j] = dnrm2(w)
            if beta[j] >= _DGKS * norm:
                break
            norm = beta[j]
        invariant = not beta[j] > breakdown
        check = (j + 1) % LANCZOS_CHECK_EVERY == 0 or j + 1 == steps
        if invariant or (check and alpha[: j + 1].sum() >= unreachable):
            try:
                theta, S = eigh_tridiagonal(
                    alpha[: j + 1], beta[:j], lapack_driver="stevd", check_finite=False
                )
            except LinAlgError:
                return None
            pairs = _ritz_settled(theta, S, beta[j], total, p_select)
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
    eigendecomposition of the gram centered in place. The eigensolves of
    fits in different threads take turns; below ONE_THREAD_ORDER points
    the whole eigensolve, either solver, holds scipy's OpenBLAS pool at
    one thread. A failure of the dense solver raises EigensolverError; a
    NaN or inf in X, and a linear or polynomial gram that overflows
    float64, DegenerateInputError.

    An rbf spec without a bandwidth takes the median pairwise distance
    of X, np.median(pdist(X)) bit for bit; the model's spec carries the
    bandwidth used.
    """
    X = _as_matrix(X, "X")
    if not np.isfinite(X).all():
        raise DegenerateInputError("X must be finite; it holds NaN or inf")
    M = X.shape[0]
    if M < 2:
        raise InsufficientSamplesError("kernel PCA needs at least 2 points")
    _check_p_select(p_select)

    # an overflowing linear or polynomial gram is refused below, not warned of
    with np.errstate(over="ignore", invalid="ignore"):
        if spec.kind == "rbf":
            spec, K = _rbf_gram(spec, X)
        else:
            K = X @ X.T if spec.kind == "linear" else (X @ X.T + spec.offset) ** spec.degree
            # X @ X.T is not exactly symmetric on every view; halving before the sum
            # keeps entries above half the float64 maximum finite
            K = 0.5 * K + 0.5 * K.T
        # one pass, shared by the Lanczos run and the dense path's centering
        col_means = K.mean(axis=0)
    # X is finite, so a non-finite entry, which reaches its column's mean, is an overflow
    if spec.kind == "polynomial":
        _refuse_overflow(col_means, "the polynomial gram overflows", "lower the degree or offset")
    else:
        _refuse_overflow(col_means, f"the {spec.kind} gram overflows")
    # the mean of the column means, which the Lanczos run needs before any centering
    grand_mean = float(col_means.mean())
    # one hold for both solvers: a dense fallback on two threads made T = 400-500 infers 22-28% slower
    with _eigensolve(M < ONE_THREAD_ORDER):
        pairs = _lanczos_top(K, col_means, grand_mean, p_select) if M >= LANCZOS_MIN_ORDER else None
        if pairs is not None:
            lam, U = pairs
        else:
            # centered in place, the same operations in the same order as
            # K - col_means[None, :] - col_means[:, None] + grand_mean. K is
            # exactly symmetric, so K.T is K in Fortran order, the layout
            # dsyevd works in without a transposing copy
            Kc = K.T
            Kc -= col_means[None, :]
            Kc -= col_means[:, None]
            Kc += grand_mean
            lam, U = _dense_top(Kc, p_select)
    A = U / np.sqrt(lam)[None, :]
    P = A.shape[1]
    A *= np.where(A[np.abs(A).argmax(axis=0), np.arange(P)] < 0, -1.0, 1.0)

    return KernelPcaModel(spec=spec, dual_coefficients=A, eigenvalues=lam)
