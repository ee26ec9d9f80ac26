"""Kernel evaluation, the median bandwidth rule, and kernel PCA against oracles."""

import os
import re
import subprocess
import sys
import threading
import time
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg.blas import dnrm2, dscal
from scipy.spatial.distance import cdist, pdist

import preimage_gc
import preimage_gc.kernels as kernels_module
from preimage_gc import (
    KernelSpec,
    PipelineConfig,
    fit_kernel_pca,
    infer_graph,
    normalize_columns,
)
from preimage_gc.errors import DegenerateInputError, InsufficientSamplesError, RankError
from preimage_gc.kernels import EIGENVALUE_RTOL, LANCZOS_MIN_ORDER
from preimage_gc.synthgen import GENERATOR_IDS, generate
from whole_numbers import NOT_WHOLE


def classical_pca_scores(X):
    """Reference: centered SVD scores, the textbook PCA coordinates."""
    Xc = X - X.mean(axis=0)
    U, S, _ = np.linalg.svd(Xc, full_matrices=False)
    return U * S


def median_distance(X):
    """Reference: the median rule for an rbf bandwidth, numpy's median of
    scipy's pairwise distances."""
    return float(np.median(pdist(X)))


def fitted_bandwidth(X):
    """The bandwidth fit_kernel_pca takes for an rbf spec without one."""
    return fit_kernel_pca(KernelSpec("rbf"), X, 1).spec.bandwidth


def reference_gram(spec, X, Z):
    """Reference: the pairwise kernel matrix K[i, j] = k(X[i], Z[j]). The
    rbf divides and exponentiates cdist's squared distances in place; for
    X is Z the linear and polynomial grams are symmetrized, since gemm
    output is not exactly symmetric."""
    if spec.kind == "rbf":
        D = cdist(X, Z, "sqeuclidean")
        np.divide(D, -2.0 * spec.bandwidth**2, out=D)
        return np.exp(D, out=D)
    K = X @ Z.T if spec.kind == "linear" else (X @ Z.T + spec.offset) ** spec.degree
    return 0.5 * (K + K.T) if X is Z else K


def built_gram(monkeypatch, spec, X):
    """The fit of X and the uncentered gram it built: every order takes the
    Lanczos branch, whose stand-in keeps a copy of the gram and leaves the
    answer to the dense path."""
    seen = []

    def keep(K, *args):
        seen.append(K.copy())

    with monkeypatch.context() as patch:
        patch.setattr(kernels_module, "LANCZOS_MIN_ORDER", 0)
        patch.setattr(kernels_module, "_lanczos_top", keep)
        model = fit_kernel_pca(spec, X, 1)
    [K] = seen
    return model, K


class TestKernelSpec:
    def test_rbf_needs_bandwidth(self):
        # a spec without one is the median rule of fit_kernel_pca
        assert KernelSpec(kind="rbf").bandwidth is None

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            KernelSpec(kind="sigmoid")

    # inf used to raise a raw OverflowError, nan and None errors that did
    # not name the degree, True was taken for 1, and 2.0 passed although
    # lag and the CLI's degree refuse it; 10**400 raised a raw
    # OverflowError from fit_kernel_pca
    @pytest.mark.parametrize("degree", [0, 1.5, *NOT_WHOLE, pytest.param(10**400, id="10**400")])
    def test_rejects_bad_degree(self, degree):
        message = f"polynomial degree must be a positive integer, got {degree!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            KernelSpec(kind="polynomial", degree=degree)

    @pytest.mark.parametrize("degree", [2, np.int64(2)])
    def test_accepts_whole_degree(self, degree):
        assert KernelSpec(kind="polynomial", degree=degree).degree == degree

    @pytest.mark.parametrize("offset", [-1.0, np.nan, np.inf, pytest.param(10**400, id="10**400"), None, "1", True, np.bool_(True)])
    def test_rejects_offset_that_is_negative_or_not_finite(self, offset):
        # nan and inf used to end in "[pca] centered gram has rank 0";
        # None and "1" raised an untyped TypeError, and True passed as 1
        with pytest.raises(ValueError, match="offset.*got " + re.escape(repr(offset))):
            KernelSpec("polynomial", offset=offset)


    @pytest.mark.parametrize(
        "bandwidth",
        [0.0, -1.0, np.nan, np.inf, 1e154, 1e155, 1e-200, np.float64(1e200), "1", [1.0], True, np.bool_(True)],
    )
    def test_rejects_bandwidth_the_rbf_cannot_divide_by(self, bandwidth):
        # 1e155 used to raise OverflowError in the rbf, and 1e154 and
        # 1e-200 to end in "[pca] centered gram has rank 0"; "1" and [1.0]
        # raised an untyped TypeError, and True passed as 1
        with pytest.raises(ValueError, match="bandwidth.*got " + re.escape(repr(bandwidth))):
            KernelSpec("rbf", bandwidth=bandwidth)

    @pytest.mark.parametrize("bandwidth", [1e153, 1e-150, np.float64(1e153), 2])
    def test_accepted_bandwidth_divides_to_a_finite_gram(self, bandwidth):
        spec = KernelSpec("rbf", bandwidth=bandwidth)
        _, K = kernels_module._rbf_gram(spec, np.array([[0.0], [1.0]]))
        assert np.all(np.isfinite(K)) and np.all(np.diag(K) == 1.0)


class TestGram:
    """The gram each fit builds: the rbf from one pdist, the linear and
    polynomial ones from one gemm, symmetrized."""

    SPECS = (KernelSpec("linear"), KernelSpec("polynomial", degree=3), KernelSpec("rbf", bandwidth=2.0))

    def test_linear_hand_example(self, monkeypatch):
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        _, K = built_gram(monkeypatch, KernelSpec("linear"), X)
        np.testing.assert_array_equal(K, [[5.0, 11.0], [11.0, 25.0]])

    def test_polynomial_hand_example(self, monkeypatch):
        # (<x, z> + 1)^2 with <x, z> = 1, 1 and 2
        X = np.array([[1.0, 0.0], [1.0, 1.0]])
        _, K = built_gram(monkeypatch, KernelSpec("polynomial", degree=2, offset=1.0), X)
        np.testing.assert_array_equal(K, [[4.0, 4.0], [4.0, 9.0]])

    def test_rbf_diagonal_is_one(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(15, 3))
        _, K = kernels_module._rbf_gram(KernelSpec("rbf", bandwidth=1.3), X)
        np.testing.assert_array_equal(np.diag(K), np.ones(15))

    def test_rbf_matches_direct_formula(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(6, 2))
        bw = 0.9
        _, K = kernels_module._rbf_gram(KernelSpec("rbf", bandwidth=bw), X)
        for i in range(6):
            for j in range(6):
                d2 = np.sum((X[i] - X[j]) ** 2)
                assert K[i, j] == pytest.approx(np.exp(-d2 / (2 * bw**2)), rel=1e-12)

    def test_symmetric_on_same_points(self, monkeypatch):
        # a column-strided view: numpy's X @ X.T on it is not exactly
        # symmetric at this size (it is on contiguous points)
        X = np.random.default_rng(2).normal(size=(300, 6))[:, ::2]
        for spec in self.SPECS:
            _, K = built_gram(monkeypatch, spec, X)
            assert np.abs(K - K.T).max() == 0.0

    @pytest.mark.parametrize("spec", SPECS + (KernelSpec("rbf"),), ids=["linear", "polynomial", "rbf", "rbf-median"])
    def test_fit_builds_the_reference_gram(self, monkeypatch, spec):
        X = np.random.default_rng(2).normal(size=(20, 4))
        model, K = built_gram(monkeypatch, spec, X)
        assert np.array_equal(K, reference_gram(model.spec, X, X))

    def test_positive_semidefinite(self, monkeypatch):
        X = np.random.default_rng(3).normal(size=(25, 3))
        for spec in (KernelSpec("linear"), KernelSpec("polynomial", degree=2), KernelSpec("rbf", bandwidth=1.0)):
            _, K = built_gram(monkeypatch, spec, X)
            evals = np.linalg.eigvalsh(K)
            assert evals.min() >= -1e-8 * max(evals.max(), 1.0)


class TestMedianBandwidth:
    """The bandwidth an rbf spec without one takes: the median pairwise
    distance of the points, which the fit's spec carries."""

    def test_two_points(self):
        assert fitted_bandwidth(np.array([[0.0], [1.0]])) == 1.0

    def test_three_points(self):
        # pairwise distances {1, 3, 2}, median 2
        assert fitted_bandwidth(np.array([[0.0], [1.0], [3.0]])) == 2.0

    def test_identical_points_degenerate(self):
        with pytest.raises(DegenerateInputError, match="median pairwise distance is zero"):
            fitted_bandwidth(np.ones((5, 2)))
        with pytest.raises(DegenerateInputError, match="median pairwise distance is zero"):
            kernels_module._rbf_gram(KernelSpec("rbf"), np.ones((5, 2)))

    def test_equals_numpy_median_of_pdist(self):
        rng = np.random.default_rng(8)
        # 2..9 points give pair counts 1, 3, 6, 10, 15, 21, 28, 36: odd and even
        for n in [2, 3, 4, 5, 6, 7, 8, 9, 40, 101]:
            for dim in (1, 3):
                X = rng.normal(size=(n, dim))
                assert fitted_bandwidth(X) == median_distance(X)

    @pytest.mark.parametrize("n", [6, 8, 201, 203])
    def test_one_pdist_gram_equals_bandwidth_and_gram(self, n):
        # n = 6, 203 give odd pair counts, n = 8, 201 even ones
        X = np.random.default_rng(n).normal(size=(n, 3))
        spec, K = kernels_module._rbf_gram(KernelSpec("rbf"), X)
        assert spec == KernelSpec("rbf", bandwidth=median_distance(X))
        assert np.array_equal(K, reference_gram(spec, X, X))
        given = KernelSpec("rbf", bandwidth=1.3)
        spec, K = kernels_module._rbf_gram(given, X)
        assert spec is given
        assert np.array_equal(K, reference_gram(given, X, X))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_points_rejected(self, bad):
        X = np.random.default_rng(9).normal(size=(12, 2))
        X[3, 1] = bad
        with pytest.raises(DegenerateInputError, match="finite"):
            fitted_bandwidth(X)

    @pytest.mark.parametrize("scale", [1e155, 1e200])
    def test_overflowing_distances_rejected(self, scale):
        # an infinite median used to pass as a bandwidth and make a NaN gram
        X = np.random.default_rng(10).normal(size=(12, 2)) * scale
        with pytest.raises(DegenerateInputError, match="overflow"):
            fitted_bandwidth(X)
        with pytest.raises(DegenerateInputError, match="overflow"):
            kernels_module._rbf_gram(KernelSpec("rbf"), X)

    def test_square_overflowing_finite_median_rejected(self):
        # distances near 1e155 are finite, their squares are not
        X = np.array([[0.0], [1e155], [3e155]])
        with pytest.raises(DegenerateInputError, match="overflow"):
            fitted_bandwidth(X)

    def test_median_is_a_bandwidth_the_spec_accepts(self):
        # the smallest and largest scales whose median survives the check
        for scale in (1e-150, 1e150):
            X = np.random.default_rng(11).normal(size=(12, 2)) * scale
            assert KernelSpec("rbf", bandwidth=fitted_bandwidth(X)).bandwidth > 0


class TestFitKernelPca:
    @pytest.mark.parametrize("M", [50, LANCZOS_MIN_ORDER + 50])
    def test_rbf_without_bandwidth_fits_with_the_median(self, M):
        # both sides of the Lanczos crossover; the model's spec carries the
        # bandwidth, so its coordinates are those of the centered gram it gives
        X = np.random.default_rng(M).normal(size=(M, 3))
        model = fit_kernel_pca(KernelSpec("rbf"), X, 0.95)
        given = fit_kernel_pca(KernelSpec("rbf", bandwidth=median_distance(X)), X, 0.95)
        assert model.spec == given.spec
        for field in ("dual_coefficients", "eigenvalues"):
            assert np.array_equal(getattr(model, field), getattr(given, field)), field
        np.testing.assert_allclose(
            centered_gram(model.spec, X) @ model.dual_coefficients, model.coordinates, atol=1e-10
        )

    def test_linear_kernel_matches_classical_pca(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(30, 5))
        ref = classical_pca_scores(X)
        model = fit_kernel_pca(KernelSpec("linear"), X, 5)
        H = model.coordinates
        for p in range(5):
            col, want = H[:, p], ref[:, p]
            if np.dot(col, want) < 0:
                want = -want
            np.testing.assert_allclose(col, want, rtol=1e-8, atol=1e-8)

    def test_eigenvalues_descending_nonnegative(self):
        rng = np.random.default_rng(5)
        model = fit_kernel_pca(
            KernelSpec("rbf", bandwidth=1.5), rng.normal(size=(40, 3)), 1.0
        )
        lam = model.eigenvalues
        assert np.all(lam > 0)
        assert np.all(np.diff(lam) <= 0)

    def test_cumulative_mass_nondecreasing(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(25, 4))
        spec = KernelSpec("rbf", bandwidth=2.0)
        full = fit_kernel_pca(spec, X, 1.0)
        masses = np.cumsum(full.eigenvalues)
        assert np.all(np.diff(masses) >= 0)

    def test_fraction_selects_smallest_sufficient_count(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(30, 4))
        spec = KernelSpec("linear")
        full = fit_kernel_pca(spec, X, 1.0)
        mass = np.cumsum(full.eigenvalues)
        # aim strictly between the 1- and 2-component masses
        frac = float((mass[0] + mass[1]) / (2.0 * mass[-1]))
        model = fit_kernel_pca(spec, X, frac)
        assert model.n_components == 2

    def test_fraction_one_keeps_full_rank(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(20, 3))
        model = fit_kernel_pca(KernelSpec("linear"), X, 1.0)
        assert model.n_components == np.linalg.matrix_rank(centered_gram(KernelSpec("linear"), X))

    def test_overrequest_reports_achievable_rank(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(20, 3))  # linear-kernel rank is at most 3
        with pytest.raises(RankError) as exc:
            fit_kernel_pca(KernelSpec("linear"), X, 10)
        assert exc.value.achievable_rank == 3

    def test_identical_points_have_rank_zero(self):
        X = np.ones((6, 2))
        with pytest.raises(RankError) as exc:
            fit_kernel_pca(KernelSpec("rbf", bandwidth=1.0), X, 1)
        assert exc.value.achievable_rank == 0

    @pytest.mark.parametrize("spec, scale", [
        (KernelSpec("polynomial", offset=1e200), 1.0),
        (KernelSpec("polynomial", degree=400), 1.0),
        (KernelSpec("linear"), 1e200),
        # a spec that fits unit-scale points overflows on large ones
        (KernelSpec("polynomial", degree=3), 1e120),
        (KernelSpec("polynomial", degree=2, offset=0.0), 1e200),
    ])
    def test_overflowing_gram_is_degenerate_input_without_warnings(self, spec, scale):
        # these used to warn and end in "centered gram has rank 0"
        X = scale * np.random.default_rng(12).normal(size=(30, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateInputError, match=f"the {spec.kind} gram overflows float64"):
                fit_kernel_pca(spec, X, 0.95)

    @pytest.mark.parametrize("spec, big", [
        (KernelSpec("linear"), 1.2e154),
        (KernelSpec("polynomial", offset=0.0), 1.1e77),
    ])
    @pytest.mark.parametrize("p_select", [1, 0.95])
    def test_gram_entry_above_half_the_float64_maximum_fits(self, spec, big, p_select):
        # the symmetrizing step used to overflow in K + K.T and refuse this
        # finite gram (largest entry about 1.4e308) as overflowing
        X = np.random.default_rng(0).normal(size=(30, 2))
        X[0] = [big, 0.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit_kernel_pca(spec, X, p_select)
        assert model.dual_coefficients.shape == (30, 1)
        assert 1e308 < model.eigenvalues[0] < np.finfo(float).max

    def test_one_point_is_too_few(self):
        with pytest.raises(InsufficientSamplesError, match="at least 2 points"):
            fit_kernel_pca(KernelSpec("rbf"), np.zeros((1, 3)), 0.95)

    @pytest.mark.parametrize("M", [30, LANCZOS_MIN_ORDER + 50])
    def test_training_coordinates_centered(self, M):
        # the dense solve centers the gram, the Lanczos run centers implicitly
        X = np.random.default_rng(11).normal(size=(M, 3))
        model = fit_kernel_pca(KernelSpec("rbf", bandwidth=1.2), X, 5)
        H = model.coordinates
        np.testing.assert_allclose(H.mean(axis=0), 0.0, atol=1e-10 * np.abs(H).max())

    def test_dense_grand_mean_is_the_mean_of_the_column_means(self):
        # as on the Lanczos path; on this gram K.mean() differs in the last bit
        X = np.random.default_rng(0).normal(size=(60, 3))
        model = fit_kernel_pca(KernelSpec("rbf", bandwidth=median_distance(X)), X, 0.95)
        K = reference_gram(model.spec, X, X)
        c = K.mean(axis=0)
        assert float(K.mean()) != float(np.mean(c))
        # the fit's dense solve runs on one thread of scipy's pool
        with kernels_module._eigensolve(True):
            lam, U = kernels_module._dense_top(K - c[None, :] - c[:, None] + np.mean(c), 0.95)
        assert np.array_equal(model.eigenvalues, lam)
        assert np.array_equal(np.abs(model.dual_coefficients), np.abs(U / np.sqrt(lam)))

    def test_sign_convention_largest_entry_positive(self):
        rng = np.random.default_rng(10)
        model = fit_kernel_pca(
            KernelSpec("rbf", bandwidth=1.0), rng.normal(size=(15, 2)), 3
        )
        A = model.dual_coefficients
        for p in range(A.shape[1]):
            assert A[np.argmax(np.abs(A[:, p])), p] > 0

    def test_bad_p_select(self):
        X = np.eye(4)
        with pytest.raises(ValueError):
            fit_kernel_pca(KernelSpec("linear"), X, 0)
        with pytest.raises(ValueError):
            fit_kernel_pca(KernelSpec("linear"), X, 1.5)
        with pytest.raises(ValueError):
            fit_kernel_pca(KernelSpec("linear"), X, True)


def centered_gram(spec, X):
    """Reference: the double-centered gram Kc of X."""
    K = reference_gram(spec, X, X)
    col_means = K.mean(axis=0)
    return K - col_means[None, :] - col_means[:, None] + K.mean()


def dense_kernel_pca(spec, X, p_select, eigh=np.linalg.eigh):
    """Reference: full eigh of the centered gram, the documented selection
    rule and sign rule; returns (eigenvalues, dual coefficients)."""
    evals, evecs = eigh(centered_gram(spec, X))
    evals, evecs = np.maximum(evals[::-1], 0.0), evecs[:, ::-1]
    rank = int(np.count_nonzero(evals > EIGENVALUE_RTOL * evals[0]))
    if isinstance(p_select, float):
        cum = np.cumsum(evals[:rank])
        P = min(int(np.searchsorted(cum, p_select * cum[-1])) + 1, rank)
    else:
        P = p_select
    A = evecs[:, :P] / np.sqrt(evals[:P])
    A *= np.sign(A[np.argmax(np.abs(A), axis=0), np.arange(P)])
    return evals[:P], A


# Reference implementations: the two count rules that _component_count
# replaced, kept as they were in _dense_top and _ritz_settled.


def _ref_dense_count(evals, p_select):
    """_dense_top's count on its clamped descending spectrum; RankError
    when an integer asks for more than the rank."""
    top = evals[0] if evals.size else 0.0
    rank = int(np.count_nonzero(evals > EIGENVALUE_RTOL * top)) if top > 0 else 0
    if rank == 0:
        raise RankError("centered gram has rank 0 (all points identical?)", achievable_rank=0)
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
    return P


def _ref_ritz_count(theta, c, total, p_select):
    """_ritz_settled's count from its c leading converged Ritz values,
    before the test that they settle it."""
    if isinstance(p_select, (float, np.floating)):
        cum = np.cumsum(np.maximum(theta[:c], 0.0))
        P = int(np.searchsorted(cum, p_select * total, side="left")) + 1
    else:
        P = int(p_select)
    return P


class TestComponentCount:
    """_component_count against the two rules it replaced, on drawn
    spectra. Integer spectra summing to 64 make p_select = k / 64 land
    exactly on a cumulative sum, where side="left" decides; a tail below
    the rank cutoff tells the mass above it from the whole sum."""

    def spectra(self, seed, n=300):
        rng = np.random.default_rng(seed)
        for _ in range(n):
            size = int(rng.integers(2, 40))
            values = np.sort(rng.multinomial(64, rng.dirichlet(np.ones(size))).astype(float))[::-1]
            # a tail that is null or below the rank cutoff, and values scaled off the integers
            tail = values[int(rng.integers(1, size + 1)):]
            tail[:] = 0.0 if rng.random() < 0.5 else np.sort(rng.uniform(0, 1e-11, tail.size))[::-1]
            if rng.random() < 0.5:
                values *= rng.uniform(1e-6, 1e3)
            yield rng, values

    def p_selects(self, rng, values):
        cum = np.cumsum(values)
        boundaries = [float(c / cum[-1]) for c in cum]
        return boundaries + [1.0, 0.95, float(rng.uniform(1e-3, 1.0)), 1, 2, 5, values.size, values.size + 3]

    def test_matches_the_dense_rule(self):
        for rng, evals in self.spectra(0):
            rank = int(np.count_nonzero(evals > EIGENVALUE_RTOL * evals[0]))
            for p_select in self.p_selects(rng, evals[:rank]):
                try:
                    expected = _ref_dense_count(evals, p_select)
                except RankError:
                    expected = None
                P = kernels_module._component_count(evals[:rank], None, p_select)
                assert (P if P <= rank else None) == expected, (evals, p_select)

    def test_dense_top_keeps_the_reference_count(self):
        # eigh returns a diagonal matrix's entries exactly
        for rng, evals in self.spectra(1, n=60):
            for p_select in self.p_selects(rng, evals):
                try:
                    expected = _ref_dense_count(evals, p_select)
                except RankError as err:
                    with pytest.raises(RankError) as exc:
                        kernels_module._dense_top(np.diag(evals), p_select)
                    assert exc.value.args == err.args
                    assert exc.value.achievable_rank == err.achievable_rank
                    continue
                lam, U = kernels_module._dense_top(np.diag(evals), p_select)
                assert len(lam) == U.shape[1] == expected, (evals, p_select)

    def test_matches_the_ritz_rule(self):
        for rng, values in self.spectra(2):
            # Ritz values may dip below zero; the total is trace(Kc), at
            # or off a cumulative sum of the converged ones
            theta = values - float(rng.uniform(0.0, 1e-3)) * (values < 1e-10)
            c = int(rng.integers(0, theta.size + 1))
            kept = np.maximum(theta[:c], 0.0)
            totals = [float(values.sum()), float(values.sum()) * (1 + 1e-12)]
            if c:
                totals.append(float(np.cumsum(kept)[-1]))
            for total in totals:
                for p_select in self.p_selects(rng, values):
                    expected = _ref_ritz_count(theta, c, total, p_select)
                    assert kernels_module._component_count(kept, total, p_select) == expected


class TestLanczosPath:
    """From LANCZOS_MIN_ORDER points the top eigenpairs come from a
    self-stopping Lanczos run; they must agree with a dense eigh, and
    whatever the run cannot settle must go to the dense path."""

    M = 300

    def test_order_is_on_the_lanczos_side(self):
        # a crossover moved past M would quietly test the dense path
        assert self.M >= LANCZOS_MIN_ORDER

    @pytest.fixture
    def solver_calls(self, monkeypatch):
        calls = {"lanczos": 0, "eigh": 0}
        lanczos, eigh = kernels_module._lanczos_top, kernels_module.dsyevd

        def counted_lanczos(*args, **kwargs):
            calls["lanczos"] += 1
            return lanczos(*args, **kwargs)

        def counted_eigh(*args, **kwargs):
            calls["eigh"] += 1
            return eigh(*args, **kwargs)

        monkeypatch.setattr(kernels_module, "_lanczos_top", counted_lanczos)
        monkeypatch.setattr(kernels_module, "dsyevd", counted_eigh)
        return calls

    @pytest.fixture
    def matvecs(self, monkeypatch):
        count = [0]
        dsymv = kernels_module.dsymv

        def counted(*args, **kwargs):
            count[0] += 1
            return dsymv(*args, **kwargs)

        monkeypatch.setattr(kernels_module, "dsymv", counted)
        return count

    def rbf_case(self):
        X = np.random.default_rng(13).normal(size=(self.M, 3))
        return KernelSpec("rbf", bandwidth=median_distance(X)), X

    def rank3_case(self):
        return KernelSpec("linear"), np.random.default_rng(14).normal(size=(self.M, 3))

    def assert_matches_dense(self, spec, X, p_select, eigh=np.linalg.eigh):
        lam_ref, A_ref = dense_kernel_pca(spec, X, p_select, eigh)
        model = fit_kernel_pca(spec, X, p_select)
        assert model.n_components == len(lam_ref)
        np.testing.assert_allclose(model.eigenvalues, lam_ref, rtol=1e-12, atol=1e-12 * lam_ref[0])
        np.testing.assert_allclose(model.dual_coefficients, A_ref, rtol=0, atol=1e-8 * np.abs(A_ref).max())

    @pytest.mark.parametrize("p_select", [0.95, 7])
    def test_rbf_matches_dense(self, solver_calls, p_select):
        self.assert_matches_dense(*self.rbf_case(), p_select)
        assert solver_calls == {"lanczos": 1, "eigh": 0}

    @pytest.mark.parametrize("p_select", [0.95, 3])
    def test_rank3_linear_matches_dense(self, solver_calls, p_select):
        self.assert_matches_dense(*self.rank3_case(), p_select)
        assert solver_calls == {"lanczos": 1, "eigh": 0}

    def test_overrequest_reports_achievable_rank(self, solver_calls):
        with pytest.raises(RankError) as exc:
            fit_kernel_pca(*self.rank3_case(), 4)
        assert exc.value.achievable_rank == 3
        assert solver_calls == {"lanczos": 1, "eigh": 1}

    def test_overrequest_on_a_tiny_gram_reports_achievable_rank(self, solver_calls):
        # eigenvalues below ARPACK's absolute floor eps^(2/3): rounding-noise
        # pairs pass the convergence test, and the rank check rejects them
        spec, X = self.rank3_case()
        with pytest.raises(RankError) as exc:
            fit_kernel_pca(spec, 1e-7 * X, 4)
        assert exc.value.achievable_rank == 3
        assert solver_calls == {"lanczos": 1, "eigh": 1}

    def test_low_rank_gram_settles_on_converged_pairs(self, solver_calls, matvecs):
        # rbf on 1-d points: the spectrum reaches the rounding floor within
        # a few dozen pairs; the run stops once the top few have converged
        X = np.random.default_rng(15).uniform(size=(self.M, 1))
        self.assert_matches_dense(KernelSpec("rbf", bandwidth=median_distance(X)), X, 0.95)
        assert solver_calls == {"lanczos": 1, "eigh": 0}
        assert matvecs[0] <= 4 * kernels_module.LANCZOS_CHECK_EVERY

    def test_breakdown_on_rank3_gram_goes_dense(self, solver_calls, matvecs):
        # the Krylov space of a rank-3 gram is invariant after about 4
        # steps; 4 components cannot be settled there, and the run stops
        # instead of stepping through rounding noise up to the cap
        spec, X = self.rank3_case()
        K = reference_gram(spec, X, X)
        col_means = K.mean(axis=0)
        assert kernels_module._lanczos_top(K, col_means, float(np.mean(col_means)), 4) is None
        assert matvecs[0] <= kernels_module.LANCZOS_CHECK_EVERY
        with pytest.raises(RankError):
            fit_kernel_pca(spec, X, 4)
        assert solver_calls == {"lanczos": 2, "eigh": 1}

    def test_start_vector_blind_to_the_top_pair_goes_dense(self):
        # Kc = u u' + 5 w w' with u the run's own start vector and w
        # orthogonal to it: the run breaks down after one step having seen
        # only the eigenvalue 1 and must not report it as the top pair
        u = np.random.default_rng(0).standard_normal(self.M)
        u /= np.linalg.norm(u)
        w = np.random.default_rng(1).standard_normal(self.M)
        w -= (w @ u) * u
        w /= np.linalg.norm(w)
        Kc = np.outer(u, u) + 5.0 * np.outer(w, w)
        # zero column means: the run's operator is Kc itself
        assert kernels_module._lanczos_top(Kc, np.zeros(self.M), 0.0, 0.95) is None
        lam, _ = kernels_module._dense_top(Kc, 0.95)
        np.testing.assert_allclose(lam, [5.0, 1.0], rtol=1e-12)

    def test_start_vector_is_the_seeded_unit_draw(self):
        # the unit-normalized default_rng(0) draw the run always started from
        start = kernels_module._start_vector(self.M)
        v0 = np.random.default_rng(0).standard_normal(self.M)
        assert start.tobytes() == dscal(1.0 / dnrm2(v0), v0).tobytes()

    def test_count_above_the_step_cap_goes_dense_before_any_step(self, solver_calls, matvecs, monkeypatch):
        # the run settles a count on as many converged pairs, at most one
        # per step: 97 pairs cannot settle within 96 steps, so it makes no
        # matvec, and the dense path gives the model it would have given
        M, p_select = LANCZOS_MIN_ORDER, kernels_module.LANCZOS_MAX_STEPS + 1
        spec, X = KernelSpec("rbf"), np.random.default_rng(16).normal(size=(M, 5))
        model = fit_kernel_pca(spec, X, p_select)
        assert solver_calls == {"lanczos": 1, "eigh": 1}
        assert matvecs[0] == 0
        monkeypatch.setattr(kernels_module, "LANCZOS_MIN_ORDER", M + 1)
        dense = fit_kernel_pca(spec, X, p_select)
        assert model.n_components == p_select
        assert model.eigenvalues.tobytes() == dense.eigenvalues.tobytes()
        assert model.dual_coefficients.tobytes() == dense.dual_coefficients.tobytes()

    def test_mass_target_within_the_step_cap_matches_dense(self, solver_calls):
        self.assert_matches_dense(*self.rbf_case(), 0.999)
        assert solver_calls == {"lanczos": 1, "eigh": 0}

    def test_full_mass_goes_dense(self, solver_calls, matvecs):
        # the fit's dsyevd runs on one thread of scipy's pool, and so must
        # the reference: near the rank cutoff, columns of a two-thread
        # dsyevd differ from a one-thread one by up to 3.3e-3 here
        def one_thread_eigh(Kc):
            with kernels_module._eigensolve(True):
                return scipy.linalg.eigh(Kc, driver="evd")

        self.assert_matches_dense(*self.rbf_case(), 1.0, one_thread_eigh)
        assert solver_calls == {"lanczos": 1, "eigh": 1}
        assert matvecs[0] == 0

    def test_lanczos_answer_leaves_the_gram_uncentered(self, solver_calls, monkeypatch):
        # and centers it implicitly with the dense path's grand mean, the
        # mean of the column means
        spec, X = self.rbf_case()
        built, handed = [], []
        rbf_gram, lanczos = kernels_module._rbf_gram, kernels_module._lanczos_top

        def kept(*args):
            out = rbf_gram(*args)
            built.append(out[1])
            return out

        def seen(*args):
            handed.append(args)
            return lanczos(*args)

        monkeypatch.setattr(kernels_module, "_rbf_gram", kept)
        monkeypatch.setattr(kernels_module, "_lanczos_top", seen)
        fit_kernel_pca(spec, X, 0.95)
        assert solver_calls == {"lanczos": 1, "eigh": 0}
        K = reference_gram(spec, X, X)
        assert np.array_equal(built[0], K)
        [(gram_handed, col_means, grand_mean, _)] = handed
        assert gram_handed is built[0]
        assert np.array_equal(col_means, K.mean(axis=0))
        assert grand_mean == float(np.mean(K.mean(axis=0)))
        assert grand_mean == pytest.approx(K.mean(), rel=1e-14)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_gram_goes_dense(self, matvecs, bad):
        spec, X = self.rbf_case()
        K = reference_gram(spec, X, X)
        K[3, 5] = K[5, 3] = bad
        col_means = K.mean(axis=0)
        assert kernels_module._lanczos_top(K, col_means, float(np.mean(col_means)), 0.95) is None
        assert matvecs[0] == 0

    def test_step_cap_goes_dense(self, solver_calls, monkeypatch):
        # 0.999 needs 38 components here, more than 12 steps can settle
        monkeypatch.setattr(kernels_module, "LANCZOS_MAX_STEPS", 12)
        self.assert_matches_dense(*self.rbf_case(), 0.999)
        assert solver_calls == {"lanczos": 1, "eigh": 1}

    @pytest.mark.parametrize("generator_id", GENERATOR_IDS)
    @pytest.mark.parametrize("T", [200, 300])
    def test_equals_dense_on_every_synthetic_panel(self, generator_id, T):
        # the pipeline's own grams, full panel and each node left out: the
        # run centers implicitly, the dense reference explicitly
        values = generate(generator_id, T, 0).panel.values
        for i in range(-1, values.shape[1]):
            X = normalize_columns(values if i < 0 else np.delete(values, i, axis=1))
            spec = KernelSpec("rbf", bandwidth=median_distance(X))
            K = reference_gram(spec, X, X)
            col_means = K.mean(axis=0)
            pairs = kernels_module._lanczos_top(K, col_means, float(np.mean(col_means)), 0.95)
            assert pairs is not None, i
            (lam, U), (lam_ref, U_ref) = pairs, kernels_module._dense_top(centered_gram(spec, X), 0.95)
            assert len(lam) == len(lam_ref), i
            np.testing.assert_allclose(lam, lam_ref, rtol=1e-12, atol=0)
            U = U * np.sign(np.sum(U * U_ref, axis=0))
            A, A_ref = U / np.sqrt(lam), U_ref / np.sqrt(lam_ref)
            np.testing.assert_allclose(A, A_ref, rtol=0, atol=1e-8 * np.abs(A_ref).max())


NONFINITE_ENTRY_POINTS = {
    "fit rbf with a bandwidth": lambda X: fit_kernel_pca(KernelSpec("rbf", bandwidth=1.0), X, 0.95),
    "fit rbf median": lambda X: fit_kernel_pca(KernelSpec("rbf"), X, 0.95),
    "fit linear": lambda X: fit_kernel_pca(KernelSpec("linear"), X, 2),
    "fit polynomial": lambda X: fit_kernel_pca(KernelSpec("polynomial"), X, 0.95),
    "normalize_columns": normalize_columns,
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", list(NONFINITE_ENTRY_POINTS))
def test_nonfinite_point_is_refused_as_such(entry, bad):
    # these used to call a NaN or inf an overflow
    X = np.random.default_rng(19).normal(size=(30, 3))
    X[7, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateInputError, match="NaN or inf") as info:
            NONFINITE_ENTRY_POINTS[entry](X)
    assert "overflows" not in str(info.value)


class TestBlasThreads:
    """Below ONE_THREAD_ORDER a fit's whole eigensolve, a Lanczos run and
    any dense solve after it, holds scipy's OpenBLAS pool at one thread;
    the count comes back however the solve ends. The eigensolves of fits
    in different threads take turns."""

    @pytest.fixture
    def pool(self, monkeypatch):
        """A stand-in pool at 2 threads that logs every count set."""
        state = {"threads": 2, "sets": []}

        def get():
            return state["threads"]

        def put(n):
            state["sets"].append(n)
            state["threads"] = n

        monkeypatch.setattr(kernels_module, "_pool_controls", lambda: (get, put))
        return state

    def seen_by(self, monkeypatch, name, pool):
        """Wrap kernels_module.<name> to log the pool's count at each call."""
        seen = []
        solver = getattr(kernels_module, name)

        def logged(*args, **kwargs):
            seen.append(pool["threads"])
            return solver(*args, **kwargs)

        monkeypatch.setattr(kernels_module, name, logged)
        return seen

    def points(self, M, seed=20):
        X = np.random.default_rng(seed).normal(size=(M, 3))
        return KernelSpec("rbf", bandwidth=median_distance(X)), X

    def test_lanczos_solve_runs_on_one_thread(self, pool, monkeypatch):
        seen = self.seen_by(monkeypatch, "_lanczos_top", pool)
        fit_kernel_pca(*self.points(LANCZOS_MIN_ORDER + 50), 0.95)
        assert seen == [1]
        assert pool["sets"] == [1, 2]

    def test_dense_solve_runs_on_one_thread(self, pool, monkeypatch):
        seen = self.seen_by(monkeypatch, "dsyevd", pool)
        M = kernels_module.ONE_THREAD_ORDER - 1
        monkeypatch.setattr(kernels_module, "LANCZOS_MIN_ORDER", M + 1)
        fit_kernel_pca(*self.points(M), 0.95)
        assert seen == [1]
        assert pool["sets"] == [1, 2]

    def test_dense_fallback_shares_the_lanczos_hold(self, pool, monkeypatch):
        # 6 steps cannot settle 0.95 on 400 points: the run gives up, and
        # the dense solve after it stays inside the same one-thread hold
        monkeypatch.setattr(kernels_module, "LANCZOS_MAX_STEPS", 6)
        lanczos = self.seen_by(monkeypatch, "_lanczos_top", pool)
        dense = self.seen_by(monkeypatch, "dsyevd", pool)
        fit_kernel_pca(*self.points(400), 0.95)
        assert lanczos == [1]
        assert dense == [1]
        assert pool["sets"] == [1, 2]

    def lock_is_free(self):
        """Whether another thread can take the eigensolve lock now; the
        lock is re-entrant, so this thread's own acquire would not tell."""
        free = []

        def probe():
            lock = kernels_module._eigensolve_lock
            if lock.acquire(blocking=False):
                lock.release()
                free.append(True)

        prober = threading.Thread(target=probe, daemon=True)
        prober.start()
        prober.join(timeout=30)
        return free == [True]

    def fit_in_thread(self, errors, M, seed=20):
        """A started thread fitting M points; its exception lands in errors.
        A daemon, so a fit stuck on a held lock fails its test, not the run."""
        def fit():
            try:
                fit_kernel_pca(*self.points(M, seed), 0.95)
            except Exception as err:  # surfaced on the test's thread
                errors.append(err)

        worker = threading.Thread(target=fit, daemon=True)
        worker.start()
        return worker

    def test_count_restored_after_a_raise(self, pool, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("solver failed")

        monkeypatch.setattr(kernels_module, "_lanczos_top", fail)
        with pytest.raises(RuntimeError, match="solver failed"):
            fit_kernel_pca(*self.points(LANCZOS_MIN_ORDER + 50), 0.95)
        assert pool["threads"] == 2
        assert pool["sets"] == [1, 2]
        assert self.lock_is_free()

    def test_nested_fit_runs_on_one_thread(self, pool, monkeypatch):
        # the inner fit saves the outer fit's 1 and puts it back; the
        # outer fit's restore brings back the 2 it found
        lanczos = kernels_module._lanczos_top
        inner = self.seen_by(monkeypatch, "_dense_top", pool)

        def nesting(*args, **kwargs):
            fit_kernel_pca(*self.points(50), 3)
            return lanczos(*args, **kwargs)

        monkeypatch.setattr(kernels_module, "_lanczos_top", nesting)
        fit_kernel_pca(*self.points(LANCZOS_MIN_ORDER + 50), 0.95)
        assert inner == [1]
        assert pool["sets"] == [1, 1, 1, 2]
        assert pool["threads"] == 2

    def test_fits_in_threads_take_turns(self, pool, monkeypatch):
        # each solve runs alone, on the count its fit set, and restores
        # the count it found before the other fit's solve begins
        lanczos = kernels_module._lanczos_top
        log = []

        def logged(*args, **kwargs):
            log.append(("in", pool["threads"]))
            time.sleep(0.05)  # room for the other fit to come in, were it let
            log.append(("out", pool["threads"]))
            return lanczos(*args, **kwargs)

        monkeypatch.setattr(kernels_module, "_lanczos_top", logged)
        errors = []
        workers = [self.fit_in_thread(errors, LANCZOS_MIN_ORDER + 50, seed) for seed in (21, 22)]
        for worker in workers:
            worker.join(timeout=30)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        assert log == [("in", 1), ("out", 1)] * 2
        assert pool["sets"] == [1, 2, 1, 2]
        assert pool["threads"] == 2
        assert self.lock_is_free()

    def test_fit_at_the_order_waits_out_a_one_thread_solve(self, pool, monkeypatch):
        # a fit on ONE_THREAD_ORDER points, started while a smaller fit in
        # another thread holds the pool at one thread, solves on the count
        # the pool has once the smaller fit is done: 2, not the held 1
        order = kernels_module.ONE_THREAD_ORDER
        small_M = LANCZOS_MIN_ORDER + 50
        lanczos = kernels_module._lanczos_top
        small_in, release, large_in = threading.Event(), threading.Event(), threading.Event()
        seen = {}

        def held(K, *args):
            seen[K.shape[0]] = pool["threads"]
            if K.shape[0] < order:
                small_in.set()
                release.wait(timeout=30)
            else:
                large_in.set()
            return lanczos(K, *args)

        monkeypatch.setattr(kernels_module, "_lanczos_top", held)
        errors = []
        workers = [self.fit_in_thread(errors, small_M)]
        try:
            assert small_in.wait(timeout=30)
            workers.append(self.fit_in_thread(errors, order))
            # unless something holds it back, the large fit is in its solve well within this
            large_in.wait(timeout=1)
        finally:
            release.set()
            for worker in workers:
                worker.join(timeout=30)
        assert not any(worker.is_alive() for worker in workers)
        assert errors == []
        assert seen == {small_M: 1, order: 2}
        assert pool["sets"] == [1, 2]
        assert pool["threads"] == 2

    def test_setter_never_called_at_the_orders(self, pool, monkeypatch):
        M = kernels_module.ONE_THREAD_ORDER
        fit_kernel_pca(*self.points(M), 0.95)
        monkeypatch.setattr(kernels_module, "LANCZOS_MIN_ORDER", M + 1)
        fit_kernel_pca(*self.points(M), 0.95)
        assert pool["sets"] == []

    def test_missing_setter_is_a_no_op(self, monkeypatch):
        # a BLAS without OpenBLAS's thread functions (Accelerate, MKL):
        # the fit runs on whatever pool it finds, to the same answer
        spec, X = self.points(LANCZOS_MIN_ORDER + 50)
        expected = fit_kernel_pca(spec, X, 0.95)
        monkeypatch.setattr(kernels_module.ctypes, "CDLL", lambda path: object())
        kernels_module._pool_controls.cache_clear()
        try:
            model = fit_kernel_pca(spec, X, 0.95)
            assert kernels_module._pool_controls() is None
        finally:
            monkeypatch.undo()
            kernels_module._pool_controls.cache_clear()
        assert self.lock_is_free()
        np.testing.assert_allclose(model.eigenvalues, expected.eigenvalues, rtol=1e-12)
        np.testing.assert_allclose(model.dual_coefficients, expected.dual_coefficients,
                                   rtol=0, atol=1e-8 * np.abs(expected.dual_coefficients).max())

    def test_unloadable_blas_library_is_no_pool(self, monkeypatch):
        def unloadable(path):
            raise OSError(f"cannot load {path}")

        monkeypatch.setattr(kernels_module.ctypes, "CDLL", unloadable)
        kernels_module._pool_controls.cache_clear()
        try:
            assert kernels_module._pool_controls() is None
        finally:
            monkeypatch.undo()
            kernels_module._pool_controls.cache_clear()

    def controls_of(self, monkeypatch, *exports):
        """The BLAS library stand-in exporting only the named functions, and
        what _pool_controls makes of it."""
        lib = types.SimpleNamespace(**{name: types.SimpleNamespace() for name in exports})
        monkeypatch.setattr(kernels_module.ctypes, "CDLL", lambda path: lib)
        kernels_module._pool_controls.cache_clear()
        try:
            return lib, kernels_module._pool_controls()
        finally:
            monkeypatch.undo()
            kernels_module._pool_controls.cache_clear()

    def test_system_openblas_names_are_found(self, monkeypatch):
        # scipy linked against a system OpenBLAS exports the unprefixed names
        lib, pool = self.controls_of(
            monkeypatch, "openblas_get_num_threads", "openblas_set_num_threads"
        )
        get, put = pool
        assert get is lib.openblas_get_num_threads
        assert put is lib.openblas_set_num_threads

    def test_system_openblas_getter_alone_is_no_pool(self, monkeypatch):
        _, pool = self.controls_of(monkeypatch, "openblas_get_num_threads")
        assert pool is None

    def test_real_pool_is_held_and_restored(self, monkeypatch):
        pool = kernels_module._pool_controls()
        if pool is None:
            pytest.skip("scipy's BLAS has no OpenBLAS thread functions")
        get, _ = pool
        before = get()
        seen = []
        lanczos = kernels_module._lanczos_top

        def logged(*args, **kwargs):
            seen.append(get())
            return lanczos(*args, **kwargs)

        monkeypatch.setattr(kernels_module, "_lanczos_top", logged)
        fit_kernel_pca(*self.points(LANCZOS_MIN_ORDER + 50), 0.95)
        assert seen == [1]
        assert get() == before

    @pytest.mark.parametrize("p_select", [0.95, 0.999])
    def test_deltas_do_not_depend_on_the_thread_count(self, p_select):
        # every fit of a T = 300 panel solves on 300 points, below the
        # one-thread order: a Lanczos run at 0.95, and at 0.999 a run that
        # falls back to dense. This process's default pool and a fresh
        # interpreter's single thread give the same bits
        T = 300
        assert LANCZOS_MIN_ORDER <= T < kernels_module.ONE_THREAD_ORDER
        config = f"PipelineConfig(p_select={p_select!r})"
        code = (
            "from preimage_gc import PipelineConfig, generate, infer_graph; "
            f"print(infer_graph(generate('nonlinear5', {T}, 0).panel, {config}).raw_log_ratios.tobytes().hex())"
        )
        package_root = Path(preimage_gc.__file__).resolve().parent.parent
        path = os.pathsep.join(filter(None, [str(package_root), os.environ.get("PYTHONPATH")]))
        single = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1"),
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        here = infer_graph(generate("nonlinear5", T, 0).panel, PipelineConfig(p_select=p_select)).raw_log_ratios
        assert here.tobytes().hex() == single
