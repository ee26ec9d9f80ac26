"""Kernel evaluation, median bandwidth, and kernel PCA against oracles."""

import re
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.spatial.distance import pdist

import preimage_gc.kernels as kernels_module
from preimage_gc import (
    KernelSpec,
    fit_kernel_pca,
    median_bandwidth,
    normalize_columns,
    project,
)
from preimage_gc.errors import DegenerateInputError, RankError, ShapeError
from preimage_gc.kernels import EIGENVALUE_RTOL, LANCZOS_MIN_ORDER, gram
from preimage_gc.synthgen import GENERATOR_IDS, generate


def classical_pca_scores(X):
    """Reference: centered SVD scores, the textbook PCA coordinates."""
    Xc = X - X.mean(axis=0)
    U, S, _ = np.linalg.svd(Xc, full_matrices=False)
    return U * S


class TestKernelSpec:
    def test_rbf_needs_bandwidth(self):
        # a spec without one is the median rule of fit_kernel_pca; a gram
        # cannot guess it
        X = np.random.default_rng(1).normal(size=(6, 2))
        assert KernelSpec(kind="rbf").bandwidth is None
        with pytest.raises(ValueError, match="bandwidth"):
            gram(KernelSpec(kind="rbf"), X, X)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            KernelSpec(kind="sigmoid")

    def test_rejects_bad_degree(self):
        with pytest.raises(ValueError, match="degree"):
            KernelSpec(kind="polynomial", degree=0)

    @pytest.mark.parametrize("offset", [-1.0, np.nan, np.inf])
    def test_rejects_offset_that_is_negative_or_not_finite(self, offset):
        # nan and inf used to end in "[pca] centered gram has rank 0"
        with pytest.raises(ValueError, match="offset.*got " + re.escape(repr(offset))):
            KernelSpec("polynomial", offset=offset)


    @pytest.mark.parametrize("bandwidth", [0.0, -1.0, np.nan, np.inf, 1e154, 1e155, 1e-200, np.float64(1e200)])
    def test_rejects_bandwidth_the_rbf_cannot_divide_by(self, bandwidth):
        # 1e155 used to raise OverflowError in the rbf, and 1e154 and
        # 1e-200 to end in "[pca] centered gram has rank 0"
        with pytest.raises(ValueError, match="bandwidth.*got " + re.escape(repr(bandwidth))):
            KernelSpec("rbf", bandwidth=bandwidth)

    @pytest.mark.parametrize("bandwidth", [1e153, 1e-150, np.float64(1e153), 2])
    def test_accepted_bandwidth_divides_to_a_finite_gram(self, bandwidth):
        spec = KernelSpec("rbf", bandwidth=bandwidth)
        K = gram(spec, [[0.0], [1.0]], [[0.0], [1.0]])
        assert np.all(np.isfinite(K)) and np.all(np.diag(K) == 1.0)


class TestGram:
    def test_linear_hand_example(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(
            gram(KernelSpec("linear"), X, X), [[5.0, 11.0], [11.0, 25.0]]
        )

    def test_polynomial_hand_example(self):
        # (<x, z> + 1)^2 with <x, z> = 1
        X = np.array([[1.0, 0.0]])
        Z = np.array([[1.0, 1.0]])
        K = gram(KernelSpec("polynomial", degree=2, offset=1.0), X, Z)
        np.testing.assert_array_equal(K, [[4.0]])

    def test_rbf_diagonal_is_one(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(15, 3))
        K = gram(KernelSpec("rbf", bandwidth=1.3), X, X)
        np.testing.assert_array_equal(np.diag(K), np.ones(15))

    def test_rbf_matches_direct_formula(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(6, 2))
        Z = rng.normal(size=(4, 2))
        bw = 0.9
        K = gram(KernelSpec("rbf", bandwidth=bw), X, Z)
        for i in range(6):
            for j in range(4):
                d2 = np.sum((X[i] - Z[j]) ** 2)
                assert K[i, j] == pytest.approx(np.exp(-d2 / (2 * bw**2)), rel=1e-12)

    def test_symmetric_on_same_points(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(20, 4))
        for spec in (
            KernelSpec("linear"),
            KernelSpec("polynomial", degree=3),
            KernelSpec("rbf", bandwidth=2.0),
        ):
            K = gram(spec, X, X)
            assert np.abs(K - K.T).max() == 0.0

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(25, 3))
        for spec in (
            KernelSpec("linear"),
            KernelSpec("polynomial", degree=2),
            KernelSpec("rbf", bandwidth=1.0),
        ):
            evals = np.linalg.eigvalsh(gram(spec, X, X))
            assert evals.min() >= -1e-8 * max(evals.max(), 1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            gram(KernelSpec("linear"), np.zeros((3, 2)), np.zeros((3, 4)))


class TestMedianBandwidth:
    def test_two_points(self):
        assert median_bandwidth(np.array([[0.0], [1.0]])) == 1.0

    def test_three_points(self):
        # pairwise distances {1, 3, 2}, median 2
        assert median_bandwidth(np.array([[0.0], [1.0], [3.0]])) == 2.0

    def test_identical_points_degenerate(self):
        with pytest.raises(DegenerateInputError):
            median_bandwidth(np.ones((5, 2)))

    def test_equals_numpy_median_of_pdist(self):
        rng = np.random.default_rng(8)
        # 2..9 points give pair counts 1, 3, 6, 10, 15, 21, 28, 36: odd and even
        for n in [2, 3, 4, 5, 6, 7, 8, 9, 40, 101]:
            for dim in (1, 3):
                X = rng.normal(size=(n, dim))
                assert median_bandwidth(X) == float(np.median(pdist(X)))

    @pytest.mark.parametrize("n", [6, 8, 201, 203])
    def test_one_pdist_gram_equals_bandwidth_and_gram(self, n):
        # n = 6, 203 give odd pair counts, n = 8, 201 even ones
        X = np.random.default_rng(n).normal(size=(n, 3))
        spec, K = kernels_module._rbf_gram(KernelSpec("rbf"), X)
        assert spec == KernelSpec("rbf", bandwidth=median_bandwidth(X))
        assert np.array_equal(K, gram(spec, X, X))
        given = KernelSpec("rbf", bandwidth=1.3)
        spec, K = kernels_module._rbf_gram(given, X)
        assert spec is given
        assert np.array_equal(K, gram(given, X, X))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_points_rejected(self, bad):
        X = np.random.default_rng(9).normal(size=(12, 2))
        X[3, 1] = bad
        with pytest.raises(DegenerateInputError, match="finite"):
            median_bandwidth(X)

    @pytest.mark.parametrize("scale", [1e155, 1e200])
    def test_overflowing_distances_rejected(self, scale):
        # an infinite median used to pass as a bandwidth and make a NaN gram
        X = np.random.default_rng(10).normal(size=(12, 2)) * scale
        with pytest.raises(DegenerateInputError, match="overflow"):
            median_bandwidth(X)
        with pytest.raises(DegenerateInputError, match="overflow"):
            kernels_module._rbf_gram(KernelSpec("rbf"), X)

    def test_square_overflowing_finite_median_rejected(self):
        # distances near 1e155 are finite, their squares are not
        X = np.array([[0.0], [1e155], [3e155]])
        with pytest.raises(DegenerateInputError, match="overflow"):
            median_bandwidth(X)

    def test_median_is_a_bandwidth_the_spec_accepts(self):
        # the smallest and largest scales whose median survives the check
        for scale in (1e-150, 1e150):
            X = np.random.default_rng(11).normal(size=(12, 2)) * scale
            assert KernelSpec("rbf", bandwidth=median_bandwidth(X)).bandwidth > 0


class TestFitKernelPca:
    @pytest.mark.parametrize("M", [50, LANCZOS_MIN_ORDER + 50])
    def test_rbf_without_bandwidth_fits_with_the_median(self, M):
        # both sides of the Lanczos crossover; the model's spec carries the
        # bandwidth, so project of the training points gives their coordinates
        X = np.random.default_rng(M).normal(size=(M, 3))
        model = fit_kernel_pca(KernelSpec("rbf"), X, 0.95)
        given = fit_kernel_pca(KernelSpec("rbf", bandwidth=median_bandwidth(X)), X, 0.95)
        assert model.spec == given.spec
        for field in ("dual_coefficients", "eigenvalues", "col_means"):
            assert np.array_equal(getattr(model, field), getattr(given, field)), field
        assert model.grand_mean == given.grand_mean
        np.testing.assert_allclose(
            project(model, X), model.dual_coefficients * model.eigenvalues, atol=1e-10
        )

    def test_linear_kernel_matches_classical_pca(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(30, 5))
        ref = classical_pca_scores(X)
        model = fit_kernel_pca(KernelSpec("linear"), X, 5)
        H = project(model, X)
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
        K = gram(KernelSpec("linear"), X, X)
        Kc = K - K.mean(0) - K.mean(1)[:, None] + K.mean()
        model = fit_kernel_pca(KernelSpec("linear"), X, 1.0)
        assert model.n_components == np.linalg.matrix_rank(Kc)

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
    ])
    def test_overflowing_gram_is_degenerate_input_without_warnings(self, spec, scale):
        # these used to warn and end in "centered gram has rank 0"
        X = scale * np.random.default_rng(12).normal(size=(30, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateInputError, match=f"the {spec.kind} gram overflows float64"):
                fit_kernel_pca(spec, X, 0.95)

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
    K = gram(spec, X, X)
    col_means = K.mean(axis=0)
    return K - col_means[None, :] - col_means[:, None] + K.mean()


def dense_kernel_pca(spec, X, p_select):
    """Reference: full eigh of the centered gram, the documented selection
    rule and sign rule; returns (eigenvalues, dual coefficients)."""
    evals, evecs = np.linalg.eigh(centered_gram(spec, X))
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

    M = LANCZOS_MIN_ORDER + 100

    @pytest.fixture
    def solver_calls(self, monkeypatch):
        calls = {"lanczos": 0, "eigh": 0}
        lanczos, eigh = kernels_module._lanczos_top, scipy.linalg.eigh

        def counted_lanczos(*args, **kwargs):
            calls["lanczos"] += 1
            return lanczos(*args, **kwargs)

        def counted_eigh(*args, **kwargs):
            calls["eigh"] += 1
            return eigh(*args, **kwargs)

        monkeypatch.setattr(kernels_module, "_lanczos_top", counted_lanczos)
        monkeypatch.setattr(kernels_module.scipy.linalg, "eigh", counted_eigh)
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
        return KernelSpec("rbf", bandwidth=median_bandwidth(X)), X

    def rank3_case(self):
        return KernelSpec("linear"), np.random.default_rng(14).normal(size=(self.M, 3))

    def assert_matches_dense(self, spec, X, p_select):
        lam_ref, A_ref = dense_kernel_pca(spec, X, p_select)
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
        self.assert_matches_dense(KernelSpec("rbf", bandwidth=median_bandwidth(X)), X, 0.95)
        assert solver_calls == {"lanczos": 1, "eigh": 0}
        assert matvecs[0] <= 4 * kernels_module.LANCZOS_CHECK_EVERY

    def test_breakdown_on_rank3_gram_goes_dense(self, solver_calls, matvecs):
        # the Krylov space of a rank-3 gram is invariant after about 4
        # steps; 4 components cannot be settled there, and the run stops
        # instead of stepping through rounding noise up to the cap
        spec, X = self.rank3_case()
        K = gram(spec, X, X)
        assert kernels_module._lanczos_top(K, K.mean(axis=0), 4) is None
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
        assert kernels_module._lanczos_top(Kc, np.zeros(self.M), 0.95) is None
        lam, _ = kernels_module._dense_top(Kc, 0.95)
        np.testing.assert_allclose(lam, [5.0, 1.0], rtol=1e-12)

    def test_mass_target_within_the_step_cap_matches_dense(self, solver_calls):
        self.assert_matches_dense(*self.rbf_case(), 0.999)
        assert solver_calls == {"lanczos": 1, "eigh": 0}

    def test_full_mass_goes_dense(self, solver_calls, matvecs):
        self.assert_matches_dense(*self.rbf_case(), 1.0)
        assert solver_calls == {"lanczos": 1, "eigh": 1}
        assert matvecs[0] == 0

    def test_lanczos_answer_leaves_the_gram_uncentered(self, solver_calls, monkeypatch):
        spec, X = self.rbf_case()
        built = []
        rbf_gram = kernels_module._rbf_gram

        def kept(*args):
            out = rbf_gram(*args)
            built.append(out[1])
            return out

        monkeypatch.setattr(kernels_module, "_rbf_gram", kept)
        model = fit_kernel_pca(spec, X, 0.95)
        assert solver_calls == {"lanczos": 1, "eigh": 0}
        K = gram(spec, X, X)
        assert np.array_equal(built[0], K)
        assert np.array_equal(model.col_means, K.mean(axis=0))
        assert model.grand_mean == pytest.approx(K.mean(), rel=1e-14)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_gram_goes_dense(self, matvecs, bad):
        spec, X = self.rbf_case()
        K = gram(spec, X, X)
        K[3, 5] = K[5, 3] = bad
        assert kernels_module._lanczos_top(K, K.mean(axis=0), 0.95) is None
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
            spec = KernelSpec("rbf", bandwidth=median_bandwidth(X))
            K = gram(spec, X, X)
            pairs = kernels_module._lanczos_top(K, K.mean(axis=0), 0.95)
            assert pairs is not None, i
            (lam, U), (lam_ref, U_ref) = pairs, kernels_module._dense_top(centered_gram(spec, X), 0.95)
            assert len(lam) == len(lam_ref), i
            np.testing.assert_allclose(lam, lam_ref, rtol=1e-12, atol=0)
            U = U * np.sign(np.sum(U * U_ref, axis=0))
            A, A_ref = U / np.sqrt(lam), U_ref / np.sqrt(lam_ref)
            np.testing.assert_allclose(A, A_ref, rtol=0, atol=1e-8 * np.abs(A_ref).max())


class TestProject:
    def test_training_projections_centered(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(30, 3))
        model = fit_kernel_pca(KernelSpec("rbf", bandwidth=1.2), X, 5)
        H = project(model, X)
        np.testing.assert_allclose(H.mean(axis=0), 0.0, atol=1e-10)

    def test_single_row_matches_batch(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(25, 3))
        Z = rng.normal(size=(7, 3))
        model = fit_kernel_pca(KernelSpec("rbf", bandwidth=1.0), X, 4)
        batch = project(model, Z)
        for i in range(7):
            row = project(model, Z[i : i + 1])
            np.testing.assert_allclose(row[0], batch[i], atol=1e-12)

    def test_dimension_mismatch(self):
        model = fit_kernel_pca(KernelSpec("linear"), np.eye(4), 2)
        with pytest.raises(ShapeError):
            project(model, np.zeros((3, 7)))
