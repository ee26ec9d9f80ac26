"""VAR fitting: recovery, ridge behavior, in-sample fitted values."""

import re
import warnings

import numpy as np
import pytest
import scipy.linalg

from preimage_gc import fit_var
from preimage_gc.errors import DegenerateInputError, InsufficientSamplesError, RankError
from preimage_gc.varm import DEFAULT_RIDGE, _column_variance, _solve_ridge
from whole_numbers import NOT_WHOLE


def simulate_var1(A, T, x0, noise=None):
    """Reference forward simulation, independent of the library's code."""
    A = np.asarray(A, dtype=float)
    out = np.empty((T, A.shape[0]))
    x = np.asarray(x0, dtype=float)
    for t in range(T):
        x = A @ x
        if noise is not None:
            x = x + noise[t]
        out[t] = x
    return out


def lagged_design(series, lag):
    """The VAR's regression problem built by hand: design rows hold the
    lag-1 block first, each block in column order, and the targets are
    rows lag..T-1."""
    T = series.shape[0]
    return np.hstack([series[lag - ell : T - ell] for ell in range(1, lag + 1)]), series[lag:]


class TestFitVar:
    def test_recovers_noiseless_var1(self):
        A = np.array([[0.5, 0.2], [0.0, 0.4]])
        series = simulate_var1(A, 200, x0=[1.0, -1.0])
        fit = fit_var(series, lag=1, ridge_lambda=0.0)
        np.testing.assert_allclose(fit.coefficients[0], A, atol=1e-6)
        assert fit.residual_variance.max() < 1e-12

    def test_recovers_noisy_var1_approximately(self):
        rng = np.random.default_rng(0)
        A = np.array([[0.6, -0.3], [0.2, 0.5]])
        noise = rng.normal(0, 0.1, size=(5000, 2))
        series = simulate_var1(A, 5000, x0=[0.0, 0.0], noise=noise)
        fit = fit_var(series, lag=1, ridge_lambda=0.0)
        np.testing.assert_allclose(fit.coefficients[0], A, atol=0.05)

    def test_white_noise_residual_variance(self):
        rng = np.random.default_rng(1)
        series = rng.normal(size=(4000, 3))
        fit = fit_var(series, lag=1, ridge_lambda=0.0)
        np.testing.assert_allclose(fit.residual_variance, 1.0, rtol=0.1)

    def test_ols_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(2)
        for D, lag in ((1, 1), (3, 2)):
            series = rng.normal(size=(60, D))
            fit = fit_var(series, lag=lag, ridge_lambda=0.0)
            design, targets = lagged_design(series, lag)
            cross = design.T @ (targets - fit.fitted)
            scale = np.abs(design).max() * np.abs(targets).max()
            assert np.abs(cross).max() < 1e-8 * max(scale, 1.0)

    def test_huge_ridge_shrinks_coefficients(self):
        rng = np.random.default_rng(3)
        series = rng.normal(size=(100, 2))
        fit = fit_var(series, lag=1, ridge_lambda=1e12)
        assert np.abs(fit.coefficients[0]).max() < 1e-6
        np.testing.assert_allclose(fit.fitted, 0.0, atol=1e-6)

    def test_ridge_path_monotone_shrinkage(self):
        rng = np.random.default_rng(4)
        series = rng.normal(size=(80, 3))
        norms = []
        for lam in (0.0, 1e-2, 1.0, 1e2, 1e4):
            fit = fit_var(series, lag=1, ridge_lambda=lam)
            norms.append(np.linalg.norm(fit.coefficients[0]))
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))

    def test_column_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        series = rng.normal(size=(70, 3))
        perm = [2, 0, 1]
        A = fit_var(series, lag=1, ridge_lambda=1e-3).coefficients[0]
        A_perm = fit_var(series[:, perm], lag=1, ridge_lambda=1e-3).coefficients[0]
        np.testing.assert_allclose(A_perm, A[np.ix_(perm, perm)], atol=1e-10)

    def test_rank_deficient_design_without_ridge(self):
        rng = np.random.default_rng(6)
        base = rng.normal(size=(50, 1))
        series = np.hstack([base, base])  # duplicated column
        with pytest.raises(RankError, match="ridge"):
            fit_var(series, lag=1, ridge_lambda=0.0)

    @pytest.mark.parametrize("ridge", [np.nan, np.inf, pytest.param(10**400, id="10**400"), -1.0, None, "1", True, np.bool_(True)])
    def test_rejects_ridge_that_is_negative_or_not_finite(self, ridge):
        # nan used to be reported as overflowing normal equations; None and
        # "1" raised an untyped TypeError, and True was used as 1.0
        series = np.random.default_rng(6).normal(size=(50, 2))
        # the message shows the value as written, so "1" reads '1'
        with pytest.raises(ValueError, match="^ridge_lambda must be finite and >= 0, got " + re.escape(repr(ridge)) + "$"):
            fit_var(series, lag=1, ridge_lambda=ridge)

    @pytest.mark.parametrize("lag", [0, 1.5, *NOT_WHOLE])
    def test_rejects_float_lag(self, lag):
        # 2.0 used to raise an untyped TypeError inside the embedding; the
        # check is PipelineConfig's, so it refuses the same values
        with pytest.raises(ValueError, match="lag must be a positive integer, got " + re.escape(repr(lag))):
            fit_var(np.random.default_rng(6).normal(size=(50, 2)), lag=lag)

    def test_accepts_numpy_integer_lag(self):
        series = np.random.default_rng(6).normal(size=(50, 2))
        assert len(fit_var(series, lag=np.int64(2)).coefficients) == 2

    def test_same_data_ridge_succeeds(self):
        rng = np.random.default_rng(6)
        base = rng.normal(size=(50, 1))
        series = np.hstack([base, base])
        fit = fit_var(series, lag=1, ridge_lambda=1e-3)
        assert np.all(np.isfinite(fit.coefficients[0]))

    def test_too_few_samples(self):
        # rejected outright, with no advisory warning first
        with pytest.raises(InsufficientSamplesError):
            fit_var(np.zeros((2, 2)) + np.arange(2), lag=2)

    def test_warns_below_recommended_samples(self):
        rng = np.random.default_rng(7)
        # recommended floor for D=4, lag=1 is 1 + 4 + 1 = 6
        series = rng.normal(size=(5, 4))
        with pytest.warns(UserWarning, match="recommended"):
            fit_var(series, lag=1, ridge_lambda=1e-3)

    def test_lag_two_coefficient_blocks(self):
        # y_t = 0.5 y_{t-1} + 0.25 y_{t-2}; T large enough that the OLS
        # sampling error sits well inside the 0.05 tolerance
        rng = np.random.default_rng(8)
        y = np.zeros(3000)
        y[0], y[1] = 1.0, 0.5
        shocks = rng.normal(0, 0.1, size=3000)
        for t in range(2, 3000):
            y[t] = 0.5 * y[t - 1] + 0.25 * y[t - 2] + shocks[t]
        fit = fit_var(y[:, None], lag=2, ridge_lambda=0.0)
        assert fit.coefficients[0][0, 0] == pytest.approx(0.5, abs=0.05)
        assert fit.coefficients[1][0, 0] == pytest.approx(0.25, abs=0.05)


class TestNonFiniteInput:
    """The one solver refuses NaN and inf before LAPACK sees them."""

    @pytest.mark.parametrize("ridge", [0.0, DEFAULT_RIDGE])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["design", "targets"])
    def test_solver_raises_degenerate_input(self, where, bad, ridge, capfd):
        rng = np.random.default_rng(20)
        X, Y = rng.normal(size=(30, 3)), rng.normal(size=(30, 2))
        (X if where == "design" else Y)[4, 1] = bad
        with pytest.raises(DegenerateInputError, match=f"NaN or inf in the {where}"):
            _solve_ridge(X, Y, ridge, "design")
        # LAPACK's DLASCL complaints used to reach stdout
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("ridge", [0.0, DEFAULT_RIDGE])
    @pytest.mark.parametrize("row, where", [(0, "design"), (-1, "targets")])
    def test_fit_var_raises_degenerate_input(self, row, where, ridge):
        series = np.random.default_rng(21).normal(size=(40, 2))
        series[row, 0] = np.inf
        with pytest.raises(DegenerateInputError, match=f"NaN or inf in the {where}"):
            fit_var(series, lag=1, ridge_lambda=ridge)

    def test_overflowing_normal_equations(self):
        series = np.random.default_rng(22).normal(size=(40, 2)) * 1e160
        with pytest.raises(DegenerateInputError, match="normal equations overflow"):
            fit_var(series, lag=1, ridge_lambda=DEFAULT_RIDGE)

    def test_overflowing_residual_variance(self):
        series = np.random.default_rng(22).normal(size=(40, 2)) * 1e160
        with pytest.raises(DegenerateInputError, match="residual variance overflows"):
            fit_var(series, lag=1, ridge_lambda=0.0)


class TestFitted:
    def test_hand_example(self):
        # y_t = 2 y_{t-1} fits exactly, so the fitted rows are the targets
        fit = fit_var(np.array([[1.0], [2.0], [4.0]]), lag=1, ridge_lambda=0.0)
        np.testing.assert_allclose(fit.fitted, [[2.0], [4.0]], rtol=1e-12)
        assert fit.fitted.shape == (2, 1)

    @pytest.mark.parametrize("ridge", [0.0, 1e-3])
    @pytest.mark.parametrize("lag", [1, 2, 3])
    def test_fitted_is_design_times_stacked_coefficients(self, lag, ridge):
        # the one-step prediction formula, design @ [A_1^T; ...; A_L^T],
        # reproduces fitted bit for bit
        series = np.random.default_rng(9).normal(size=(50, 3))
        fit = fit_var(series, lag=lag, ridge_lambda=ridge)
        assert fit.fitted.shape == (50 - lag, 3)
        assert len(fit.coefficients) == lag
        stacked = np.vstack([A.T for A in fit.coefficients])
        np.testing.assert_array_equal(fit.fitted, lagged_design(series, lag)[0] @ stacked)

    def test_residual_variance_is_about_fitted(self):
        series = np.random.default_rng(10).normal(size=(40, 2))
        fit = fit_var(series, lag=2, ridge_lambda=1e-3)
        np.testing.assert_array_equal(
            fit.residual_variance, (lagged_design(series, 2)[1] - fit.fitted).var(axis=0)
        )


class TestRidgeSolve:
    """The ridge solve is scipy.linalg.solve(G, X^T Y, assume_a="pos") for
    G = X^T X + lambda I, bit for bit, without scipy's wrapper."""

    @staticmethod
    def scipy_solve(X, Y, ridge):
        G = X.T @ X + ridge * np.eye(X.shape[1])
        return scipy.linalg.solve(G, X.T @ Y, assume_a="pos")

    def test_equals_scipy_on_random_systems(self):
        rng = np.random.default_rng(26)
        orders = set()
        for _ in range(300):
            n = int(rng.integers(1, 21))
            rows = int(rng.integers(1, n + 40))
            X = rng.normal(size=(rows, n)) * rng.uniform(0.1, 10.0, n)
            Y = rng.normal(size=(rows, int(rng.integers(1, 6))))
            ridge = float(10.0 ** rng.uniform(-6.0, 1.0))
            got = _solve_ridge(X, Y, ridge, "design")
            want = self.scipy_solve(X, Y, ridge)
            # tobytes: a signed zero counts as a difference
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            assert got.flags.c_contiguous
            orders.add(n)
        assert orders == set(range(1, 21))

    def test_refused_factorization_is_a_rank_error(self):
        # two equal columns of ones on 64 rows: 1e-300 vanishes next to
        # X^T X = 64, and the Cholesky factorization's second pivot is
        # 64 - (64 / 8)^2 = 0 exactly, however the arithmetic rounds
        X = np.ones((64, 2))
        Y = np.arange(64.0)[:, None]
        with pytest.raises(RankError, match="ridge"):
            _solve_ridge(X, Y, 1e-300, "design")
        with pytest.raises(np.linalg.LinAlgError):
            self.scipy_solve(X, Y, 1e-300)

    def test_warns_of_ill_conditioning_where_scipy_does(self):
        # nearly collinear designs with tiny ridges: the solve warns, and
        # refuses, on exactly the systems scipy.linalg.solve does
        rng = np.random.default_rng(27)
        seen = set()
        for _ in range(150):
            n = int(rng.integers(2, 6))
            X = rng.normal(size=(30, n))
            X[:, -1] = X[:, 0] + 10.0 ** rng.uniform(-9.0, -5.0) * rng.normal(size=30)
            Y = rng.normal(size=(30, 2))
            ridge = float(10.0 ** rng.uniform(-18.0, -10.0))
            outcomes = []
            for solve, refusal in (
                (lambda: self.scipy_solve(X, Y, ridge), np.linalg.LinAlgError),
                (lambda: _solve_ridge(X, Y, ridge, "design"), RankError),
            ):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    try:
                        solve()
                        refused = False
                    except refusal:
                        refused = True
                warned = any(issubclass(w.category, scipy.linalg.LinAlgWarning) for w in caught)
                outcomes.append((refused, warned))
            assert outcomes[0] == outcomes[1]
            seen.add(outcomes[0])
        assert seen == {(False, False), (False, True), (True, False)}


class TestColumnVariance:
    def test_matches_numpy_population_variance(self):
        rng = np.random.default_rng(11)
        R = rng.normal(size=(40, 3)) - rng.normal(size=(40, 3))
        np.testing.assert_array_equal(_column_variance(R), R.var(axis=0))

    def test_exact_prediction_gives_zero(self):
        Y = np.arange(10.0).reshape(5, 2)
        np.testing.assert_array_equal(_column_variance(Y - Y), [0.0, 0.0])

    def test_overflow_raises_degenerate_input(self):
        Y = np.random.default_rng(23).normal(size=(10, 2)) * 1e200
        with pytest.raises(DegenerateInputError, match="residual variance overflows"):
            _column_variance(Y)

    def test_constant_offset_has_zero_variance(self):
        # variance is about the residual mean, so a bias does not count
        np.testing.assert_array_equal(_column_variance(np.full((6, 2), -5.0)), [0.0, 0.0])
