"""VAR fitting: recovery, ridge behavior, prediction identities."""

import numpy as np
import pytest

from preimage_gc import fit_var
from preimage_gc.data import lag_embed
from preimage_gc.errors import DegenerateInputError, InsufficientSamplesError, RankError, ShapeError
from preimage_gc.varm import VarModelFit, predict, residual_variance_about
from preimage_gc.varm import DEFAULT_RIDGE, _solve_ridge


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
            emb = lag_embed(series, lag)
            cross = emb.design.T @ fit.residuals
            scale = np.abs(emb.design).max() * np.abs(emb.targets).max()
            assert np.abs(cross).max() < 1e-8 * max(scale, 1.0)

    def test_huge_ridge_shrinks_coefficients(self):
        rng = np.random.default_rng(3)
        series = rng.normal(size=(100, 2))
        fit = fit_var(series, lag=1, ridge_lambda=1e12)
        assert np.abs(fit.coefficients[0]).max() < 1e-6
        np.testing.assert_allclose(
            fit.residuals, lag_embed(series, 1).targets, atol=1e-6
        )

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

    @pytest.mark.parametrize("ridge", [np.nan, np.inf, -1.0])
    def test_rejects_ridge_that_is_negative_or_not_finite(self, ridge):
        # nan used to be reported as overflowing normal equations
        series = np.random.default_rng(6).normal(size=(50, 2))
        with pytest.raises(ValueError, match="ridge_lambda must be finite and >= 0"):
            fit_var(series, lag=1, ridge_lambda=ridge)

    def test_rejects_float_lag(self):
        # 2.0 used to raise an untyped TypeError inside the embedding
        with pytest.raises(ValueError, match="lag must be a positive integer"):
            fit_var(np.random.default_rng(6).normal(size=(50, 2)), lag=2.0)

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


class TestPredict:
    def test_hand_example(self):
        fit = VarModelFit(
            coefficients=(np.array([[0.5]]),),
            lag=1,
            ridge_lambda=0.0,
            residuals=np.zeros((2, 1)),
            residual_variance=np.zeros(1),
        )
        out = predict(fit, np.array([[1.0], [2.0], [4.0]]))
        np.testing.assert_array_equal(out, [[0.5], [1.0]])

    def test_training_predictions_plus_residuals_recover_targets(self):
        rng = np.random.default_rng(9)
        series = rng.normal(size=(50, 3))
        fit = fit_var(series, lag=2, ridge_lambda=1e-3)
        emb = lag_embed(series, 2)
        np.testing.assert_allclose(
            predict(fit, series) + fit.residuals, emb.targets, atol=1e-12
        )

    def test_zero_coefficients_predict_zero(self):
        fit = VarModelFit(
            coefficients=(np.zeros((2, 2)),),
            lag=1,
            ridge_lambda=0.0,
            residuals=np.zeros((1, 2)),
            residual_variance=np.zeros(2),
        )
        out = predict(fit, np.arange(10.0).reshape(5, 2))
        np.testing.assert_array_equal(out, np.zeros((4, 2)))

    def test_wrong_width(self):
        rng = np.random.default_rng(10)
        fit = fit_var(rng.normal(size=(30, 2)), lag=1)
        with pytest.raises(ShapeError):
            predict(fit, rng.normal(size=(10, 3)))


class TestResidualVarianceAbout:
    def test_matches_numpy_population_variance(self):
        rng = np.random.default_rng(11)
        Y = rng.normal(size=(40, 3))
        Yhat = rng.normal(size=(40, 3))
        np.testing.assert_allclose(
            residual_variance_about(Y, Yhat), (Y - Yhat).var(axis=0), atol=0
        )

    def test_exact_prediction_gives_zero(self):
        Y = np.arange(10.0).reshape(5, 2)
        np.testing.assert_array_equal(residual_variance_about(Y, Y), [0.0, 0.0])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            residual_variance_about(np.zeros((3, 2)), np.zeros((4, 2)))

    def test_overflow_raises_degenerate_input(self):
        Y = np.random.default_rng(23).normal(size=(10, 2)) * 1e200
        with pytest.raises(DegenerateInputError, match="overflows"):
            residual_variance_about(Y, np.zeros_like(Y))

    def test_constant_offset_has_zero_variance(self):
        # variance is about the residual mean, so a bias does not count
        Y = np.zeros((6, 2))
        np.testing.assert_array_equal(
            residual_variance_about(Y, Y + 5.0), [0.0, 0.0]
        )
