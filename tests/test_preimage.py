"""Pre-image map: recovery, round trips, linearity, ridge behavior."""

import warnings

import numpy as np
import pytest

from preimage_gc import (
    KernelSpec,
    fit_kernel_pca,
    learn_preimage,
    normalize_columns,
    reconstruct,
)
from preimage_gc.errors import DegenerateInputError, RankError
from preimage_gc.preimage import PreimageMap
from preimage_gc.varm import DEFAULT_RIDGE, _solve_ridge


class TestLearnPreimage:
    def test_recovers_known_map(self):
        rng = np.random.default_rng(0)
        gamma_true = rng.normal(size=(3, 4))
        H = rng.normal(size=(50, 4))
        Y = H @ gamma_true.T
        pmap = learn_preimage(Y, H, ridge_lambda=0.0)
        np.testing.assert_allclose(pmap.gamma, gamma_true, atol=1e-8)
        assert pmap.training_fit_error < 1e-16

    def test_identity_features_give_identity_map(self):
        rng = np.random.default_rng(1)
        Y = rng.normal(size=(40, 3))
        pmap = learn_preimage(Y, Y, ridge_lambda=0.0)
        np.testing.assert_allclose(pmap.gamma, np.eye(3), atol=1e-10)

    def test_training_fit_error_matches_reconstruction(self):
        rng = np.random.default_rng(2)
        Y = rng.normal(size=(30, 2))
        H = rng.normal(size=(30, 5))
        pmap = learn_preimage(Y, H, ridge_lambda=0.5)
        mse = float(np.mean((reconstruct(pmap, H) - Y) ** 2))
        assert mse == pytest.approx(pmap.training_fit_error, abs=1e-12)

    @pytest.mark.parametrize("scale", [1e160, 1e300])
    def test_overflowing_training_error_raises(self, scale):
        # used to come back inf after "RuntimeWarning: overflow encountered in square"
        rng = np.random.default_rng(5)
        Y, H = rng.normal(size=(20, 2)), rng.normal(size=(20, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateInputError, match="training error overflows"):
                learn_preimage(Y * scale, H)

    @pytest.mark.parametrize("scale", [1.0, 1e150])
    def test_finite_training_error_is_the_mean_squared_residual(self, scale):
        rng = np.random.default_rng(5)
        Y, H = scale * rng.normal(size=(20, 2)), rng.normal(size=(20, 3))
        Gt = _solve_ridge(H, Y, DEFAULT_RIDGE, "feature matrix")
        assert learn_preimage(Y, H).training_fit_error == float(np.mean((Y - H @ Gt) ** 2))

    def test_ridge_never_improves_training_fit(self):
        rng = np.random.default_rng(3)
        Y = rng.normal(size=(40, 3))
        H = rng.normal(size=(40, 6))
        errors = [
            learn_preimage(Y, H, ridge_lambda=lam).training_fit_error
            for lam in (0.0, 1e-3, 1e-1, 10.0)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(errors, errors[1:]))

    def test_rank_deficient_features_without_ridge(self):
        rng = np.random.default_rng(4)
        h = rng.normal(size=(30, 1))
        H = np.hstack([h, h])
        with pytest.raises(RankError, match="ridge"):
            learn_preimage(rng.normal(size=(30, 2)), H, ridge_lambda=0.0)

    @pytest.mark.parametrize("ridge", [0.0, DEFAULT_RIDGE])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["targets", "feature matrix"])
    def test_nonfinite_input_raises(self, where, bad, ridge):
        # an inf target used to give an all-NaN gamma without an error
        rng = np.random.default_rng(30)
        Y, H = rng.normal(size=(20, 2)), rng.normal(size=(20, 3))
        (Y if where == "targets" else H)[5, 0] = bad
        with pytest.raises(DegenerateInputError, match=f"NaN or inf in the {where}"):
            learn_preimage(Y, H, ridge_lambda=ridge)

    def test_row_mismatch(self):
        with pytest.raises(ValueError, match="^row mismatch: Y has 10 rows, H has 9$"):
            learn_preimage(np.zeros((10, 2)), np.zeros((9, 2)))

    def test_warns_when_underdetermined(self):
        rng = np.random.default_rng(5)
        with pytest.warns(UserWarning, match="underdetermined"):
            learn_preimage(
                rng.normal(size=(4, 2)), rng.normal(size=(4, 6)), ridge_lambda=1e-3
            )


class TestReconstruct:
    def test_hand_example(self):
        pmap = PreimageMap(gamma=np.array([[2.0], [3.0]]), training_fit_error=0.0)
        out = reconstruct(pmap, np.array([[1.0], [-1.0]]))
        np.testing.assert_array_equal(out, [[2.0, 3.0], [-2.0, -3.0]])

    def test_zero_features_reconstruct_zero(self):
        pmap = PreimageMap(gamma=np.ones((3, 2)), training_fit_error=0.0)
        np.testing.assert_array_equal(
            reconstruct(pmap, np.zeros((4, 2))), np.zeros((4, 3))
        )

    def test_linearity(self):
        rng = np.random.default_rng(6)
        pmap = learn_preimage(
            rng.normal(size=(20, 3)), rng.normal(size=(20, 4)), ridge_lambda=1e-3
        )
        H1 = rng.normal(size=(8, 4))
        H2 = rng.normal(size=(8, 4))
        lhs = reconstruct(pmap, 2.0 * H1 + 0.5 * H2)
        rhs = 2.0 * reconstruct(pmap, H1) + 0.5 * reconstruct(pmap, H2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_wrong_feature_width(self):
        pmap = PreimageMap(gamma=np.ones((2, 3)), training_fit_error=0.0)
        with pytest.raises(ValueError, match="^H must have 3 columns, got 4$"):
            reconstruct(pmap, np.zeros((5, 4)))


class TestKernelRoundTrip:
    def test_linear_kernel_full_rank_round_trip(self):
        rng = np.random.default_rng(7)
        Y = normalize_columns(rng.normal(size=(60, 3)))
        rank = int(np.linalg.matrix_rank(Y - Y.mean(axis=0)))
        model = fit_kernel_pca(KernelSpec("linear"), Y, rank)
        H = model.coordinates
        pmap = learn_preimage(Y, H, ridge_lambda=0.0)
        mse = float(np.mean((reconstruct(pmap, H) - Y) ** 2))
        assert mse < 1e-10

    def test_rbf_round_trip_on_smooth_signals(self):
        t = np.arange(200)
        Y = np.column_stack(
            [
                np.sin(2 * np.pi * t / 40.0),
                np.cos(2 * np.pi * t / 25.0),
                np.sin(2 * np.pi * t / 60.0 + 0.5),
            ]
        )
        Yn = normalize_columns(Y)
        model = fit_kernel_pca(KernelSpec("rbf"), Yn, 0.99)
        H = model.coordinates
        pmap = learn_preimage(Yn, H, ridge_lambda=1e-3)
        mse = float(np.mean((reconstruct(pmap, H) - Yn) ** 2))
        assert mse < 0.05 * float(np.var(Yn))
