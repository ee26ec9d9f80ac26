"""Benchmark generators: ground truths, determinism, stability."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from preimage_gc import GENERATOR_IDS, generate
from preimage_gc.errors import InstabilityError
from preimage_gc.synthgen import (
    LINEAR5_COEFFICIENTS,
    MAGNITUDE_BOUND,
    NONLINEAR5_SQUARED,
    _coefficients_matrix,
    _gt_from_coefficients,
    _node_streams,
    _resolve_params,
)
from whole_numbers import NOT_WHOLE

FIVE_NODE_EDGES = [(0, 1), (1, 2), (1, 3), (3, 4)]


# Reference implementations: the per-step numpy loops that the float
# loops in synthgen replaced, kept as they were. Compared on this machine
# rather than against a stored hash, because np.tanh is SIMD-dependent.


def _ref_guard(state, step):
    if np.max(np.abs(state)) >= MAGNITUDE_BOUND:
        raise InstabilityError(f"trajectory diverged at step {step} (|y| >= {MAGNITUDE_BOUND:g})")


def _diverged_step(exc):
    """The simulation step an InstabilityError's message names."""
    return int(re.fullmatch(r"trajectory diverged at step (\d+) \(\|y\| >= 1e\+06\)", str(exc)).group(1))


def _ref_fanout3(T, seed, params):
    burn = params["burn_in"]
    total = burn + T
    streams = _node_streams(seed, 3)
    noise = np.column_stack(
        [streams[j].normal(0.0, params["noise"], size=total) for j in range(3)]
    )
    y = np.zeros(3)
    out = np.empty((T, 3))
    for t in range(total):
        y = np.array(
            [
                params["a_hub"] * y[0] + noise[t, 0],
                params["tanh_gain"] * np.tanh(y[0])
                + params["tanh_self"] * y[1]
                + noise[t, 1],
                params["square_gain"] * y[0] ** 2
                + params["square_self"] * y[2]
                + noise[t, 2],
            ]
        )
        _ref_guard(y, t)
        if t >= burn:
            out[t - burn] = y
    gt = np.array([[0, 1, 1], [0, 0, 0], [0, 0, 0]])
    return out, gt


def _ref_fanin3(T, seed, params):
    burn = params["burn_in"]
    total = burn + T
    streams = _node_streams(seed, 3)
    noise = np.column_stack(
        [streams[j].normal(0.0, params["noise"], size=total) for j in range(3)]
    )
    y = np.zeros(3)
    out = np.empty((T, 3))
    for t in range(total):
        y = np.array(
            [
                params["a_root"] * y[0] + noise[t, 0],
                params["a_root"] * y[1] + noise[t, 1],
                params["tanh_gain"] * np.tanh(y[0])
                + params["square_gain"] * y[1] ** 2
                + params["sink_self"] * y[2]
                + noise[t, 2],
            ]
        )
        _ref_guard(y, t)
        if t >= burn:
            out[t - burn] = y
    gt = np.array([[0, 0, 1], [0, 0, 1], [0, 0, 0]])
    return out, gt


def _ref_linear5(T, seed, params):
    A = _coefficients_matrix(params)
    N = A.shape[0]
    burn = params["burn_in"]
    total = burn + T
    streams = _node_streams(seed, N)
    noise = np.column_stack(
        [streams[j].normal(0.0, params["noise"], size=total) for j in range(N)]
    )
    y = np.zeros(N)
    out = np.empty((T, N))
    for t in range(total):
        y = A @ y + noise[t]
        _ref_guard(y, t)
        if t >= burn:
            out[t - burn] = y
    return out, _gt_from_coefficients(A)


def _ref_nonlinear5(T, seed, params):
    A = _coefficients_matrix(params)
    N = A.shape[0]
    burn = params["burn_in"]
    total = burn + T
    streams = _node_streams(seed, N)
    noise = np.column_stack(
        [streams[j].normal(0.0, params["noise"], size=total) for j in range(N)]
    )
    y = np.zeros(N)
    out = np.empty((T, N))
    for t in range(total):
        tanh_y = np.tanh(y)
        new = noise[t].copy()
        for j in range(N):
            for i in range(N):
                a = A[j, i]
                if a == 0.0:
                    continue
                if i == j:
                    new[j] += a * y[i]
                elif (j, i) in NONLINEAR5_SQUARED:
                    new[j] += a * y[i] ** 2
                else:
                    new[j] += a * tanh_y[i]
        y = new
        _ref_guard(y, t)
        if t >= burn:
            out[t - burn] = y
    return out, _gt_from_coefficients(A)


REFERENCES = {
    "fanout3": _ref_fanout3,
    "fanin3": _ref_fanin3,
    "linear5": _ref_linear5,
    "nonlinear5": _ref_nonlinear5,
}


class TestGroundTruths:
    def test_logistic2(self):
        dataset = generate("logistic2", 50, 0)
        np.testing.assert_array_equal(dataset.ground_truth, [[0, 1], [0, 0]])

    def test_fanout3_hub_to_both_leaves(self):
        gt = generate("fanout3", 50, 0).ground_truth
        np.testing.assert_array_equal(gt, [[0, 1, 1], [0, 0, 0], [0, 0, 0]])

    def test_fanin3_both_roots_to_sink(self):
        gt = generate("fanin3", 50, 0).ground_truth
        np.testing.assert_array_equal(gt, [[0, 0, 1], [0, 0, 1], [0, 0, 0]])

    def test_five_node_topologies_match_coefficients(self):
        for gen in ("linear5", "nonlinear5"):
            dataset = generate(gen, 50, 0)
            assert np.argwhere(dataset.ground_truth).tolist() == [list(edge) for edge in FIVE_NODE_EDGES]

    def test_coefficient_table_is_stable(self):
        # triangular, so the spectral radius is the largest self term
        assert np.max(np.abs(np.linalg.eigvals(LINEAR5_COEFFICIENTS))) < 1.0
        cross = LINEAR5_COEFFICIENTS[~np.eye(5, dtype=bool)]
        nonzero = np.abs(cross[cross != 0])
        assert np.all((nonzero >= 0.3) & (nonzero <= 0.6))

    def test_edges_match_brute_force_scan(self):
        for gen in GENERATOR_IDS:
            dataset = generate(gen, 50, 3)
            gt = dataset.ground_truth
            expected = [
                [i, j]
                for i in range(gt.shape[0])
                for j in range(gt.shape[1])
                if gt[i, j] == 1
            ]
            assert np.argwhere(gt).tolist() == expected

    def test_diagonal_is_zero(self):
        for gen in GENERATOR_IDS:
            gt = generate(gen, 50, 1).ground_truth
            assert np.all(np.diag(gt) == 0)


class TestDeterminism:
    @pytest.mark.parametrize("gen", GENERATOR_IDS)
    def test_same_seed_bit_identical(self, gen):
        a = generate(gen, 100, 12345)
        b = generate(gen, 100, 12345)
        assert np.array_equal(a.panel.values, b.panel.values)

    @pytest.mark.parametrize("gen", GENERATOR_IDS)
    def test_different_seeds_differ(self, gen):
        a = generate(gen, 100, 1)
        b = generate(gen, 100, 2)
        assert np.abs(a.panel.values - b.panel.values).max() > 1e-6

    @given(
        st.sampled_from(GENERATOR_IDS),
        st.integers(min_value=50, max_value=300),
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=0, max_value=2**64 - 1),
        st.integers(min_value=0, max_value=999),
    )
    @settings(max_examples=60, deadline=None)
    def test_shorter_panel_is_a_prefix(self, gen, T1, extra, seed, burn_in):
        # bench takes every T's panel from one trajectory at the largest T
        params = {"burn_in": burn_in}
        short = generate(gen, T1, seed, params=params).panel.values
        long = generate(gen, T1 + extra, seed, params=params).panel.values
        assert short.tobytes() == long[:T1].tobytes()

    def test_negative_seed_is_folded_deterministically(self):
        a = generate("linear5", 60, -5)
        b = generate("linear5", 60, -5)
        assert np.array_equal(a.panel.values, b.panel.values)
        assert a.seed == (-5) & 0xFFFFFFFFFFFFFFFF


class TestTrajectories:
    @pytest.mark.parametrize("gen", GENERATOR_IDS)
    def test_values_finite_and_bounded(self, gen):
        values = generate(gen, 200, 7).panel.values
        assert np.all(np.isfinite(values))
        assert np.abs(values).max() < 1e6

    @pytest.mark.parametrize("gen", GENERATOR_IDS)
    def test_no_drift_between_halves(self, gen):
        # stationarity sanity: per-node variance within 10x across halves
        for seed in range(3):
            values = generate(gen, 400, seed).panel.values
            first = values[:200].var(axis=0)
            second = values[200:].var(axis=0)
            ratio = np.maximum(first, second) / np.minimum(first, second)
            assert ratio.max() < 10.0

    def test_logistic_states_stay_in_unit_interval(self):
        params = {"obs_noise": 0.0}
        values = generate("logistic2", 500, 11, params=params).panel.values
        assert values.min() > 0.0
        assert values.max() < 1.0

    def test_node_count_and_names(self):
        dataset = generate("nonlinear5", 60, 0)
        assert dataset.panel.node_names == ("y1", "y2", "y3", "y4", "y5")
        assert dataset.panel.values.shape == (60, 5)


class TestParameters:
    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            generate("fanout3", 60, 0, params={"gain": 2.0})

    def test_too_short_series_rejected(self):
        with pytest.raises(ValueError, match="T must be >= 50"):
            generate("logistic2", 10, 0)

    def test_unknown_generator_rejected(self):
        with pytest.raises(ValueError, match="unknown generator"):
            generate("lorenz", 60, 0)

    @pytest.mark.parametrize(
        "T, seed, message",
        [
            (100.9, 0, "T must be an integer, got 100.9"),
            ("100", 0, "T must be an integer, got '100'"),
            (np.float64(100.0), 0, f"T must be an integer, got {np.float64(100.0)!r}"),
            (True, 0, "T must be an integer, got True"),
            (100, 1.7, "seed must be an integer, got 1.7"),
            (100, True, "seed must be an integer, got True"),
            (100, None, "seed must be an integer, got None"),
        ],
    )
    def test_non_integer_T_or_seed_rejected(self, T, seed, message):
        with pytest.raises(ValueError) as exc:
            generate("fanout3", T, seed)
        assert str(exc.value) == message

    def test_numpy_integers_accepted(self):
        a = generate("fanout3", np.int64(60), np.uint64(3))
        b = generate("fanout3", 60, 3)
        assert a.panel.values.tobytes() == b.panel.values.tobytes()
        assert a.seed == 3

    def test_override_changes_output(self):
        a = generate("fanout3", 100, 4)
        b = generate("fanout3", 100, 4, params={"tanh_gain": 1.4})
        assert not np.array_equal(a.panel.values, b.panel.values)
        assert b.params["tanh_gain"] == 1.4

    def test_unstable_parameters_raise(self):
        with pytest.raises(InstabilityError) as exc:
            generate("fanout3", 60, 0, params={"square_self": 1.5})
        assert _diverged_step(exc.value) >= 0

    def test_coefficient_override_changes_ground_truth(self):
        A = np.array([[0.5, 0.0], [0.4, 0.5]])
        dataset = generate("linear5", 80, 2, params={"coefficients": A})
        np.testing.assert_array_equal(dataset.ground_truth, [[0, 1], [0, 0]])
        assert dataset.panel.values.shape == (80, 2)

    def test_non_square_coefficients_rejected(self):
        with pytest.raises(ValueError, match=r"^coefficients must be square, got shape \(2, 3\)$"):
            generate("linear5", 60, 0, params={"coefficients": np.full((2, 3), 0.1)})

    # inf used to raise OverflowError, nan int()'s own ValueError and None
    # a TypeError; True ran as a burn-in of 1 and 1000.0 as 1000
    @pytest.mark.parametrize("burn_in", [-1, 1000.0, *NOT_WHOLE])
    def test_burn_in_must_be_nonnegative(self, burn_in):
        message = "burn_in must be a nonnegative integer, got " + repr(burn_in)
        with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
            generate("linear5", 60, 0, params={"burn_in": burn_in})

    @pytest.mark.parametrize("burn_in", [2, np.int64(2), np.int64(5)])
    def test_whole_burn_in_is_stored_as_int(self, burn_in):
        # a Python int keeps synth's params sidecar JSON-serializable
        stored = generate("linear5", 60, 0, params={"burn_in": burn_in}).params["burn_in"]
        assert type(stored) is int and stored == burn_in


# a 4-node system with a squared (3, 1) coupling, negative terms and no
# self term on node 2
FOUR_NODE_COEFFICIENTS = np.array(
    [
        [0.40, 0.00, 0.00, 0.30],
        [-0.50, 0.55, 0.00, 0.00],
        [0.00, 0.35, 0.00, 0.00],
        [0.00, 0.45, -0.30, 0.25],
    ]
)

OVERRIDES = {
    "fanout3": {"a_hub": 0.8, "tanh_gain": 1.4, "square_self": 0.2, "burn_in": 0},
    "fanin3": {"a_root": -0.6, "square_gain": 0.9, "noise": 0.3, "burn_in": 17},
    "linear5": {"coefficients": FOUR_NODE_COEFFICIENTS, "burn_in": 5},
    "nonlinear5": {"coefficients": FOUR_NODE_COEFFICIENTS, "noise": 0.4},
}

# Each diverges in a few dozen steps: during the default burn-in, and in
# the kept window when burn_in is 10.
UNSTABLE = {
    "fanout3": {"square_self": 1.5},
    "fanin3": {"a_root": 1.3},
    "linear5": {"coefficients": np.diag([0.5, 1.6, 0.3])},
    "nonlinear5": {"coefficients": FOUR_NODE_COEFFICIENTS + np.diag([0, 0, 0, 1.4])},
}


class TestAgainstReference:
    @pytest.mark.parametrize("gen", sorted(REFERENCES))
    @pytest.mark.parametrize("T", [50, 137, 500])
    def test_default_params_bit_identical(self, gen, T):
        for seed in (0, 1, 7, 12345):
            params = _resolve_params(gen, {})
            want, want_gt = REFERENCES[gen](T, seed, params)
            got = generate(gen, T, seed)
            assert np.array_equal(got.panel.values, want)
            assert np.array_equal(got.ground_truth, want_gt)

    @pytest.mark.parametrize("gen", sorted(REFERENCES))
    def test_overridden_params_bit_identical(self, gen):
        # several seeds: a 1-ulp change in one square often rounds away
        for T, seed in [(60, 3)] + [(200, s) for s in range(6)]:
            params = _resolve_params(gen, OVERRIDES[gen])
            want, want_gt = REFERENCES[gen](T, seed, params)
            got = generate(gen, T, seed, params=OVERRIDES[gen])
            assert np.array_equal(got.panel.values, want)
            assert np.array_equal(got.ground_truth, want_gt)


class TestDivergence:
    @pytest.mark.parametrize("gen", sorted(REFERENCES))
    @pytest.mark.parametrize("burn_in", [1000, 10])
    def test_same_step_and_message_as_reference(self, gen, burn_in):
        overrides = dict(UNSTABLE[gen], burn_in=burn_in)
        params = _resolve_params(gen, overrides)
        with pytest.raises(InstabilityError) as want:
            REFERENCES[gen](60, 5, params)
        # the run blows up inside the kept window only when burn_in is short
        assert (_diverged_step(want.value) >= burn_in) == (burn_in == 10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InstabilityError) as got:
                generate(gen, 60, 5, params=overrides)
        assert str(got.value) == str(want.value)
