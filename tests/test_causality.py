"""End-to-end causal pipeline: index formula, graphs, invariances."""

import csv
import io
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

import preimage_gc.causality as causality_module
from preimage_gc import (
    IDENTITY,
    KernelSpec,
    PipelineConfig,
    TimeSeriesPanel,
    fit_var,
    infer_graph,
    linear_gc_baseline,
    normalize_columns,
    reconstruct,
    run_full_model,
)
from preimage_gc.causality import CausalGraph, FullModelResult, _log_ratio
from preimage_gc.errors import (
    DegenerateInputError,
    DegenerateModelError,
    InsufficientSamplesError,
    RankError,
)
from preimage_gc.kernels import LANCZOS_MIN_ORDER
from preimage_gc.synthgen import GENERATOR_IDS, generate
from preimage_gc.varm import VarModelFit
from granger_reference import lstsq_granger_log_ratios
from whole_numbers import NOT_WHOLE


def random_panel(T, N, seed, names=None):
    rng = np.random.default_rng(seed)
    if names is None:
        names = tuple(f"n{j}" for j in range(N))
    return TimeSeriesPanel(rng.normal(size=(T, N)), names)


def chain_panel(T, seed):
    """a -> b, with c independent; linear dynamics, noise 0.1."""
    rng = np.random.default_rng(seed)
    total = T + 200
    e = rng.normal(0.0, 0.1, size=(total, 3))
    y = np.zeros((total, 3))
    for t in range(1, total):
        y[t, 0] = 0.5 * y[t - 1, 0] + e[t, 0]
        y[t, 1] = 0.6 * y[t - 1, 0] + 0.3 * y[t - 1, 1] + e[t, 1]
        y[t, 2] = 0.5 * y[t - 1, 2] + e[t, 2]
    return TimeSeriesPanel(y[200:], ("a", "b", "c"))


def _clamped(log_ratio):
    """The delta a CausalGraph works out for one log ratio."""
    return CausalGraph(np.array([[0.0, log_ratio], [0.0, 0.0]]), ("i", "j")).delta[0, 1]


class TestCausalityIndex:
    """The paper's index: the pipeline's score, _log_ratio, clamped at zero
    by CausalGraph."""

    def test_equal_variances_give_zero(self):
        assert _clamped(_log_ratio(1.0, 1.0)) == 0.0

    def test_e_ratio_gives_one(self):
        assert _clamped(_log_ratio(math.e, 1.0)) == 1.0

    def test_smaller_reduced_clamps_to_zero(self):
        raw = _log_ratio(0.5, 1.0)
        assert raw == math.log(0.5)
        assert _clamped(raw) == 0.0

    def test_nonpositive_variance_rejected(self):
        for var_reduced, var_full in ((0.0, 1.0), (1.0, -2.0), (float("nan"), 1.0)):
            with pytest.raises(DegenerateModelError, match="ridge"):
                _log_ratio(var_reduced, var_full)


class TestPipelineConfig:
    def test_defaults(self):
        config = PipelineConfig()
        assert config.kernel == KernelSpec("rbf")
        assert config.kernel.bandwidth is None
        assert config.p_select == 0.95
        assert config.lag == 1
        assert config.ridge_var == 1e-3
        assert config.ridge_preimage == 1e-3

    def test_rejects_unknown_kernel_string(self):
        with pytest.raises(ValueError, match="kernel"):
            PipelineConfig(kernel="quadratic")

    def test_rbf_string_is_not_a_kernel(self):
        # the median rbf is KernelSpec("rbf"); "linear-identity" is the one sentinel
        with pytest.raises(ValueError, match="kernel"):
            PipelineConfig(kernel="rbf")

    def test_rejects_bad_p_select(self):
        with pytest.raises(ValueError):
            PipelineConfig(p_select=0)
        with pytest.raises(ValueError):
            PipelineConfig(p_select=1.2)

    def test_rejects_negative_ridge(self):
        with pytest.raises(ValueError, match="ridge"):
            PipelineConfig(ridge_var=-1.0)

    @pytest.mark.parametrize("lag", [1.5, 0, *NOT_WHOLE])
    def test_rejects_lag_that_is_not_a_positive_integer(self, lag):
        # 2.0 used to pass and crash the VAR's lag embedding with an untyped TypeError
        with pytest.raises(ValueError, match="lag must be a positive integer, got " + re.escape(repr(lag))):
            PipelineConfig(lag=lag)

    def test_accepts_numpy_integer_lag(self):
        assert PipelineConfig(lag=np.int64(2)).lag == 2

    @pytest.mark.parametrize("key", ["ridge_var", "ridge_preimage"])
    @pytest.mark.parametrize("ridge", [np.nan, np.inf, pytest.param(10**400, id="10**400"), None, "1", True, np.bool_(True)])
    def test_rejects_nonfinite_ridge(self, key, ridge):
        # nan and inf used to be reported as overflowing normal equations;
        # None and "1" raised an untyped TypeError, and True passed as 1;
        # the message shows each value as written, so "1" reads '1'
        ridges = {"ridge_var": 1e-3, "ridge_preimage": 1e-3, key: ridge}
        got = f"{ridges['ridge_var']!r}, {ridges['ridge_preimage']!r}"
        with pytest.raises(ValueError, match="^ridge_var and ridge_preimage must be finite and >= 0, got " + re.escape(got) + "$"):
            PipelineConfig(**{key: ridge})


class TestRunFullModel:
    def test_identity_pipeline_matches_plain_var(self):
        panel = random_panel(120, 3, seed=0)
        config = PipelineConfig(kernel=IDENTITY, ridge_var=0.0, ridge_preimage=0.0)
        result = run_full_model(panel, config)
        direct = fit_var(normalize_columns(panel.values, panel.node_names), lag=1, ridge_lambda=0.0)
        np.testing.assert_allclose(
            result.residual_variance, direct.residual_variance, rtol=1e-8
        )

    def test_reconstruction_alignment(self):
        panel = random_panel(80, 3, seed=1)
        result = run_full_model(panel, PipelineConfig(lag=2))
        assert result.reconstruction.shape == (78, 3)
        assert result.residual_variance.shape == (3,)

    def test_stage_tag_on_normalize_failure(self):
        values = np.column_stack([np.arange(20.0), np.full(20, 3.0)])
        panel = TimeSeriesPanel(values, ("ok", "flat"))
        with pytest.raises(DegenerateInputError, match=r"\[normalize\].*flat"):
            run_full_model(panel)

    @pytest.mark.parametrize("method", ["kernel", "linear-gc"])
    def test_overflowing_panel_fails_in_normalize(self, method):
        # both paths used to blame a later stage: "[pca] median pairwise
        # distance is zero" and "[var] design has rank 0"
        from preimage_gc import generate

        panel = generate("nonlinear5", 100, 0).panel
        huge = TimeSeriesPanel(panel.values * 1e200, panel.node_names)
        run = infer_graph if method == "kernel" else linear_gc_baseline
        with pytest.raises(DegenerateInputError, match=rf"\[normalize\] {panel.node_names[0]} .*overflows"):
            run(huge)

    def test_preimage_failure_is_tagged(self):
        # a duplicated column leaves the identity features rank-deficient,
        # which only the pre-image's unpenalized least squares refuses
        panel = generate("nonlinear5", 100, 0).panel
        values = panel.values.copy()
        values[:, 4] = values[:, 3]
        config = PipelineConfig(kernel=IDENTITY, ridge_preimage=0.0)
        with pytest.raises(RankError, match=r"^\[preimage\] feature matrix has rank 4 < 5; use a positive ridge_lambda$"):
            run_full_model(TimeSeriesPanel(values, panel.node_names), config)

    def test_too_short_panel(self):
        panel = random_panel(4, 2, seed=2)
        with pytest.raises(InsufficientSamplesError):
            run_full_model(panel, PipelineConfig(lag=3))

    def test_explicit_kernel_spec_is_used(self):
        panel = random_panel(60, 2, seed=3)
        config = PipelineConfig(kernel=KernelSpec("rbf", bandwidth=0.7), p_select=10)
        result = run_full_model(panel, config)
        assert result.kpca.spec.bandwidth == 0.7
        assert result.features.shape == (60, 10)

    def test_training_features_equal_projection(self):
        # the pipeline reads training coordinates off the fit instead of
        # projecting the training points through their centered gram Kc;
        # both eigensolver paths
        for T in (120, LANCZOS_MIN_ORDER + 50):
            panel = random_panel(T, 3, seed=5)
            result = run_full_model(panel)
            D = cdist(result.normalized, result.normalized, "sqeuclidean")
            K = np.exp(D / (-2.0 * result.kpca.spec.bandwidth**2))
            Kc = K - K.mean(axis=0)[None, :] - K.mean(axis=1)[:, None] + K.mean()
            ref = Kc @ result.kpca.dual_coefficients
            coordinates = result.kpca.coordinates
            assert np.max(np.abs(coordinates - ref)) <= 1e-10 * np.max(np.abs(ref)), T
            np.testing.assert_array_equal(result.features, coordinates)

    @pytest.mark.parametrize("config", [
        PipelineConfig(),
        PipelineConfig(kernel=IDENTITY, lag=2),
        PipelineConfig(kernel=KernelSpec("polynomial"), p_select=4, lag=3),
    ], ids=["rbf", "identity-lag2", "polynomial-lag3"])
    def test_reconstruction_is_the_preimage_of_the_var_fitted_values(self, config):
        # the pre-image stage maps the VAR's own in-sample predictions back
        result = run_full_model(random_panel(90, 3, seed=6), config)
        np.testing.assert_array_equal(
            result.reconstruction, reconstruct(result.preimage_map, result.var_fit.fitted)
        )
        assert result.var_fit.fitted.shape == (90 - config.lag, result.features.shape[1])
        # the residual variance FullModelResult documents, bit for bit
        np.testing.assert_array_equal(
            result.residual_variance,
            (result.normalized[config.lag :] - result.reconstruction).var(axis=0),
        )

    @pytest.mark.parametrize("config", [
        PipelineConfig(),
        PipelineConfig(kernel=IDENTITY),
        PipelineConfig(lag=2),
    ], ids=["rbf", "identity", "rbf-lag2"])
    def test_rebuilt_record_works_out_the_same_bits(self, config):
        # a FullModelResult is its normalized inputs and stage models; the
        # reconstruction and residual variance are worked out from them
        r = run_full_model(random_panel(90, 3, seed=7), config)
        rebuilt = FullModelResult(r.normalized, r.kpca, r.var_fit, r.preimage_map)
        assert rebuilt.reconstruction.tobytes() == r.reconstruction.tobytes()
        assert rebuilt.residual_variance.tobytes() == r.residual_variance.tobytes()

    def test_record_whose_rows_do_not_match_is_refused(self):
        r = run_full_model(random_panel(90, 3, seed=8))
        fit = r.var_fit
        one_row = VarModelFit(fit.coefficients, fit.fitted[:1], fit.residual_variance)
        for normalized, var_fit, shapes in (
            (r.normalized[1:], fit, "(89, 3), normalized[lag:] has (88, 3)"),
            (np.vstack([r.normalized, r.normalized[:1]]), fit, "(89, 3), normalized[lag:] has (90, 3)"),
            (r.normalized[:, :2], fit, "(89, 3), normalized[lag:] has (89, 2)"),
            # a 1-row fitted used to broadcast against every row
            (r.normalized, one_row, "(1, 3), normalized[lag:] has (89, 3)"),
        ):
            with pytest.raises(ValueError, match="^reconstruction has shape " + re.escape(shapes) + "$"):
                FullModelResult(normalized, r.kpca, var_fit, r.preimage_map)


class TestInferGraph:
    def test_degenerate_config_equals_baseline_exactly(self):
        # looped rather than parametrized so the test id stays stable;
        # lags 2 and 3 pin the solver on multi-block designs
        panel = random_panel(150, 4, seed=4)
        for lag in (1, 2, 3):
            config = PipelineConfig(
                kernel=IDENTITY, p_select=4, lag=lag, ridge_var=0.0, ridge_preimage=0.0
            )
            a = infer_graph(panel, config)
            b = linear_gc_baseline(panel, lag=lag)
            assert np.array_equal(a.delta, b.delta), lag
            assert np.array_equal(a.raw_log_ratios, b.raw_log_ratios), lag

    def test_linear_baseline_matches_plain_lstsq(self):
        panel = chain_panel(200, seed=6)
        for lag in (1, 2, 3):
            graph = linear_gc_baseline(panel, lag=lag)
            raw = lstsq_granger_log_ratios(panel.values, lag)
            np.testing.assert_allclose(graph.raw_log_ratios, raw, rtol=0, atol=1e-10, err_msg=f"lag {lag}")
            np.testing.assert_allclose(graph.delta, np.maximum(raw, 0.0), rtol=0, atol=1e-10, err_msg=f"lag {lag}")

    def test_linear_kernel_approximates_baseline(self):
        # a genuine linear-kernel feature space is a rotation of the
        # inputs, which the VAR and pre-image stages absorb
        panel = random_panel(150, 3, seed=5)
        config = PipelineConfig(
            kernel=KernelSpec("linear"), p_select=3, ridge_var=0.0, ridge_preimage=0.0
        )
        a = infer_graph(panel, config)
        b = linear_gc_baseline(panel)
        np.testing.assert_allclose(a.delta, b.delta, atol=1e-6)

    def test_delta_is_clamped_raw(self):
        panel = random_panel(100, 3, seed=6)
        graph = infer_graph(panel)
        np.testing.assert_allclose(
            graph.delta, np.maximum(graph.raw_log_ratios, 0.0), atol=0
        )

    def test_delta_is_the_entrywise_clamp_on_the_identity_grid(self):
        # the identity grid of tools/bench_record.py without its T = 1000
        # (10 s): np.maximum gives the bits of max(log ratio, 0.0)
        configs = [
            PipelineConfig(),
            PipelineConfig(lag=2),
            PipelineConfig(p_select=0.999),
            PipelineConfig(kernel=KernelSpec("polynomial"), p_select=4),
            PipelineConfig(kernel=KernelSpec("linear"), p_select=2),
        ]
        for generator in GENERATOR_IDS:
            for T in (50, 300):
                for seed in (0, 1):
                    panel = generate(generator, T, seed).panel
                    graphs = [infer_graph(panel, config) for config in configs]
                    for graph in graphs + [linear_gc_baseline(panel)]:
                        raw = graph.raw_log_ratios
                        clamped = np.array([[max(x, 0.0) for x in row] for row in raw.tolist()])
                        assert graph.delta.tobytes() == clamped.tobytes(), (generator, T, seed)

    def test_detects_chain_edge(self):
        hits = 0
        for seed in range(20):
            graph = infer_graph(chain_panel(300, seed))
            flat = graph.delta.copy()
            np.fill_diagonal(flat, -np.inf)
            hits += np.unravel_index(np.argmax(flat), flat.shape) == (0, 1)
        assert hits >= 15

    def test_deterministic(self):
        panel = chain_panel(200, 3)
        a = infer_graph(panel)
        b = infer_graph(panel)
        assert np.array_equal(a.delta, b.delta)

    def test_column_permutation_equivariance(self):
        panel = chain_panel(200, 7)
        perm = [2, 0, 1]
        permuted = TimeSeriesPanel(
            panel.values[:, perm], tuple(panel.node_names[p] for p in perm)
        )
        a = infer_graph(panel)
        b = infer_graph(permuted)
        np.testing.assert_allclose(
            b.delta, a.delta[np.ix_(perm, perm)], atol=1e-8
        )

    def test_per_column_scale_invariance(self):
        panel = chain_panel(200, 8)
        scaled = TimeSeriesPanel(
            panel.values * np.array([5.0, 0.25, 40.0]), panel.node_names
        )
        a = infer_graph(panel)
        b = infer_graph(scaled)
        np.testing.assert_allclose(b.delta, a.delta, atol=1e-8)

    def test_two_node_panel(self):
        # master-slave chaos: strong forward edge, weak reverse
        from preimage_gc import generate

        dataset = generate("logistic2", 300, 1)
        graph = infer_graph(dataset.panel)
        assert graph.delta.shape == (2, 2)
        assert graph.delta[0, 1] > graph.delta[1, 0]

    def test_integer_p_select_capped_on_reduced_panel(self):
        # linear kernel rank equals the column count, so P=3 only fits
        # the full panel; the leave-one-out refits must cap, not fail
        panel = random_panel(100, 3, seed=9)
        config = PipelineConfig(kernel=KernelSpec("linear"), p_select=3)
        graph = infer_graph(panel, config)
        assert np.all(np.isfinite(graph.delta))

    def test_capped_median_rbf_refit_builds_its_own_gram(self, monkeypatch):
        # 40 components fit the 2-node logistic2 panel, not the 1-node
        # reduced ones; the capped refit must equal a direct fit at the
        # achievable rank and take its gram from the same one-pdist path
        import preimage_gc.kernels as kernels_module
        from preimage_gc import generate

        events = []
        fit, rbf_gram = causality_module.fit_kernel_pca, kernels_module._rbf_gram

        def fit_seen(*args):
            events.append("fit")
            return fit(*args)

        def gram_seen(*args):
            events.append("gram")
            return rbf_gram(*args)

        values = generate("logistic2", 300, 0).panel.values[:, [1]]
        config = PipelineConfig(p_select=40)
        monkeypatch.setattr(causality_module, "fit_kernel_pca", fit_seen)
        monkeypatch.setattr(kernels_module, "_rbf_gram", gram_seen)
        names = ("n0",)
        capped = causality_module._fit_pipeline(values, config, names, cap_rank=True)
        # the refused fit and the refit each build one gram
        assert events == ["fit", "gram", "fit", "gram"]
        P = capped.kpca.n_components
        assert P < 40
        direct = causality_module._fit_pipeline(values, PipelineConfig(p_select=P), names)
        assert capped.kpca.spec == direct.kpca.spec
        np.testing.assert_array_equal(capped.features, direct.features)
        np.testing.assert_array_equal(capped.residual_variance, direct.residual_variance)

    def test_overrequested_p_select_still_fails_on_full_panel(self):
        panel = random_panel(100, 3, seed=10)
        config = PipelineConfig(kernel=KernelSpec("linear"), p_select=30)
        with pytest.raises(RankError, match=r"\[pca\]"):
            infer_graph(panel, config)

    def test_reduced_model_failure_names_node(self, monkeypatch):
        real = causality_module._fit_pipeline

        def flaky(values, config, node_names, cap_rank=False):
            if values.shape[1] == 2:
                raise RankError("synthetic failure", achievable_rank=1)
            return real(values, config, node_names, cap_rank)

        monkeypatch.setattr(causality_module, "_fit_pipeline", flaky)
        panel = random_panel(80, 3, seed=11)
        with pytest.raises(RankError, match="excluding node 'n0'"):
            infer_graph(panel)

    def test_strengthening_an_edge_does_not_weaken_its_delta(self):
        from preimage_gc import generate

        medians = []
        for gain in (0.4, 0.8):
            deltas = [
                infer_graph(
                    generate("fanout3", 300, seed, params={"tanh_gain": gain}).panel
                ).delta[0, 1]
                for seed in range(20)
            ]
            medians.append(np.median(deltas))
        assert medians[1] >= medians[0]


# one side of the Lanczos crossover each: dense eigh at 150, Lanczos at 250
CROSSOVER_SIDES = [LANCZOS_MIN_ORDER - 50, LANCZOS_MIN_ORDER + 50]


class TestAwkwardPanels:
    """What both paths do on panels at the edge of what the method can use."""

    @pytest.mark.parametrize("T", CROSSOVER_SIDES)
    def test_duplicated_column(self, T):
        # the kernel lift absorbs the copy; the zero-ridge linear design cannot
        panel = generate("nonlinear5", T, 0).panel
        values = np.column_stack([panel.values, panel.values[:, 0]])
        dup = TimeSeriesPanel(values, panel.node_names + ("copy",))
        graph = infer_graph(dup)
        assert graph.delta.shape == (6, 6) and np.all(np.isfinite(graph.delta))
        with pytest.raises(RankError, match=r"^\[var\] design has rank 5 < 6"):
            linear_gc_baseline(dup)

    @pytest.mark.parametrize("T", CROSSOVER_SIDES)
    def test_near_constant_column_scores_as_its_fluctuation(self, T):
        # normalization scales 1 + 1e-9 z back to z, up to the 1e-7 relative
        # precision left in the column
        panel = generate("nonlinear5", T, 0).panel
        z = np.random.default_rng(T).normal(size=T)
        noise, flat = panel.values.copy(), panel.values.copy()
        noise[:, 2] = z
        flat[:, 2] = 1.0 + 1e-9 * z
        for run in (infer_graph, linear_gc_baseline):
            ref = run(TimeSeriesPanel(noise, panel.node_names))
            got = run(TimeSeriesPanel(flat, panel.node_names))
            np.testing.assert_allclose(got.delta, ref.delta, rtol=0, atol=1e-6, err_msg=run.__name__)

    @pytest.mark.parametrize("lag", [1, 2])
    def test_shortest_panel(self, lag):
        # T = lag + 2 is the least the pipeline takes: the kernel path fits,
        # warning that the VAR (and at lag 2 the pre-image) is short of
        # samples; linear-gc's zero-ridge design has fewer rows than columns
        panel = generate("nonlinear5", 50, 0).panel
        short = TimeSeriesPanel(panel.values[: lag + 2], panel.node_names)
        with pytest.warns(UserWarning, match="fitting a VAR|pre-image .* underdetermined"):
            graph = infer_graph(short, PipelineConfig(lag=lag))
        assert np.all(np.isfinite(graph.delta))
        with pytest.warns(UserWarning, match="fitting a VAR"):
            with pytest.raises(RankError, match=r"^\[var\] design has rank 2 <"):
                linear_gc_baseline(short, lag=lag)
        with pytest.raises(InsufficientSamplesError, match="lag \\+ 2"):
            infer_graph(TimeSeriesPanel(panel.values[: lag + 1], panel.node_names), PipelineConfig(lag=lag))


class TestInferGraphProperties:
    """Invariants of whole infer_graph runs on synthetic panels, T <= 150."""

    @given(
        st.sampled_from(["fanin3", "nonlinear5"]),
        st.integers(min_value=60, max_value=150),
        st.integers(min_value=0, max_value=2**16),
        st.data(),
    )
    @settings(max_examples=6, deadline=None)
    def test_node_permutation_permutes_delta(self, generator_id, T, seed, data):
        panel = generate(generator_id, T, seed).panel
        perm = data.draw(st.permutations(range(panel.n_nodes)))
        permuted = TimeSeriesPanel(
            panel.values[:, perm], tuple(panel.node_names[p] for p in perm)
        )
        a = infer_graph(panel)
        b = infer_graph(permuted)
        np.testing.assert_allclose(b.delta, a.delta[np.ix_(perm, perm)], rtol=0, atol=1e-8)

    @given(
        st.sampled_from(["logistic2", "fanout3", "linear5"]),
        st.integers(min_value=60, max_value=150),
        st.integers(min_value=0, max_value=2**16),
        st.data(),
    )
    @settings(max_examples=6, deadline=None)
    def test_affine_column_rescaling_leaves_delta_unchanged(self, generator_id, T, seed, data):
        panel = generate(generator_id, T, seed).panel
        j = data.draw(st.integers(min_value=0, max_value=panel.n_nodes - 1))
        scale = data.draw(st.floats(min_value=0.01, max_value=100.0))
        sign = data.draw(st.sampled_from([-1.0, 1.0]))
        shift = data.draw(st.floats(min_value=-100.0, max_value=100.0))
        values = panel.values.copy()
        values[:, j] = sign * scale * values[:, j] + shift
        rescaled = TimeSeriesPanel(values, panel.node_names)
        for run in (infer_graph, linear_gc_baseline):
            np.testing.assert_allclose(run(rescaled).delta, run(panel).delta, rtol=0, atol=1e-8)


class TestCausalGraph:
    def make_graph(self):
        raw = np.array([[0.0, 0.5, 0.1], [-0.3, 0.0, 0.9], [0.2, -0.1, 0.0]])
        return CausalGraph(raw, ("a", "b", "c"))

    def test_delta_is_read_only_clamped_raw(self):
        raw = np.array([[0.0, 0.5, -0.1], [-0.3, 0.0, 0.9], [0.2, -1e-300, 0.0]])
        graph = CausalGraph(raw, ("a", "b", "c"))
        assert graph.delta.tobytes() == np.maximum(raw, 0.0).tobytes()
        assert not graph.delta.flags.writeable
        with pytest.raises(ValueError):
            graph.delta[0, 1] = 0.0

    def test_edge_rows_sorted_by_strength(self):
        rows = self.make_graph().edge_rows()
        assert rows[0] == ("b", "c", 0.9)
        assert rows[1] == ("a", "b", 0.5)
        values = [r[2] for r in rows]
        assert values == sorted(values, reverse=True)
        assert len(rows) == 6

    def test_edge_ties_break_by_index(self):
        graph = CausalGraph(np.zeros((3, 3)), ("a", "b", "c"))
        pairs = [(r[0], r[1]) for r in graph.edge_rows()]
        assert pairs == [
            ("a", "b"), ("a", "c"), ("b", "a"), ("b", "c"), ("c", "a"), ("c", "b"),
        ]

    def test_edge_csv_header(self):
        text = self.make_graph().to_edge_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "cause,effect,delta"
        assert lines[1].startswith("b,c,")

    def test_edge_csv_plain_names_verbatim(self):
        assert self.make_graph().to_edge_csv() == (
            "cause,effect,delta\nb,c,0.9\na,b,0.5\nc,a,0.2\na,c,0.1\nb,a,0.0\nc,b,0.0\n"
        )

    def test_edge_csv_quotes_names_that_need_it(self):
        names = ("a,b", 'say "c"', "d\ne")
        delta = np.array([[0.0, 0.5, 0.1], [0.0, 0.0, 0.9], [0.2, 0.0, 0.0]])
        graph = CausalGraph(delta, names)
        rows = list(csv.reader(io.StringIO(graph.to_edge_csv())))
        assert rows[0] == ["cause", "effect", "delta"]
        assert [tuple(r) for r in rows[1:]] == [
            (cause, effect, repr(value)) for cause, effect, value in graph.edge_rows()
        ]

    def test_inferred_graph_edge_csv_keeps_three_fields(self):
        panel = random_panel(60, 2, seed=8, names=("a,b", "c"))
        rows = list(csv.reader(io.StringIO(infer_graph(panel).to_edge_csv())))
        assert rows[0] == ["cause", "effect", "delta"]
        assert sorted(r[:2] for r in rows[1:]) == [["a,b", "c"], ["c", "a,b"]]
        assert {len(r) for r in rows} == {3}

    @pytest.mark.parametrize("names, message", [
        (("a", "a"), "node names must be unique; repeated: a"),
        (("", "b"), "node names must be nonempty"),
        (("a", "b", "c"), "node_names length must match raw_log_ratios: got 3, need 2"),
    ])
    def test_rejects_node_names_a_panel_refuses(self, names, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CausalGraph(np.zeros((2, 2)), names)

    @pytest.mark.parametrize("names, message", [
        ([None, None], "node_names must hold only strings, got [None, None]"),
        ([[1, 2], "a,b"], "node_names must hold only strings, got [[1, 2], 'a,b']"),
        (["a", 2], "node_names must hold only strings, got ['a', 2]"),
        (["", " x"], "node names must be nonempty"),
    ])
    def test_from_dict_refuses_bad_node_names(self, names, message):
        payload = {"node_names": names, "delta": [[0, 1], [1, 0]], "raw_log_ratios": [[0, 1], [1, 0]]}
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CausalGraph.from_dict(payload)

    def test_dict_round_trip(self):
        graph = self.make_graph()
        again = CausalGraph.from_dict(graph.to_dict())
        assert np.array_equal(again.delta, graph.delta)
        assert np.array_equal(again.raw_log_ratios, graph.raw_log_ratios)
        assert again.node_names == graph.node_names

    def test_rejects_negative_delta(self):
        # a graph works delta out, so only a file can hold a negative one
        payload = {"node_names": ["a", "b"], "delta": [[0.0, -0.1], [0.0, 0.0]], "raw_log_ratios": [[0, 0], [0, 0]]}
        with pytest.raises(ValueError, match="^delta must be raw_log_ratios clamped at zero$"):
            CausalGraph.from_dict(payload)

    @pytest.mark.parametrize("raw, delta", [
        ([[0, -1], [-3, 0]], [[0, 1], [0.5, 0]]),  # contradicts its log ratios
        ([[0, 2], [0, 0]], [[0, 0], [0, 0]]),
        ([[0, 0], [0, 0]], [[0]]),
    ])
    def test_from_dict_refuses_delta_that_is_not_the_clamp(self, raw, delta):
        payload = {"node_names": ["a", "b"], "delta": delta, "raw_log_ratios": raw}
        with pytest.raises(ValueError, match="^delta must be raw_log_ratios clamped at zero$"):
            CausalGraph.from_dict(payload)

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            CausalGraph(np.eye(2), ("a", "b"))

    def test_from_dict_missing_key(self):
        with pytest.raises(ValueError, match="missing"):
            CausalGraph.from_dict({"delta": [[0.0]]})

    @pytest.mark.parametrize("key, value, message", [
        ("delta", {"a": [0, 1]}, "delta must be a list, got dict"),
        ("delta", "[[0, 1], [1, 0]]", "delta must be a list, got str"),
        ("delta", [[0, "1"], [1, 0]], "delta must hold only numbers, got '1'"),
        ("delta", [[0, None], [1, 0]], "delta must hold only numbers, got None"),
        ("delta", [[0, {}], [1, 0]], "delta must hold only numbers, got {}"),
        ("raw_log_ratios", [[0, True], [1, 0]], "raw_log_ratios must hold only numbers, got True"),
    ])
    def test_from_dict_refuses_non_numbers(self, key, value, message):
        # np.asarray would read "1" as 1.0 and True as 1.0
        payload = {"node_names": ["a", "b"], "delta": [[0, 1], [1, 0]], "raw_log_ratios": [[0, 1], [1, 0]]}
        payload[key] = value
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            CausalGraph.from_dict(payload)

    def test_from_dict_reads_ints_and_floats(self):
        graph = CausalGraph.from_dict(
            {"node_names": ["a", "b"], "delta": [[0, 0], [0.5, 0]], "raw_log_ratios": [[0, -1], [0.5, 0]]}
        )
        assert graph.delta.tolist() == [[0.0, 0.0], [0.5, 0.0]]
        assert graph.raw_log_ratios.tolist() == [[0.0, -1.0], [0.5, 0.0]]
