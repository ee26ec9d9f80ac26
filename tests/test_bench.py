"""ROC-AUC and the sweep harness."""

import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import preimage_gc.bench as bench_module
from preimage_gc import (
    GENERATOR_IDS,
    IDENTITY,
    PipelineConfig,
    generate,
    infer_graph,
    off_diagonal,
    roc_auc,
    run_benchmark,
)
from preimage_gc.bench import BenchmarkReport, CellRecord, _checked_grid, summarize
from preimage_gc.errors import ConfigError, InstabilityError, ShapeError, UndefinedAucError
from whole_numbers import NOT_WHOLE


class TestRocAuc:
    def test_perfect_ranking(self):
        assert roc_auc([0.9, 0.1], [1, 0]) == 1.0

    def test_half_concordant(self):
        # pairs: (0.5 vs 0.7) discordant, (0.9 vs 0.7) concordant
        assert roc_auc([0.7, 0.5, 0.9], [0, 1, 1]) == 0.5

    def test_all_ties_exactly_half(self):
        assert roc_auc([0.3, 0.3, 0.3, 0.3], [0, 1, 0, 1]) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(UndefinedAucError):
            roc_auc([0.1, 0.2], [1, 1])

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            roc_auc([0.1, 0.2, 0.3], [1, 0])

    def test_2d_scores_rejected(self):
        with pytest.raises(ShapeError, match="^scores and labels must be 1-d$"):
            roc_auc([[0.1, 0.2]], [1, 0])

    def test_bad_labels(self):
        with pytest.raises(ValueError, match="0/1"):
            roc_auc([0.1, 0.2], [1, 2])

    def test_matches_pair_counting_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            scores = rng.normal(size=12)
            labels = rng.integers(0, 2, size=12)
            if labels.min() == labels.max():
                continue
            pos = scores[labels == 1]
            neg = scores[labels == 0]
            wins = sum(
                1.0 if p > n else (0.5 if p == n else 0.0)
                for p in pos
                for n in neg
            )
            oracle = wins / (len(pos) * len(neg))
            assert roc_auc(scores, labels) == pytest.approx(oracle, abs=1e-12)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_antisymmetry(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=10)
        labels = np.array([0, 1] * 5)
        total = roc_auc(scores, labels) + roc_auc(-scores, labels)
        assert total == pytest.approx(1.0, abs=1e-12)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_rank_invariance(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.normal(size=10)
        labels = np.array([0, 1] * 5)
        base = roc_auc(scores, labels)
        assert roc_auc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
        assert roc_auc(3.0 * scores + 7.0, labels) == pytest.approx(base, abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_scores_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            roc_auc([0.1, bad, 0.3], [0, 1, 1])


class TestAverageRanks:
    # few distinct values, so most draws hold several tie groups
    @given(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=40),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_scipy_rankdata(self, values, scale):
        from scipy.stats import rankdata

        x = np.array(values, dtype=float) * scale
        ranks = bench_module._average_ranks(x)
        assert np.array_equal(ranks, rankdata(x))

    def test_signed_zeros_tie(self):
        ranks = bench_module._average_ranks(np.array([0.0, -0.0, 1.0]))
        np.testing.assert_array_equal(ranks, [1.5, 1.5, 3.0])


class TestOffDiagonal:
    def test_row_major_order(self):
        m = np.arange(9).reshape(3, 3)
        np.testing.assert_array_equal(off_diagonal(m), [1, 2, 3, 5, 6, 7])

    def test_rejects_nonsquare(self):
        with pytest.raises(ShapeError):
            off_diagonal(np.zeros((2, 3)))


class TestSummarize:
    def record(self, auc, seed=0, gen="linear5", method="m", T=100):
        return CellRecord(gen, method, T, seed, auc=auc)

    def test_median_of_two(self):
        s = summarize([self.record(0.6, 0), self.record(0.8, 1)])[0]
        assert s.median == pytest.approx(0.7)
        assert s.n == 2

    def test_quartiles_linear_interpolation(self):
        records = [self.record(v, i) for i, v in enumerate([0.1, 0.2, 0.3, 0.4])]
        s = summarize(records)[0]
        assert s.q25 == pytest.approx(0.175)
        assert s.median == pytest.approx(0.25)
        assert s.q75 == pytest.approx(0.325)

    def test_constant_records_zero_ci(self):
        records = [self.record(0.5, i) for i in range(5)]
        s = summarize(records)[0]
        assert s.ci95_half_width == 0.0

    def test_ci_formula(self):
        values = [0.2, 0.4, 0.9, 0.7]
        records = [self.record(v, i) for i, v in enumerate(values)]
        s = summarize(records)[0]
        want = 1.96 * np.std(values, ddof=1) / np.sqrt(4)
        assert s.ci95_half_width == pytest.approx(want, abs=1e-12)

    def test_all_failed_cell_flagged(self):
        records = [
            CellRecord("linear5", "m", 100, 0, auc=None, error="RankError: x"),
            CellRecord("linear5", "m", 100, 1, auc=None, error="RankError: x"),
        ]
        s = summarize(records)[0]
        assert s.n == 0
        assert s.mean is None
        assert s.note == "no successful records"

    def test_single_record_flagged(self):
        s = summarize([self.record(0.8, 0)])[0]
        assert s.n == 1
        assert s.mean == pytest.approx(0.8)
        assert s.ci95_half_width is None
        assert s.note is not None

    def test_groups_split_by_cell(self):
        records = [
            self.record(0.5, 0, T=50),
            self.record(0.6, 1, T=50),
            self.record(0.9, 0, T=100),
            self.record(1.0, 1, T=100),
        ]
        out = summarize(records)
        assert len(out) == 2
        assert {s.T for s in out} == {50, 100}

    def test_report_works_out_its_summaries(self):
        records = [
            self.record(0.5, 0, T=50),
            self.record(0.6, 1, T=50),
            self.record(0.9, 0, T=100),
            CellRecord("linear5", "m", 100, 1, auc=None, error="RankError: x"),
        ]
        report = BenchmarkReport(tuple(records))
        assert report.summaries == tuple(summarize(records))
        assert report == BenchmarkReport(tuple(records))


def _grid_case(what, value):
    """run_benchmark's T_grid, seeds and jobs with value in the place what
    names, and the ConfigError message that refuses it."""
    label = {"seeds": "seed count", "T": "T", "jobs": "jobs"}[what]
    return pytest.param(
        [value] if what == "T" else [50],
        value if what == "seeds" else 2,
        value if what == "jobs" else 1,
        f"{label} must be an integer, got {value!r}",
        id=f"{what}-{value!r}",
    )


class TestRunBenchmark:
    def small_methods(self):
        return [
            ("kernel", PipelineConfig()),
            ("linear-gc", PipelineConfig(kernel=IDENTITY, ridge_var=0.0, ridge_preimage=0.0)),
        ]

    def test_grid_shape_and_order(self):
        report = run_benchmark(
            ["logistic2", "fanin3"], self.small_methods(), [50, 100], 2
        )
        assert len(report.records) == 2 * 2 * 2 * 2
        first = report.records[0]
        assert (first.generator_id, first.method_id, first.T, first.seed) == (
            "logistic2", "kernel", 50, 0,
        )
        # generator-major, then method, T, seed
        keys = [(r.generator_id, r.method_id, r.T, r.seed) for r in report.records]
        assert keys == sorted(
            keys,
            key=lambda k: (
                ["logistic2", "fanin3"].index(k[0]),
                ["kernel", "linear-gc"].index(k[1]),
                k[2],
                k[3],
            ),
        )

    def test_rerun_identical(self):
        args = (["logistic2"], self.small_methods(), [50], 3)
        a = run_benchmark(*args)
        b = run_benchmark(*args)
        assert a.records == b.records
        assert a.summaries == b.summaries

    def test_parallel_equals_serial(self):
        args = (["fanout3", "logistic2"], self.small_methods(), [50, 60], 3)
        serial = run_benchmark(*args, jobs=1)
        seen = []
        parallel = run_benchmark(*args, jobs=2, progress=seen.append)
        assert serial.records == parallel.records
        assert sorted(seen, key=serial.records.index) == list(serial.records)

    @given(
        st.lists(st.sampled_from(GENERATOR_IDS), min_size=1, max_size=2, unique=True),
        st.lists(st.integers(min_value=50, max_value=90), min_size=1, max_size=2, unique=True),
        st.integers(min_value=1, max_value=2),
        st.sampled_from([0.95, 2, 500]),
    )
    @settings(max_examples=3, deadline=None)
    def test_records_identical_for_any_jobs(self, generators, T_grid, seeds, p_select):
        # p_select = 500 fails every kernel cell, so error records are compared too
        methods = [("kernel", PipelineConfig(p_select=p_select))] + self.small_methods()[1:]
        serial = run_benchmark(generators, methods, T_grid, seeds, jobs=1)
        parallel = run_benchmark(generators, methods, T_grid, seeds, jobs=2)
        assert serial.records == parallel.records
        assert serial.summaries == parallel.summaries

    def test_workers_run_one_blas_thread(self, monkeypatch):
        # the BLAS libraries read these when a worker loads them; this
        # process's own environment is left as it was
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        names = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"] * 2
        assert list(bench_module._map_in_workers(os.getenv, names, 2)) == ["1"] * 4
        assert os.environ["OPENBLAS_NUM_THREADS"] == "4"
        assert "OMP_NUM_THREADS" not in os.environ

    def test_failures_recorded_not_raised(self):
        # a component count far above the achievable rank fails per cell
        methods = [("broken", PipelineConfig(p_select=500))]
        report = run_benchmark(["linear5"], methods, [50], 2)
        assert all(r.auc is None for r in report.records)
        assert all("RankError" in r.error for r in report.records)
        assert report.summaries[0].note == "no successful records"

    def test_unconverged_least_squares_recorded(self, monkeypatch):
        def unconverged(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

        monkeypatch.setattr(np.linalg, "lstsq", unconverged)
        report = run_benchmark(["linear5"], self.small_methods()[1:], [50], 1, jobs=1)
        assert report.records[0].error.startswith(
            "EigensolverError: [var] least-squares solve on the design failed (SVD did not converge"
        )

    def test_programming_errors_raise(self, monkeypatch):
        def broken(panel, config):
            raise TypeError("not a numerical failure")

        monkeypatch.setattr(bench_module, "infer_graph", broken)
        with pytest.raises(TypeError, match="not a numerical failure"):
            run_benchmark(["linear5"], self.small_methods(), [50], 1, jobs=1)

    def test_each_trajectory_generated_once(self, monkeypatch):
        calls = []

        def counting_generate(generator_id, T, seed):
            calls.append((generator_id, T, seed))
            return generate(generator_id, T, seed)

        monkeypatch.setattr(bench_module, "generate", counting_generate)
        seen = []
        generators, T_grid, seeds = ["fanin3", "logistic2"], [60, 50], range(2)
        report = run_benchmark(
            generators, self.small_methods(), T_grid, len(seeds), progress=seen.append
        )
        # one call per (generator, seed), at the largest T, in task order
        assert calls == [(g, 60, s) for g in generators for s in seeds]
        keys = [(r.generator_id, r.method_id, r.T, r.seed) for r in report.records]
        assert keys == [
            (g, m, T, s)
            for g in generators
            for m in ("kernel", "linear-gc")
            for T in T_grid
            for s in seeds
        ]
        assert [(r.generator_id, r.seed, r.T, r.method_id) for r in seen] == [
            (g, s, T, m)
            for g in generators
            for s in seeds
            for T in T_grid
            for m in ("kernel", "linear-gc")
        ]
        assert sorted(seen, key=report.records.index) == list(report.records)

    def test_generation_failure_recorded_for_every_method(self, monkeypatch):
        calls = []

        def unstable_generate(generator_id, T, seed):
            calls.append(T)
            return generate(generator_id, T, seed, params={"square_self": 1.5})

        monkeypatch.setattr(bench_module, "generate", unstable_generate)
        with pytest.raises(InstabilityError) as exc:
            generate("fanout3", 200, 0, params={"square_self": 1.5})
        T_grid = [50, 100, 200]
        report = run_benchmark(["fanout3"], self.small_methods(), T_grid, 1)
        # one generation, at the largest T, fails every (T, method) cell
        assert calls == [200]
        assert [(r.method_id, r.T) for r in report.records] == [
            (m, T) for m in ("kernel", "linear-gc") for T in T_grid
        ]
        assert all(r.auc is None for r in report.records)
        assert {r.error for r in report.records} == {f"InstabilityError: {exc.value}"}

    def test_empty_methods_rejected(self):
        with pytest.raises(ConfigError, match="method"):
            run_benchmark(["logistic2"], [], [50], 2)

    def test_unknown_generator_rejected(self):
        with pytest.raises(ConfigError, match="generator"):
            run_benchmark(["lorenz"], self.small_methods(), [50], 2)

    @pytest.mark.parametrize("generators, T_grid, seeds, message", [
        ([], [50], 2, "no generators given"),
        (["logistic2"], [], 2, "empty T grid"),
        (["logistic2"], [50], 0, "no seeds given"),
    ])
    def test_empty_grid_rejected(self, generators, T_grid, seeds, message):
        with pytest.raises(ConfigError, match=message):
            run_benchmark(generators, self.small_methods(), T_grid, seeds)

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ConfigError, match=f"jobs must be >= 1, got {jobs}"):
            run_benchmark(["logistic2"], self.small_methods(), [50], 2, jobs=jobs)

    @pytest.mark.parametrize("generators, method_ids, T_grid, seeds, message", [
        (["fanin3", "fanin3"], ["a", "b"], [50], 2, "repeated generator value.*: fanin3"),
        (["fanin3"], ["a", "a"], [50], 2, "repeated method value.*: a"),
        (["fanin3"], ["a", "b"], [50, 60, 50], 2, "repeated T value.*: 50"),
    ])
    def test_repeated_grid_value_rejected(self, generators, method_ids, T_grid, seeds, message):
        # a repeat used to be pooled into one summary: fanin3 twice at
        # T = 50, 50 with 2 seeds gave n = 8 and ci95_half_width = 0.0
        methods = [(m, config) for m, (_, config) in zip(method_ids, self.small_methods())]
        with pytest.raises(ConfigError, match=message):
            run_benchmark(generators, methods, T_grid, seeds)

    @pytest.mark.parametrize("T_grid, seeds, jobs, message", [
        _grid_case("seeds", 1.5), _grid_case("T", 50.7), _grid_case("jobs", 1.5),
        *[_grid_case(what, value) for what in ("seeds", "T", "jobs") for value in NOT_WHOLE],
    ])
    def test_non_integer_grid_value_rejected(self, T_grid, seeds, jobs, message):
        # these used to be truncated (T 50.7 ran as 50, jobs 1.5 as 1),
        # counted (True as one seed) or crash untyped (2.0 seeds)
        with pytest.raises(ConfigError, match="^" + re.escape(message) + "$"):
            run_benchmark(["logistic2"], self.small_methods(), T_grid, seeds, jobs=jobs)

    @pytest.mark.parametrize("integer", [int, np.int64])
    def test_integer_grid_values_accepted_as_ints(self, integer):
        methods = self.small_methods()
        got = _checked_grid(["logistic2"], methods, [integer(50)], integer(2), integer(2))
        assert got == (["logistic2"], methods, [50], 2, 2)
        assert [type(v) for v in (got[2][0], got[3], got[4])] == [int, int, int]

    def test_method_without_pipeline_config_rejected(self):
        methods = [("kernel", PipelineConfig()), ("raw", {"kernel": "rbf"})]
        with pytest.raises(ConfigError, match="^method 'raw' has no PipelineConfig$"):
            run_benchmark(["logistic2"], methods, [50], 2)

    def test_low_T_rejected(self):
        with pytest.raises(ConfigError, match="50"):
            run_benchmark(["logistic2"], self.small_methods(), [10], 2)

    def test_progress_callback_sees_every_cell(self):
        seen = []
        run_benchmark(
            ["logistic2"], self.small_methods()[:1], [50], 2, progress=seen.append
        )
        assert len(seen) == 2

    def test_progress_reports_each_cell_as_it_completes(self, monkeypatch):
        events = []

        def logging_infer_graph(panel, config):
            events.append("infer")
            return infer_graph(panel, config)

        monkeypatch.setattr(bench_module, "infer_graph", logging_infer_graph)
        run_benchmark(
            ["logistic2"], self.small_methods(), [50], 2,
            progress=lambda record: events.append("progress"),
        )
        assert events == ["infer", "progress"] * 4

    def test_serialization_round_trip(self):
        report = run_benchmark(["logistic2"], self.small_methods(), [50], 2)
        csv_text = report.to_records_csv()
        lines = csv_text.strip().split("\n")
        assert lines[0] == "generator_id,method_id,T,seed,auc,error"
        assert len(lines) == 1 + len(report.records)
        payload = json.loads(report.to_summaries_json())
        assert len(payload) == len(report.summaries)
        for entry, summary in zip(payload, report.summaries):
            assert entry["generator_id"] == summary.generator_id
            assert entry["n"] == summary.n

    def test_summaries_recomputable_from_records(self):
        report = run_benchmark(["fanin3"], self.small_methods(), [50, 100], 3)
        assert tuple(summarize(report.records)) == report.summaries
