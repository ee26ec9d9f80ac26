"""CLI behavior: files, exit codes, determinism."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import preimage_gc
import preimage_gc.kernels as kernels_module
from preimage_gc import KernelSpec, PipelineConfig, TimeSeriesPanel, generate, ingest_csv
from preimage_gc.data import panel_to_csv
from preimage_gc.cli import _bench_setup_from_file, _pipeline_config_from_file, main

PIPELINE_INI = """\
[pipeline]
kernel = rbf
bandwidth = median
p_select = 0.95
lag = 1
"""

BENCH_INI = """\
[bench]
generators = logistic2
T_grid = 50
seeds = 2

[method kernel]
kernel = rbf

[method base]
kernel = linear-identity
ridge_var = 0
ridge_preimage = 0
"""

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def run(argv):
    return main(argv)


class TestSynth:
    def test_writes_csv_and_sidecar(self, tmp_path, capsys):
        code = run(["synth", "logistic2", "--T", "60", "--seed", "7", "--out", str(tmp_path)])
        assert code == 0
        csv_path = tmp_path / "logistic2_T60_seed7.csv"
        sidecar_path = tmp_path / "logistic2_T60_seed7.json"
        assert csv_path.is_file() and sidecar_path.is_file()
        sidecar = json.loads(sidecar_path.read_text())
        assert sidecar["ground_truth"] == [[0, 1], [0, 0]]
        assert sidecar["generator_id"] == "logistic2"
        assert str(csv_path) in capsys.readouterr().out

    def test_round_trips_through_ingest(self, tmp_path):
        run(["synth", "linear5", "--T", "80", "--seed", "3", "--out", str(tmp_path)])
        panel = ingest_csv(tmp_path / "linear5_T80_seed3.csv")
        assert panel.values.shape == (80, 5)
        assert panel.node_names == ("y1", "y2", "y3", "y4", "y5")

    def test_repeat_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run(["synth", "fanout3", "--T", "70", "--seed", "1", "--out", str(out)])
        assert (a / "fanout3_T70_seed1.csv").read_bytes() == (
            b / "fanout3_T70_seed1.csv"
        ).read_bytes()
        assert (a / "fanout3_T70_seed1.json").read_bytes() == (
            b / "fanout3_T70_seed1.json"
        ).read_bytes()

    def test_short_T_is_usage_error(self, tmp_path, capsys):
        code = run(["synth", "logistic2", "--T", "10", "--seed", "0", "--out", str(tmp_path)])
        assert code == 2
        assert "T must be >= 50" in capsys.readouterr().err


class TestInfer:
    def synth_csv(self, tmp_path, gen="linear5", T=80, seed=3):
        run(["synth", gen, "--T", str(T), "--seed", str(seed), "--out", str(tmp_path)])
        return tmp_path / f"{gen}_T{T}_seed{seed}.csv"

    def test_writes_graph_and_edges(self, tmp_path, capsys):
        data = self.synth_csv(tmp_path)
        out = tmp_path / "result"
        code = run(["infer", str(data), "--out", str(out)])
        assert code == 0
        graph = json.loads((out / "graph.json").read_text())
        assert set(graph) == {"node_names", "delta", "raw_log_ratios"}
        assert len(graph["delta"]) == 5
        edges = (out / "edges.csv").read_text().strip().split("\n")
        assert edges[0] == "cause,effect,delta"
        assert len(edges) == 1 + 5 * 4
        assert "top edge:" in capsys.readouterr().out

    def test_config_file_is_honored(self, tmp_path):
        data = self.synth_csv(tmp_path)
        config = tmp_path / "pipeline.ini"
        config.write_text(PIPELINE_INI)
        out = tmp_path / "result"
        assert run(["infer", str(data), "--config", str(config), "--out", str(out)]) == 0

    def test_missing_data_file(self, tmp_path, capsys):
        code = run(["infer", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
        assert code == 2
        assert "nope.csv" in capsys.readouterr().err

    def test_unknown_config_key(self, tmp_path, capsys):
        data = self.synth_csv(tmp_path)
        config = tmp_path / "bad.ini"
        config.write_text("[pipeline]\nshrinkage = 0.5\n")
        code = run(["infer", str(data), "--config", str(config), "--out", str(tmp_path)])
        assert code == 2
        assert "shrinkage" in capsys.readouterr().err

    def test_unparseable_cell_is_runtime_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n3,oops\n")
        code = run(["infer", str(bad), "--out", str(tmp_path)])
        assert code == 1
        assert "row 3" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("a,b\n1,2\n", "need at least 2 data rows, got 1"),
        ("a\n1\n2\n3\n", "need at least 2 columns, got 1"),
    ], ids=["one row", "one column"])
    def test_csv_too_small_for_a_panel_is_runtime_error(self, tmp_path, capsys, text, message):
        small = tmp_path / "small.csv"
        small.write_text(text)
        assert run(["infer", str(small), "--out", str(tmp_path)]) == 1
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("config_text", [None, "[pipeline]\nkernel = linear-identity\n"])
    def test_overflowing_panel_is_tagged_runtime_error(self, tmp_path, capsys, config_text):
        data = self.synth_csv(tmp_path)
        panel = ingest_csv(data)
        huge = tmp_path / "huge.csv"
        huge.write_text(panel_to_csv(TimeSeriesPanel(panel.values * 1e200, panel.node_names)))
        args = ["infer", str(huge), "--out", str(tmp_path / "result")]
        if config_text is not None:
            config = tmp_path / "pipeline.ini"
            config.write_text(config_text)
            args += ["--config", str(config)]
        assert run(args) == 1
        err = capsys.readouterr().err
        assert "[normalize]" in err
        assert panel.node_names[0] in err

    def test_unconverged_least_squares_is_tagged_runtime_error(self, tmp_path, capsys, monkeypatch):
        def unconverged(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

        data = self.synth_csv(tmp_path)
        config = tmp_path / "pipeline.ini"
        config.write_text("[pipeline]\nkernel = linear-identity\nridge_var = 0\nridge_preimage = 0\n")
        monkeypatch.setattr(np.linalg, "lstsq", unconverged)
        assert run(["infer", str(data), "--config", str(config), "--out", str(tmp_path / "result")]) == 1
        assert "[var] least-squares solve on the design failed (SVD did not converge" in capsys.readouterr().err

    @pytest.mark.parametrize("bandwidth", ["1e155", "1e154", "1e-200", "-1"])
    def test_unusable_bandwidth_is_usage_error(self, tmp_path, capsys, bandwidth):
        config = tmp_path / "pipeline.ini"
        config.write_text(f"[pipeline]\nbandwidth = {bandwidth}\n")
        code = run(["infer", str(self.synth_csv(tmp_path)), "--config", str(config), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "[pipeline]" in err and "bandwidth" in err and repr(float(bandwidth)) in err

    @pytest.mark.parametrize(
        "seed, ridge_var, stage", [(0, "1e-300", "[var]"), (1, "1e-3", "[preimage]")]
    )
    def test_singular_ridge_solve_is_tagged_runtime_error(self, tmp_path, capsys, seed, ridge_var, stage):
        # c = 2a makes the design and the features singular; a 1e-300 ridge
        # cannot fix that, and 1e-3 lets the VAR through to the pre-image
        a, b = np.random.default_rng(seed).normal(size=(2, 200)).tolist()
        rows = "\n".join(f"{x!r},{y!r},{2 * x!r}" for x, y in zip(a, b))
        data = tmp_path / "collinear.csv"
        data.write_text("a,b,c\n" + rows + "\n")
        config = tmp_path / "tiny_ridge.ini"
        config.write_text(
            "[pipeline]\nkernel = linear-identity\n"
            f"ridge_var = {ridge_var}\nridge_preimage = 1e-300\n"
        )
        code = run(["infer", str(data), "--config", str(config), "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{stage} ridge solve" in err
        assert "ridge_lambda" in err

    @pytest.mark.parametrize("T", [kernels_module.LANCZOS_MIN_ORDER - 50, kernels_module.LANCZOS_MIN_ORDER + 50])
    def test_duplicated_column_fails_linear_gc_only(self, tmp_path, capsys, T):
        panel = ingest_csv(self.synth_csv(tmp_path, gen="nonlinear5", T=T, seed=0))
        data = tmp_path / "dup.csv"
        data.write_text(panel_to_csv(TimeSeriesPanel(
            np.column_stack([panel.values, panel.values[:, 0]]), panel.node_names + ("copy",)
        )))
        assert run(["infer", str(data), "--out", str(tmp_path / "kernel")]) == 0
        config = tmp_path / "linear_gc.ini"
        config.write_text("[pipeline]\nkernel = linear-identity\nridge_var = 0\nridge_preimage = 0\n")
        code = run(["infer", str(data), "--config", str(config), "--out", str(tmp_path / "linear")])
        assert code == 1
        assert "[var] design has rank 5 < 6" in capsys.readouterr().err

    def test_eigensolver_failure_is_tagged_runtime_error(self, tmp_path, capsys, monkeypatch):
        def fail(a, **kwargs):
            # LAPACK's report of a tridiagonal QR that did not converge
            return np.zeros(len(a)), a, len(a)

        monkeypatch.setattr(kernels_module, "dsyevd", fail)
        data = self.synth_csv(tmp_path)
        code = run(["infer", str(data), "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "[pca]" in err
        assert "did not converge" in err

    def test_lanczos_failure_falls_back_to_dense(self, tmp_path, monkeypatch):
        # a run cut off by the step cap settles nothing: every fit goes dense
        answers = []
        lanczos = kernels_module._lanczos_top

        def recorded(*args, **kwargs):
            answers.append(lanczos(*args, **kwargs))
            return answers[-1]

        T = 220
        assert T >= kernels_module.LANCZOS_MIN_ORDER
        data = self.synth_csv(tmp_path, gen="logistic2", T=T, seed=2)
        capped, dense = tmp_path / "capped", tmp_path / "dense"
        with monkeypatch.context() as patch:
            patch.setattr(kernels_module, "_lanczos_top", recorded)
            patch.setattr(kernels_module, "LANCZOS_MAX_STEPS", 2)
            assert run(["infer", str(data), "--out", str(capped)]) == 0
        assert answers == [None] * 3
        with monkeypatch.context() as patch:
            patch.setattr(kernels_module, "LANCZOS_MIN_ORDER", T + 1)
            assert run(["infer", str(data), "--out", str(dense)]) == 0
        assert (capped / "graph.json").read_bytes() == (dense / "graph.json").read_bytes()

    def test_ritz_lapack_failure_falls_back_to_dense(self, tmp_path, monkeypatch):
        # a tridiagonal solve that does not converge ends every Lanczos
        # run; the dense path answers instead of a LinAlgError's exit 2
        calls = []

        def fail(d, e, **kwargs):
            calls.append(len(d))
            raise scipy.linalg.LinAlgError("stevd (eigh_tridiagonal) did not converge")

        T = 300
        data = self.synth_csv(tmp_path, gen="nonlinear5", T=T, seed=0)
        failed, dense = tmp_path / "failed", tmp_path / "dense"
        with monkeypatch.context() as patch:
            patch.setattr(kernels_module, "eigh_tridiagonal", fail)
            assert run(["infer", str(data), "--out", str(failed)]) == 0
        assert len(calls) == 6
        with monkeypatch.context() as patch:
            patch.setattr(kernels_module, "LANCZOS_MIN_ORDER", T + 1)
            assert run(["infer", str(data), "--out", str(dense)]) == 0
        assert (failed / "graph.json").read_bytes() == (dense / "graph.json").read_bytes()

    def test_repeat_is_byte_identical(self, tmp_path):
        data = self.synth_csv(tmp_path, gen="fanin3", T=90, seed=5)
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run(["infer", str(data), "--out", str(out)])
        assert (a / "graph.json").read_bytes() == (b / "graph.json").read_bytes()
        assert (a / "edges.csv").read_bytes() == (b / "edges.csv").read_bytes()


class TestBench:
    def config(self, tmp_path, text=BENCH_INI):
        path = tmp_path / "bench.ini"
        path.write_text(text)
        return path

    def test_dry_run_prints_cell_count(self, tmp_path, capsys):
        code = run(["bench", "--config", str(self.config(tmp_path)), "--dry-run"])
        assert code == 0
        out = capsys.readouterr().out
        assert out == "4 cells: 1 generators x 2 methods x 1 T values x 2 seeds\n"

    def test_writes_records_and_summaries(self, tmp_path, capsys):
        out = tmp_path / "result"
        code = run(["bench", "--config", str(self.config(tmp_path)), "--out", str(out)])
        assert code == 0
        lines = (out / "records.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + 4
        summaries = json.loads((out / "summaries.json").read_text())
        assert len(summaries) == 2
        err = capsys.readouterr().err
        assert "[4/4]" in err  # per-cell progress

    def test_reruns_and_parallelism_are_byte_identical(self, tmp_path):
        config = self.config(tmp_path)
        outputs = []
        for name, jobs in (("a", "1"), ("b", "1"), ("c", "2")):
            out = tmp_path / name
            assert run(["bench", "--config", str(config), "--out", str(out), "--jobs", jobs]) == 0
            outputs.append(
                ((out / "records.csv").read_bytes(), (out / "summaries.json").read_bytes())
            )
        assert outputs[0] == outputs[1] == outputs[2]

    def test_no_methods_is_config_error(self, tmp_path, capsys):
        config = self.config(tmp_path, "[bench]\ngenerators = logistic2\nT_grid = 50\nseeds = 2\n")
        code = run(["bench", "--config", str(config), "--dry-run"])
        assert code == 2
        assert "method" in capsys.readouterr().err

    @pytest.mark.parametrize("keys, word", [
        ("kernel = polynomial\ndegree = 0\n", "degree"),
        ("kernel = polynomial\noffset = -1\n", "offset"),
        ("bandwidth = -1\n", "bandwidth"),
    ])
    def test_bad_kernel_names_its_method_section(self, tmp_path, capsys, keys, word):
        text = BENCH_INI + "\n[method b]\n" + keys
        code = run(["bench", "--config", str(self.config(tmp_path, text)), "--dry-run"])
        assert code == 2
        err = capsys.readouterr().err
        assert "[method b]" in err and word in err

    def test_unknown_bench_key(self, tmp_path, capsys):
        text = BENCH_INI + "\n[bench2]\nx = 1\n"
        code = run(["bench", "--config", str(self.config(tmp_path, text)), "--dry-run"])
        assert code == 2
        assert "bench2" in capsys.readouterr().err


class TestUsageErrors:
    """Config and argument mistakes exit 2 with a message naming them,
    before any data is read or any panel fitted."""

    @pytest.fixture
    def data(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text("a,b\n1,2\n3,5\n4,4\n")
        return path

    def infer_with(self, tmp_path, data, config_text):
        config = tmp_path / "pipeline.ini"
        config.write_text(config_text)
        return run(["infer", str(data), "--config", str(config), "--out", str(tmp_path / "out")])

    @pytest.mark.parametrize("keys, message", [
        ("ridge_var = lots\n", "[pipeline] ridge_var must be a number, got 'lots'"),
        ("p_select = most\n", "[pipeline] p_select must be a number, got 'most'"),
        ("kernel = polynomial\noffset = one\n", "[pipeline] offset must be a number, got 'one'"),
        ("lag = two\n", "[pipeline] lag must be an integer, got 'two'"),
        ("lag = 2.0\n", "[pipeline] lag must be an integer, got '2.0'"),
        ("kernel = polynomial\ndegree = 2.5\n", "[pipeline] degree must be an integer, got '2.5'"),
        ("normalize = true\n", "unknown key(s) in [pipeline]: normalize"),
        ("kernel = linear\nbandwidth = 1.0\n", "[pipeline] bandwidth only applies to the rbf kernel"),
        ("kernel = polynomial\nbandwidth = median\n", "[pipeline] bandwidth only applies to the rbf kernel"),
        ("degree = 3\n", "[pipeline] degree/offset only apply to the polynomial kernel"),
        ("kernel = linear-identity\noffset = 1\n", "[pipeline] degree/offset only apply to the polynomial kernel"),
        ("kernel = sigmoid\n", "[pipeline] unknown kernel 'sigmoid'"),
        ("ridge_var = nan\n", "[pipeline] ridge_var and ridge_preimage must be finite and >= 0"),
        ("ridge_var = inf\n", "[pipeline] ridge_var and ridge_preimage must be finite and >= 0"),
        ("ridge_preimage = nan\n", "[pipeline] ridge_var and ridge_preimage must be finite and >= 0"),
        ("kernel = polynomial\noffset = nan\n", "[pipeline] polynomial offset must be finite and nonnegative"),
        ("kernel = polynomial\noffset = inf\n", "[pipeline] polynomial offset must be finite and nonnegative"),
        pytest.param("kernel = polynomial\ndegree = 1%s\n" % ("0" * 400),
                     "[pipeline] polynomial degree must be a positive integer", id="degree-10**400"),
    ])
    def test_bad_pipeline_value(self, tmp_path, capsys, data, keys, message):
        assert self.infer_with(tmp_path, data, "[pipeline]\n" + keys) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("lag = 1\n", "cannot parse"),
        ("[pipeline]\nlag = 1\n[pipeline]\nlag = 2\n", "cannot parse"),
        ("", "must contain exactly one [pipeline] section, found none"),
        ("[pipe]\nlag = 1\n", "must contain exactly one [pipeline] section, found ['pipe']"),
        ("[pipeline]\n[extra]\n", "found ['pipeline', 'extra']"),
    ])
    def test_bad_pipeline_file(self, tmp_path, capsys, data, text, message):
        assert self.infer_with(tmp_path, data, text) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("keys", ["offset = 1e200\n", "degree = 400\n"])
    def test_overflowing_polynomial_gram_is_tagged_runtime_error(self, tmp_path, capsys, keys):
        # used to warn and report "[pca] centered gram has rank 0"
        run(["synth", "nonlinear5", "--T", "100", "--seed", "0", "--out", str(tmp_path)])
        data = tmp_path / "nonlinear5_T100_seed0.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self.infer_with(tmp_path, data, "[pipeline]\nkernel = polynomial\n" + keys) == 1
        assert "[pca] the polynomial gram overflows float64" in capsys.readouterr().err

    def bench(self, tmp_path, text, *extra):
        config = tmp_path / "bench.ini"
        config.write_text(text)
        return run(["bench", "--config", str(config), "--out", str(tmp_path / "out"), *extra])

    @pytest.mark.parametrize("text, message", [
        ("[method kernel]\nkernel = rbf\n", "has no [bench] section"),
        (BENCH_INI.replace("seeds = 2\n", "seeds = 2\njobs = 2\n"), "unknown key(s) in [bench]: jobs"),
        (BENCH_INI.replace("seeds = 2\n", ""), "[bench] is missing key(s): seeds"),
        (BENCH_INI.replace("T_grid = 50\n", ""), "[bench] is missing key(s): T_grid"),
        (BENCH_INI.replace("seeds = 2", "seeds = few"), "[bench] seeds must be an integer, got 'few'"),
        (BENCH_INI.replace("[method kernel]", "[method ]"), "method section needs a name: [method <name>]"),
        (BENCH_INI.replace("[method base]", "[method  kernel]"), "repeated method value(s) in the grid: kernel"),
        (BENCH_INI.replace("logistic2", "logistic2, logistic2"), "repeated generator value(s) in the grid: logistic2"),
        (BENCH_INI.replace("T_grid = 50", "T_grid = 50, 50"), "repeated T value(s) in the grid: 50"),
        (BENCH_INI.replace("logistic2", "lorenz"), "unknown generator 'lorenz'"),
        (BENCH_INI.replace("seeds = 2", "seeds = 0"), "no seeds given"),
    ])
    @pytest.mark.parametrize("dry_run", [True, False])
    def test_bad_bench_file(self, tmp_path, capsys, text, message, dry_run):
        assert self.bench(tmp_path, text, *(["--dry-run"] if dry_run else [])) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("dry_run", [True, False])
    def test_zero_jobs(self, tmp_path, capsys, dry_run):
        assert self.bench(tmp_path, BENCH_INI, "--jobs", "0", *(["--dry-run"] if dry_run else [])) == 2
        assert "jobs must be >= 1, got 0" in capsys.readouterr().err


class TestEval:
    def write_graph(self, tmp_path, delta):
        delta = np.asarray(delta, dtype=float)
        payload = {
            "node_names": [f"y{j}" for j in range(delta.shape[0])],
            "delta": delta.tolist(),
            "raw_log_ratios": delta.tolist(),
        }
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(payload))
        return path

    def write_truth(self, tmp_path, matrix, name="truth.json"):
        path = tmp_path / name
        path.write_text(json.dumps({"ground_truth": matrix}))
        return path

    def test_scaled_truth_scores_one(self, tmp_path, capsys):
        graph = self.write_graph(tmp_path, [[0.0, 0.9], [0.0, 0.0]])
        truth = self.write_truth(tmp_path, [[0, 1], [0, 0]])
        assert run(["eval", str(graph), str(truth)]) == 0
        assert capsys.readouterr().out.strip() == "1.000000"

    def test_zero_graph_scores_half(self, tmp_path, capsys):
        graph = self.write_graph(tmp_path, np.zeros((3, 3)))
        truth = self.write_truth(tmp_path, [[0, 1, 0], [0, 0, 0], [1, 0, 0]])
        assert run(["eval", str(graph), str(truth)]) == 0
        assert capsys.readouterr().out.strip() == "0.500000"

    def test_inverted_truth_gives_complement(self, tmp_path, capsys):
        delta = [[0.0, 0.9, 0.1], [0.2, 0.0, 0.4], [0.3, 0.5, 0.0]]
        graph = self.write_graph(tmp_path, delta)
        truth = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
        inverted = [
            [0 if i == j else 1 - truth[i][j] for j in range(3)] for i in range(3)
        ]
        run(["eval", str(graph), str(self.write_truth(tmp_path, truth))])
        out1 = capsys.readouterr().out.strip()
        run(["eval", str(graph), str(self.write_truth(tmp_path, inverted, "inv.json"))])
        out2 = capsys.readouterr().out.strip()
        assert float(out1) + float(out2) == pytest.approx(1.0, abs=1e-9)

    def test_bare_matrix_truth(self, tmp_path, capsys):
        graph = self.write_graph(tmp_path, [[0.0, 0.9], [0.2, 0.0]])
        truth = tmp_path / "bare.json"
        truth.write_text(json.dumps([[0, 1], [0, 0]]))
        assert run(["eval", str(graph), str(truth)]) == 0
        assert capsys.readouterr().out.strip() == "1.000000"

    @pytest.mark.parametrize("graph_text, truth_text, message", [
        ("{not json", "[[0, 1], [0, 0]]", "cannot read graph from"),
        ("[[0, 1], [0, 0]]", "[[0, 1], [0, 0]]", "a graph must be a dict, got list"),
        ("5", "[[0, 1], [0, 0]]", "a graph must be a dict, got int"),
        ('{"node_names": "ab", "delta": [[0, 1], [1, 0]], "raw_log_ratios": [[0, 1], [1, 0]]}',
         "[[0, 1], [0, 0]]", "node_names must be a list, got str"),
        ('{"delta": [[0, 1], [0, 0]]}', "[[0, 1], [0, 0]]", "graph dict is missing keys: ['node_names', 'raw_log_ratios']"),
        ('{"node_names": ["a", "b"], "delta": [[0, 1, 1], [1, 0, 1]], "raw_log_ratios": [[0, 1, 1], [1, 0, 1]]}',
         "[[0, 1], [0, 0]]", "raw_log_ratios must be square, got shape (2, 3)"),
        ('{"node_names": ["a", "b"], "delta": [[0, 1], [1, 0]], "raw_log_ratios": [[0]]}',
         "[[0, 1], [0, 0]]", "node_names length must match raw_log_ratios: got 2, need 1"),
        ('{"node_names": ["a", "b"], "delta": [[0]], "raw_log_ratios": [[0, 1], [1, 0]]}',
         "[[0, 1], [0, 0]]", "delta must be raw_log_ratios clamped at zero"),
        ('{"node_names": ["a", "b", "c"], "delta": [[0, 1], [1, 0]], "raw_log_ratios": [[0, 1], [1, 0]]}',
         "[[0, 1], [0, 0]]", "node_names length must match raw_log_ratios"),
        ('{"node_names": [null, null], "delta": [[0, 1], [1, 0]], "raw_log_ratios": [[0, 1], [1, 0]]}',
         "[[0, 1], [0, 0]]", "node_names must hold only strings, got [None, None]"),
        ('{"node_names": ["a", "a"], "delta": [[0, 1], [1, 0]], "raw_log_ratios": [[0, 1], [1, 0]]}',
         "[[0, 1], [0, 0]]", "node names must be unique"),
        ('{"node_names": ["a", "b"], "delta": [[0, NaN], [1, 0]], "raw_log_ratios": [[0, 1], [1, 0]]}',
         "[[0, 1], [0, 0]]", "delta must be raw_log_ratios clamped at zero"),
        ('{"node_names": ["a", "b"], "delta": [[0, 1], [1, 0]], "raw_log_ratios": [[0, NaN], [1, 0]]}',
         "[[0, 1], [0, 0]]", "graph entries must be finite"),
        # a delta that is not its log ratios' clamp, which eval scored at 1.0
        ('{"node_names": ["a", "b"], "delta": [[0, 1], [0.5, 0]], "raw_log_ratios": [[0, -1], [-3, 0]]}',
         "[[0, 1], [0, 0]]", "delta must be raw_log_ratios clamped at zero"),
        ('{"node_names": ["a", "b"], "delta": {"a": [0, 1]}, "raw_log_ratios": [[0, 1], [1, 0]]}',
         "[[0, 1], [0, 0]]", "delta must be a list, got dict"),
        ('{"node_names": ["a", "b"], "delta": [[0, "1"], [1, 0]], "raw_log_ratios": [[0, 1], [1, 0]]}',
         "[[0, 1], [0, 0]]", "delta must hold only numbers, got '1'"),
        ('{"node_names": ["a", "b"], "delta": [[0, 1], [1, 0]], "raw_log_ratios": [[0, true], [1, 0]]}',
         "[[0, 1], [0, 0]]", "raw_log_ratios must hold only numbers, got True"),
        # a 401-digit integer, which float64 cannot hold, used to end in an OverflowError
        ('{"node_names": ["a", "b"], "delta": [[0, 1%s], [1, 0]], "raw_log_ratios": [[0, 1], [1, 0]]}' % ("0" * 400),
         "[[0, 1], [0, 0]]", "delta holds an integer too large for float64"),
        ('{"node_names": ["a", "b"], "delta": [[0, 1], [1, 0]], "raw_log_ratios": [[0, -1%s], [1, 0]]}' % ("0" * 400),
         "[[0, 1], [0, 0]]", "raw_log_ratios holds an integer too large for float64"),
        ('{"node_names": ["a", "b"], "delta": [[0, 1], [1]], "raw_log_ratios": [[0, 1], [1, 0]]}',
         "[[0, 1], [0, 0]]", "delta must be a rectangular list of lists"),
        (None, "[[0, 1], [0, ", "cannot read ground truth from"),
        (None, '{"truth": [[0, 1], [0, 0]]}', "has no 'ground_truth' key"),
        # each row below used to be scored or to end in numpy's own error text
        (None, '{"ground_truth": [[null, 1], [0, 0]]}', "ground_truth must hold only numbers, got None"),
        (None, '[[0, 1], [0, "junk"]]', "ground_truth must hold only numbers, got 'junk'"),
        (None, '{"ground_truth": [[0, true], [false, 0]]}', "ground_truth must hold only numbers, got"),
        (None, "[[0, 1], [0]]", "ground_truth must be a rectangular list of lists"),
        (None, '{"ground_truth": [[0, 1], 0]}', "ground_truth must be a rectangular list of lists"),
        (None, '{"ground_truth": [[0, 0.5], [0, 0]]}', "ground_truth entries must be 0 or 1"),
        (None, "[[2, 1], [0, 0]]", "ground_truth entries must be 0 or 1"),
        (None, "[[NaN, 1], [0, 0]]", "ground_truth entries must be 0 or 1"),
        (None, '{"ground_truth": [[0, 1%s], [0, 0]]}' % ("0" * 400),
         "ground_truth holds an integer too large for float64"),
        (None, '{"ground_truth": "[[0, 1], [0, 0]]"}', "ground_truth must be a list, got str"),
    ])
    def test_unreadable_graph_or_truth(self, tmp_path, capsys, graph_text, truth_text, message):
        graph = self.write_graph(tmp_path, [[0.0, 0.9], [0.2, 0.0]])
        if graph_text is not None:
            graph.write_text(graph_text)
        truth = tmp_path / "truth.json"
        truth.write_text(truth_text)
        assert run(["eval", str(graph), str(truth)]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert ("cannot read graph from" in err) == (graph_text is not None)
        assert ("cannot read ground truth from" in err) == (graph_text is None)

    def test_shape_mismatch(self, tmp_path, capsys):
        graph = self.write_graph(tmp_path, np.zeros((3, 3)))
        truth = self.write_truth(tmp_path, [[0, 1], [0, 0]])
        assert run(["eval", str(graph), str(truth)]) == 2
        assert "shape mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("edge", [0, 1])
    def test_truth_with_one_class_off_the_diagonal(self, tmp_path, capsys, edge):
        # no edge, or every edge: the file gives the AUC nothing to rank
        graph = self.write_graph(tmp_path, [[0.0, 0.9, 0.1], [0.2, 0.0, 0.4], [0.3, 0.5, 0.0]])
        truth = [[0 if i == j else edge for j in range(3)] for i in range(3)]
        assert run(["eval", str(graph), str(self.write_truth(tmp_path, truth))]) == 2
        err = capsys.readouterr().err
        assert "cannot score against" in err
        assert "need both classes" in err

    def test_sidecar_names_must_be_the_graphs_in_order(self, tmp_path, capsys):
        # a graph inferred from the panel's columns reversed pairs its rows
        # with the wrong nodes of the sidecar; eval scored it 0.328125
        run(["synth", "nonlinear5", "--T", "300", "--seed", "0", "--out", str(tmp_path)])
        sidecar = tmp_path / "nonlinear5_T300_seed0.json"
        panel = ingest_csv(tmp_path / "nonlinear5_T300_seed0.csv")
        reversed_csv = tmp_path / "reversed.csv"
        reversed_csv.write_text(panel_to_csv(TimeSeriesPanel(panel.values[:, ::-1], panel.node_names[::-1])))
        for data, out in ((tmp_path / "nonlinear5_T300_seed0.csv", "same"), (reversed_csv, "reversed")):
            assert run(["infer", str(data), "--out", str(tmp_path / out)]) == 0
        capsys.readouterr()
        assert run(["eval", str(tmp_path / "same" / "graph.json"), str(sidecar)]) == 0
        assert capsys.readouterr().out.strip() == "0.984375"
        assert run(["eval", str(tmp_path / "reversed" / "graph.json"), str(sidecar)]) == 2
        err = capsys.readouterr().err
        assert "cannot read ground truth from" in err
        assert "are not the graph's ['y5', 'y4', 'y3', 'y2', 'y1']" in err

    def test_end_to_end_with_synth_and_infer(self, tmp_path, capsys):
        run(["synth", "linear5", "--T", "200", "--seed", "1", "--out", str(tmp_path)])
        run(["infer", str(tmp_path / "linear5_T200_seed1.csv"), "--out", str(tmp_path)])
        capsys.readouterr()
        code = run(["eval", str(tmp_path / "graph.json"), str(tmp_path / "linear5_T200_seed1.json")])
        assert code == 0
        auc = float(capsys.readouterr().out.strip())
        assert 0.0 <= auc <= 1.0


class TestShippedConfigs:
    def test_river_config_writes_out_the_defaults(self):
        assert _pipeline_config_from_file(CONFIGS / "river.ini") == PipelineConfig()

    def test_polynomial_without_degree_or_offset_takes_the_spec_defaults(self, tmp_path):
        config = tmp_path / "poly.ini"
        config.write_text("[pipeline]\nkernel = polynomial\n")
        assert _pipeline_config_from_file(config) == PipelineConfig(kernel=KernelSpec("polynomial"))

    def test_full_sweep_grid(self, capsys):
        assert run(["bench", "--config", str(CONFIGS / "full_sweep.ini"), "--dry-run"]) == 0
        assert capsys.readouterr().out == "2000 cells: 5 generators x 2 methods x 4 T values x 50 seeds\n"

    def test_full_sweep_trajectories_stay_far_from_divergence(self):
        # bench fails a whole trajectory if its generation diverges, and
        # the shipped sweep is meant never to take that path
        generators, _, T_grid, seeds = _bench_setup_from_file(CONFIGS / "full_sweep.ini")
        largest = max(
            np.abs(generate(g, max(T_grid), s).panel.values).max()
            for g in generators
            for s in range(seeds)
        )
        assert largest < 10


class TestParser:
    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "infer" in capsys.readouterr().out


def test_import_leaves_scipy_stats_unloaded():
    # a fresh interpreter, as every CLI run and every bench worker starts
    package_root = Path(preimage_gc.__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(package_root), os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, preimage_gc.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['scipy', 'stats']))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
