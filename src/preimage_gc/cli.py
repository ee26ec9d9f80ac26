"""Command-line interface: infer, synth, bench, eval.

Exit codes: 0 success, 1 runtime/numerical failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from pathlib import Path

import numpy as np

from .bench import _checked_grid, off_diagonal, roc_auc, run_benchmark
from .causality import IDENTITY, CausalGraph, PipelineConfig, _number_array, infer_graph
from .data import ingest_csv, panel_to_csv
from .errors import ConfigError, PreimageGCError, UndefinedAucError
from .kernels import KERNEL_KINDS, KernelSpec
from .synthgen import GENERATOR_IDS, generate

PIPELINE_KEYS = (
    "kernel",
    "bandwidth",
    "degree",
    "offset",
    "p_select",
    "lag",
    "ridge_var",
    "ridge_preimage",
)
BENCH_KEYS = ("generators", "T_grid", "seeds")


def _require_file(path_str) -> Path:
    path = Path(path_str)
    if not path.is_file():
        raise ConfigError(f"no such file: {path}")
    return path


def _parse_float(section, key, raw):
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} must be a number, got {raw!r}") from None


def _parse_int(section, key, raw):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key} must be an integer, got {raw!r}") from None


def _pipeline_config_from_items(section, items) -> PipelineConfig:
    unknown = set(items) - set(PIPELINE_KEYS)
    if unknown:
        raise ConfigError(
            f"unknown key(s) in [{section}]: {', '.join(sorted(unknown))}"
        )
    kernel_name = items.get("kernel", "rbf")
    if kernel_name != "rbf" and "bandwidth" in items:
        raise ConfigError(f"[{section}] bandwidth only applies to the rbf kernel")
    if kernel_name not in KERNEL_KINDS + (IDENTITY,):
        raise ConfigError(
            f"[{section}] unknown kernel {kernel_name!r}; "
            f"choose rbf, linear, polynomial, or {IDENTITY}"
        )
    if kernel_name != "polynomial" and ("degree" in items or "offset" in items):
        raise ConfigError(f"[{section}] degree/offset only apply to the polynomial kernel")
    spec_kwargs = {}
    if kernel_name == "rbf":
        bandwidth = items.get("bandwidth", "median")
        if bandwidth != "median":
            spec_kwargs["bandwidth"] = _parse_float(section, "bandwidth", bandwidth)
    for key, parse in (("degree", _parse_int), ("offset", _parse_float)):
        if key in items:
            spec_kwargs[key] = parse(section, key, items[key])

    kwargs = {}
    if "p_select" in items:
        raw = items["p_select"].strip()
        try:
            kwargs["p_select"] = int(raw)
        except ValueError:
            kwargs["p_select"] = _parse_float(section, "p_select", raw)
    if "lag" in items:
        kwargs["lag"] = _parse_int(section, "lag", items["lag"])
    if "ridge_var" in items:
        kwargs["ridge_var"] = _parse_float(section, "ridge_var", items["ridge_var"])
    if "ridge_preimage" in items:
        kwargs["ridge_preimage"] = _parse_float(section, "ridge_preimage", items["ridge_preimage"])
    try:
        kernel = IDENTITY if kernel_name == IDENTITY else KernelSpec(kernel_name, **spec_kwargs)
        return PipelineConfig(kernel=kernel, **kwargs)
    except ValueError as err:
        raise ConfigError(f"[{section}] {err}") from None


def _load_ini(path: Path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";")
    )
    parser.optionxform = str
    try:
        parser.read_string(path.read_text(encoding="utf-8"), source=str(path))
    except configparser.Error as err:
        raise ConfigError(f"cannot parse {path}: {err}") from None
    return parser


def _pipeline_config_from_file(path: Path) -> PipelineConfig:
    parser = _load_ini(path)
    sections = parser.sections()
    if sections != ["pipeline"]:
        raise ConfigError(
            f"{path} must contain exactly one [pipeline] section, found {sections or 'none'}"
        )
    return _pipeline_config_from_items("pipeline", dict(parser["pipeline"]))


def _split_list(raw):
    return [token.strip() for token in raw.split(",") if token.strip()]


def _bench_setup_from_file(path: Path):
    parser = _load_ini(path)
    if "bench" not in parser:
        raise ConfigError(f"{path} has no [bench] section")
    bench_items = dict(parser["bench"])
    unknown = set(bench_items) - set(BENCH_KEYS)
    if unknown:
        raise ConfigError(f"unknown key(s) in [bench]: {', '.join(sorted(unknown))}")
    missing = set(BENCH_KEYS) - set(bench_items)
    if missing:
        raise ConfigError(f"[bench] is missing key(s): {', '.join(sorted(missing))}")
    generators = _split_list(bench_items["generators"])
    T_grid = [_parse_int("bench", "T_grid", t) for t in _split_list(bench_items["T_grid"])]
    seeds = _parse_int("bench", "seeds", bench_items["seeds"])

    methods = []
    for section in parser.sections():
        if section == "bench":
            continue
        if not section.startswith("method "):
            raise ConfigError(
                f"unknown section [{section}]; expected [bench] and [method <name>]"
            )
        method_id = section[len("method ") :].strip()
        if not method_id:
            raise ConfigError("method section needs a name: [method <name>]")
        methods.append((method_id, _pipeline_config_from_items(section, dict(parser[section]))))
    if not methods:
        raise ConfigError(f"{path} defines no [method <name>] sections")
    return generators, methods, T_grid, seeds


def _cmd_infer(args) -> int:
    data_path = _require_file(args.data)
    if args.config is None:
        config = PipelineConfig()
    else:
        config = _pipeline_config_from_file(_require_file(args.config))
    try:
        panel = ingest_csv(data_path)
    except ValueError as err:
        raise ConfigError(f"cannot read panel from {data_path}: {err}") from None
    graph = infer_graph(panel, config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    graph_path = out_dir / "graph.json"
    edges_path = out_dir / "edges.csv"
    graph_path.write_text(json.dumps(graph.to_dict(), indent=2) + "\n", encoding="utf-8")
    edges_path.write_text(graph.to_edge_csv(), encoding="utf-8")

    cause, effect, value = graph.edge_rows()[0]
    print(f"top edge: {cause} -> {effect} (delta={value:.6f})")
    print(f"wrote {graph_path} and {edges_path}")
    return 0


def _cmd_synth(args) -> int:
    out_dir = Path(args.out)
    dataset = generate(args.generator, args.T, args.seed)
    out_dir.mkdir(parents=True, exist_ok=True)

    base = f"{args.generator}_T{args.T}_seed{args.seed}"
    csv_path = out_dir / f"{base}.csv"
    sidecar_path = out_dir / f"{base}.json"
    csv_path.write_text(panel_to_csv(dataset.panel), encoding="utf-8")
    params = {
        key: value.tolist() if isinstance(value, np.ndarray) else value
        for key, value in dataset.params.items()
    }
    sidecar = {
        "generator_id": dataset.generator_id,
        "T": args.T,
        "seed": dataset.seed,
        "node_names": list(dataset.panel.node_names),
        "params": params,
        "ground_truth": dataset.ground_truth.tolist(),
    }
    sidecar_path.write_text(json.dumps(sidecar, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {csv_path} and {sidecar_path}")
    return 0


def _cmd_bench(args) -> int:
    config_path = _require_file(args.config)
    # run_benchmark's own checks, so --dry-run refuses what a run would
    generators, methods, T_grid, seeds, jobs = _checked_grid(
        *_bench_setup_from_file(config_path), args.jobs
    )
    total = len(generators) * len(methods) * len(T_grid) * seeds
    if args.dry_run:
        print(
            f"{total} cells: {len(generators)} generators x {len(methods)} methods "
            f"x {len(T_grid)} T values x {seeds} seeds"
        )
        return 0

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    done = 0

    def progress(record):
        nonlocal done
        done += 1
        outcome = f"auc={record.auc:.4f}" if record.auc is not None else f"failed: {record.error}"
        print(
            f"[{done}/{total}] {record.generator_id} {record.method_id} "
            f"T={record.T} seed={record.seed} {outcome}",
            file=sys.stderr,
        )

    report = run_benchmark(
        generators, methods, T_grid, seeds, jobs=jobs, progress=progress
    )
    records_path = out_dir / "records.csv"
    summaries_path = out_dir / "summaries.json"
    records_path.write_text(report.to_records_csv(), encoding="utf-8")
    summaries_path.write_text(report.to_summaries_json(), encoding="utf-8")
    print(f"wrote {records_path} and {summaries_path}")
    return 0


def _cmd_eval(args) -> int:
    graph_path = _require_file(args.graph)
    truth_path = _require_file(args.truth)
    # a json.JSONDecodeError is a ValueError
    try:
        graph = CausalGraph.from_dict(json.loads(graph_path.read_text(encoding="utf-8")))
    except ValueError as err:
        raise ConfigError(f"cannot read graph from {graph_path}: {err}") from None
    try:
        payload = json.loads(truth_path.read_text(encoding="utf-8"))
        if isinstance(payload, dict):
            if "ground_truth" not in payload:
                raise ValueError("it has no 'ground_truth' key")
            # rows and columns are scored by position, so named ones must be the graph's
            names = list(graph.node_names)
            if payload.get("node_names", names) != names:
                raise ValueError(f"its node_names {payload['node_names']!r} are not the graph's {names!r}")
            payload = payload["ground_truth"]
        truth = _number_array(payload, "ground_truth")
        if not ((truth == 0) | (truth == 1)).all():
            raise ValueError("ground_truth entries must be 0 or 1")
    except ValueError as err:
        raise ConfigError(f"cannot read ground truth from {truth_path}: {err}") from None
    if truth.shape != graph.delta.shape:
        raise ConfigError(
            f"shape mismatch: graph is {graph.delta.shape}, ground truth is {truth.shape}"
        )
    try:
        auc = roc_auc(off_diagonal(graph.delta), off_diagonal(truth))
    except UndefinedAucError as err:
        raise ConfigError(f"cannot score against {truth_path}: {err}") from None
    print(f"{auc:.6f}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="preimage-gc",
        description="Nonlinear Granger-causal graph discovery via kernel features "
        "and a learned pre-image map.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_infer = sub.add_parser("infer", help="infer a causal graph from a panel CSV")
    p_infer.add_argument("data", help="panel CSV (header of node names, float rows)")
    p_infer.add_argument("--config", help="INI file with a [pipeline] section")
    p_infer.add_argument("--out", default=".", help="output directory (default: .)")
    p_infer.set_defaults(handler=_cmd_infer)

    p_synth = sub.add_parser("synth", help="generate a benchmark dataset")
    p_synth.add_argument("generator", choices=GENERATOR_IDS)
    p_synth.add_argument("--T", type=int, required=True, help="samples to keep")
    p_synth.add_argument("--seed", type=int, required=True)
    p_synth.add_argument("--out", default=".", help="output directory (default: .)")
    p_synth.set_defaults(handler=_cmd_synth)

    p_bench = sub.add_parser("bench", help="run a benchmark sweep from a config")
    p_bench.add_argument("--config", required=True, help="INI file with [bench] and [method ...] sections")
    p_bench.add_argument("--out", default=".", help="output directory (default: .)")
    p_bench.add_argument("--jobs", type=int, default=1, help="worker processes (default: 1)")
    p_bench.add_argument("--dry-run", action="store_true", help="print the cell count and exit")
    p_bench.set_defaults(handler=_cmd_bench)

    p_eval = sub.add_parser("eval", help="score a graph JSON against a ground-truth sidecar")
    p_eval.add_argument("graph", help="graph JSON written by infer")
    p_eval.add_argument("truth", help="sidecar JSON written by synth (or a bare 0/1 matrix)")
    p_eval.set_defaults(handler=_cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except PreimageGCError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main_entry():
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
