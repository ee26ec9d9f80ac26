"""A small benchmark sweep, in process.

The benchmark grid is (generator x method x T x seed); each (generator,
seed) trajectory is simulated once, each T takes its first T rows as
the panel, and every cell runs one method on its panel and scores the
off-diagonal deltas against the generator's ground truth with ROC-AUC.
Failures are recorded per cell rather than aborting the sweep. The full
grid lives in configs/full_sweep.ini and takes about 17 CPU-seconds via

    preimage-gc bench --config configs/full_sweep.ini --out results/
"""

from preimage_gc import IDENTITY, PipelineConfig, run_benchmark

report = run_benchmark(
    generators=("logistic2", "nonlinear5"),
    methods=[
        ("kernel", PipelineConfig()),
        ("linear-gc", PipelineConfig(kernel=IDENTITY, ridge_var=0.0, ridge_preimage=0.0)),
    ],
    T_grid=(50, 200),
    seeds=8,
)

print(f"{len(report.records)} cells, "
      f"{sum(r.error is not None for r in report.records)} failures")
print()
print(f"{'generator':<11s} {'method':<10s} {'T':>4s} {'mean':>6s} {'median':>7s} {'iqr':>13s}")
for s in report.summaries:
    iqr = f"[{s.q25:.2f}, {s.q75:.2f}]"
    print(f"{s.generator_id:<11s} {s.method_id:<10s} {s.T:>4d} "
          f"{s.mean:>6.3f} {s.median:>7.3f} {iqr:>13s}")

# Both serializations round-trip; the CLI writes exactly these.
print()
print("records.csv starts with:")
print("\n".join(report.to_records_csv().splitlines()[:3]))
