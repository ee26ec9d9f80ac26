"""Tour of the synthetic generators.

Each generator returns a SyntheticDataset: the observed panel plus the
binary ground-truth graph (row = cause, column = effect) that the
discovery method is later scored against. Everything is driven by a
single integer seed, and the same seed always reproduces the same panel
bit for bit.
"""

import numpy as np

from preimage_gc import GENERATOR_IDS, generate

T = 200

for gen in GENERATOR_IDS:
    ds = generate(gen, T=T, seed=0)
    edges = ", ".join(
        f"{ds.panel.node_names[i]}->{ds.panel.node_names[j]}"
        for i, j in np.argwhere(ds.ground_truth)
    )
    print(f"{gen:<10s}  {ds.panel.values.shape}  true edges: {edges}")

print()
print("determinism: the same (generator, T, seed) triple is bit-identical")
a = generate("nonlinear5", T=T, seed=42).panel.values
b = generate("nonlinear5", T=T, seed=42).panel.values
print("  seed 42 twice ->", "identical" if np.array_equal(a, b) else "DIFFERENT")
c = generate("nonlinear5", T=T, seed=43).panel.values
print("  seed 43       -> max |diff| vs seed 42:", float(np.abs(a - c).max()))

print()
print("parameters are overridable per generator; unknown names are rejected:")
mild = generate("fanout3", T=T, seed=0, params={"tanh_gain": 0.2})
strong = generate("fanout3", T=T, seed=0, params={"tanh_gain": 0.9})
print("  fanout3 receiver variance, tanh_gain 0.2 vs 0.9:",
      round(float(mild.panel.values[:, 1].var()), 3),
      "vs",
      round(float(strong.panel.values[:, 1].var()), 3))
