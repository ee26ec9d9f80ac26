"""Where the kernel pipeline earns its keep: quadratic couplings.

nonlinear5 routes one edge (y2 -> y4) through a square. A squared
channel leaves no trace in second-order statistics, so linear Granger
causality is blind to it in principle; the kernel features see it. The
other edges pass through tanh, which keeps a strong linear component,
so the two methods agree there.
"""

import numpy as np

from preimage_gc import (
    generate,
    infer_graph,
    linear_gc_baseline,
    off_diagonal,
    roc_auc,
)

T = 500
SEEDS = range(10)

kernel_auc, linear_auc = [], []
squared_rank_kernel, squared_rank_linear = [], []

for seed in SEEDS:
    ds = generate("nonlinear5", T=T, seed=seed)
    labels = off_diagonal(ds.ground_truth)

    kernel_graph = infer_graph(ds.panel)
    linear_graph = linear_gc_baseline(ds.panel)
    kernel_auc.append(roc_auc(off_diagonal(kernel_graph.delta), labels))
    linear_auc.append(roc_auc(off_diagonal(linear_graph.delta), labels))

    # where does the squared edge y2 -> y4 land in each ranking?
    def rank_of(graph, cause="y2", effect="y4"):
        rows = graph.edge_rows()
        return 1 + next(
            k for k, (c, e, _) in enumerate(rows) if (c, e) == (cause, effect)
        )

    squared_rank_kernel.append(rank_of(kernel_graph))
    squared_rank_linear.append(rank_of(linear_graph))

print(f"true edges: "
      + ", ".join(f"y{i+1}->y{j+1}" for i, j in np.argwhere(generate('nonlinear5', 50, 0).ground_truth)))
print()
print(f"mean ROC-AUC over {len(kernel_auc)} seeds at T={T}:")
print(f"  kernel pipeline   {np.mean(kernel_auc):.3f}")
print(f"  linear GC         {np.mean(linear_auc):.3f}")
print()
print("median rank of the squared edge y2 -> y4 (out of 20 candidates):")
print(f"  kernel pipeline   {int(np.median(squared_rank_kernel))}")
print(f"  linear GC         {int(np.median(squared_rank_linear))}")
