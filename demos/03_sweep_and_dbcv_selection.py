"""
Unsupervised parameter selection with DBCV
==========================================

Ground-truth labels are a luxury; in the wild the only way to pick k (or
epsilon/MinPts) is an internal validity index. This demo sweeps DBSCRN's k
from 3 to 30, scores every clustering with DBCV, and shows that the
DBCV-selected clustering is also the one that agrees with the (held-back)
ground truth.

Run:  python demos/03_sweep_and_dbcv_selection.py
"""

import os

from rnncluster import (
    SweepSpec,
    best_ari_summary,
    dbcv_selection_summary,
    make_two_moons,
    run_sweep,
    write_reports,
)

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

dataset = make_two_moons(n=372, density_ratio=3.0, seed=0)
result = run_sweep(dataset, SweepSpec(algorithm="dbscrn"))

print("   k   K  noise    DBCV     ARI")
for record in result.records:
    marker = ""
    print(
        f"  {record.params.k:2d}  {record.n_clusters:2d}  {record.n_noise:4d}  "
        f"{record.dbcv_score:7.3f}  {record.ari:6.3f}{marker}"
    )

selection = dbcv_selection_summary(result)
best = best_ari_summary(result)
print(f"\nDBCV picks {selection['selected_params'][0]} "
      f"(score {selection['dbcv'][0]:.3f}) -> ARI {selection['max']:.3f}")
print(f"best ARI anywhere on the grid: {best['max']:.3f} at {best['params']}")

# machine-readable tables, with '-' in mean/std for the deterministic DBSCRN
rows = [{
    "dataset": dataset.name,
    "algorithm": "dbscrn",
    "approximate": True,  # generated stand-in, flagged in every report
    "best_ari": best,
    "dbcv_selected": selection,
    "timing": None,
}]
paths = write_reports(rows, OUT)
print(f"\nreport files: {', '.join(sorted(paths.values()))}")
