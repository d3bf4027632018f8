"""Inside the certificate: strata, events, weights, and the exact check.

Walks one small instance through every stage the solver relies on and
prints the numbers: magnitude buckets per row, each event's threshold, tail
bound and weight (in log space), the dependency neighborhood sizes, and the
per-event margin of the local-lemma inequality

    tail(E) <= weight(E) * prod_{F in Gamma(E)} (1 - weight(F)).
"""

import math

import numpy as np

from lowdisc import (
    build_event_graph,
    compute_parameters,
    format_certificate,
    random_reduced,
    stratify,
    verify_lll_condition,
)

BETA, DELTA = 2.0**-6, 2.0**-2
A = random_reduced(n=8, m=30, beta=BETA, delta=DELTA, density=0.35, seed=21)
params = compute_parameters(BETA, DELTA)
print(f"instance: {A.n}x{A.m}, {A.nnz} nonzeros, beta=2^-6, delta=2^-2")
print(f"constants: level floor b={params.level_floor}, alpha={params.alpha:.4f}, "
      f"eps={params.eps:.4f}, bound={params.bound:.4f}")

strata = stratify(A, params)
print(f"\nstratification: {len(strata)} non-empty buckets")
for b in range(min(6, len(strata))):
    k = int(strata.level[b])
    print(f"  row {int(strata.row[b])} level {k}: {strata.ptr[b+1]-strata.ptr[b]} entries "
          f"in (2^-{k+1}, 2^-{k}], partial sum {strata.sums[b]:.5f}")

graph = build_event_graph(strata, params)
print(f"\nevents: {len(graph)} (one per bucket)")
print("  row level size  threshold     ln(tail)    ln(weight)  |Gamma|")
for e in range(min(8, len(graph))):
    print(f"  {strata.row[e]:3d} {strata.level[e]:5d} {strata.support(e).size:4d}  "
          f"{graph.threshold[e]:.6f}  {graph.log_tail[e]:11.4f}  {graph.log_weight[e]:11.4f}  "
          f"{graph.neighbors(e).size:5d}")

report = verify_lll_condition(graph, params, instance=A)
print(f"\ncertificate passed: {report.passed}, decided by {report.decided_by}")
print(f"  min log-margin over events: {report.min_margin:.4e}")
print(f"  expected total resamples (sum w/(1-w)): {report.resample_budget:.3e}")
print(f"  column weight sums: max {report.column_weight_sums.max():.3e} "
      f"<= 2*beta = {2 * params.beta:.3e} -> {report.column_weight_ok}")
print("  per-level exponent slack (must be >= 0):",
      {k: round(v, 2) for k, v in list(report.level_slacks.items())[:5]})

print("\nserialized certificate:")
print(format_certificate(report, params))

# why a certified exit implies the bound: thresholds of one row sum below it
row = int(strata.row[0])
total = float(graph.threshold[strata.row == row].sum())
tail = params.alpha * 2.0 ** (-params.level_floor / 2.0) * (2.0 + math.sqrt(2.0))
print(f"row {row}: occupied thresholds sum to {total:.4f}; even with the full "
      f"geometric tail {params.eps * float(A.row_l1()[row]) + tail:.4f} "
      f"it stays below the bound {params.bound:.4f}")
