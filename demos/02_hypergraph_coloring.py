"""Two-color a bounded hypergraph so every edge is nearly balanced.

The direct route puts one bad event on each edge (imbalance above
2*sqrt(R*ln(R*Delta))) and needs the symmetric local-lemma check.  That
check fails only at R = 2 (Delta <= 2), where the incidence matrix breaks
the matrix hypotheses (R >= 4) as well, so such an instance has no route
and is rejected.  Both guarantees are reported side by side.
"""

import numpy as np

from lowdisc import (
    hypergraph_bounds,
    random_hypergraph,
    solve_hypergraph,
    verify_symmetric_lll,
)

H = random_hypergraph(n_vertices=512, max_edge_size=64, max_degree=4, seed=3)
sizes = [len(e) for e in H.edges]
print(f"hypergraph: {H.n_vertices} vertices, {H.n_edges} edges, "
      f"sizes {min(sizes)}..{max(sizes)}, max degree {H.degrees().max()}")

check = verify_symmetric_lll(H.max_edge_size, H.max_degree)
print(f"symmetric check: e * p * (d+1) = {check.product:.4f} <= 1 -> {check.passed}")
print(f"  tail per edge p = {check.tail:.3e}, dependency degree d = {check.dependency_degree}")

bounds = hypergraph_bounds(H.max_edge_size, H.max_degree)
print(f"guarantees: direct {bounds['direct']:.2f}, via reduction {bounds['reduced']:.2f}")

out = solve_hypergraph(H, seed=11)
y = np.asarray(out.result.y)
imbalances = np.array([abs(int(y[list(e)].sum())) for e in H.edges])
print(f"\nsolved via mode={out.mode}: certified={out.result.certified}, "
      f"resamples={out.result.rounds}")
print(f"edge imbalance: max {imbalances.max()} (bound {out.result.bound:.2f}), "
      f"mean {imbalances.mean():.2f}")

# the condition is generous: with R >= 4 and Delta >= 2 it always holds,
# so only tiny budgets ever knock the direct route out
print("\nsymmetric product across small budgets (> 1 means direct unavailable):")
for R, D in [(2, 1), (2, 2), (3, 2), (4, 2), (8, 2)]:
    c = verify_symmetric_lll(R, D)
    print(f"  R={R} Delta={D}: e*p*(d+1) = {c.product:.3f} -> "
          f"{'ok' if c.passed else 'direct unavailable'}")

from lowdisc import HypothesisViolation, solve_hypergraph_direct

pairs = random_hypergraph(n_vertices=8, max_edge_size=2, max_degree=2, seed=5)
try:
    solve_hypergraph_direct(pairs, seed=5)
except HypothesisViolation as exc:
    print(f"\nR=2, Delta=2 instance rejected as expected:\n  {exc}")
