"""End-to-end tour: sign a bounded matrix and check every promise made.

Generates a sparse 40x400 matrix whose rows have L1 norm at most R=16 and
columns at most Delta=4, then finds a +-1 assignment y whose row sums stay
small, together with the numeric certificate that guarantees the solver
had to succeed.
"""

import numpy as np

from lowdisc import discrepancy, random_coloring, random_matrix, solve_matrix

R, DELTA = 16.0, 4.0
V = random_matrix(n=40, m=400, row_bound=R, col_bound=DELTA, density=0.15, seed=7)
print(f"instance: {V.n}x{V.m}, {V.nnz} nonzeros, "
      f"max row L1 = {V.row_l1().max():.3f} (<= {R}), "
      f"max col L1 = {V.col_l1().max():.3f} (<= {DELTA})")

out = solve_matrix(V, seed=42)
res = out.result
params = out.reduced.params

print("\nreduced form: entries <=", params.beta, "column sums <=", params.delta)
print(f"certificate: {out.certificate.n_events} events, "
      f"min log-margin {out.certificate.min_margin:.3e}, "
      f"expected resamples {out.certificate.resample_budget:.3e}")
print(f"solve: certified={res.certified}, resamples={res.rounds}")
print(f"reduced discrepancy ||Ay||_inf = {res.achieved:.6f} <= {params.bound:.6f}")

lift = out.lifted
print(f"\nlifted  discrepancy ||Vy||_inf = {lift.max_disc:.3f}")
print(f"  proven bound  2*R*||Ay||_inf = {lift.proven_bound:.3f}")
print(f"  a-priori bound 32*sqrt(R*lg(R*Delta)) = {lift.apriori_bound:.3f}")
print(f"  effective bound min(proven, R) = {lift.effective_bound:.3f}")

# how much cancellation does the solver buy over a blind coin flip?
y_blind = random_coloring(V.m, seed=0)
blind = discrepancy(V, y_blind)[1]
print(f"\nuniform-random coloring for comparison: ||Vy||_inf = {blind:.3f}")

worst_rows = np.argsort(lift.row_disc)[-3:][::-1]
print("worst three rows under the solved assignment:",
      [(int(i), round(float(lift.row_disc[i]), 3)) for i in worst_rows])
