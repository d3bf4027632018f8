"""Concentration bounds behind the events, checked against exact counting.

The per-event tail bound is a Hoeffding bound: a sum of L independent signs
exceeds a in magnitude with probability at most 2*exp(-a^2/2L).  Here the
bound is tabulated against the exact binomial tail and a Monte Carlo run,
then the per-bucket event bound is shown to collapse to the same shape.
"""

import math

import numpy as np

from lowdisc import compute_parameters, hoeffding_tail

print("Hoeffding bound vs exact tail, L = 20 signs")
print("   a    exact P(|X|>a)   bound 2e^(-a^2/40)")
L = 20
for a in (2, 4, 6, 8, 10, 12):
    exact = sum(math.comb(L, h) for h in range(L + 1) if abs(2 * h - L) > a) / 2.0**L
    print(f"  {a:2d}      {exact:.6f}         {hoeffding_tail(a, L):.6f}")

rng = np.random.default_rng(0)
draws = rng.choice([-1, 1], size=(200_000, L)).sum(axis=1)
a = 8
print(f"\nMonte Carlo, 2*10^5 draws: P(|X|>{a}) = {(np.abs(draws) > a).mean():.6f} "
      f"<= bound {hoeffding_tail(a, L):.6f}")

# per-bucket events: the same bound after scaling entries to [-1, 1];
# deep levels underflow in linear space, so the logs carry the comparison
from lowdisc import log_event_tail_bound, log_event_weight

params = compute_parameters(2.0**-6, 2.0**-2)
print(f"\nevent bounds at beta=2^-6, delta=2^-2 "
      f"(alpha={params.alpha:.3f}, eps={params.eps:.3f})")
print("  size level      ln(tail p)    ln(weight x)   ln(x/p) = eps^2 size/16")
for size, level in [(1, 6), (10, 6), (10, 8), (100, 7), (1000, 6)]:
    lp = log_event_tail_bound(size, level, params)
    lx = log_event_weight(size, level, params)
    print(f"  {size:4d} {level:5d}   {lp:13.4f}   {lx:13.4f}   {lx - lp:10.4f}")

print("\nweights shrink in both size and depth, and never reach 1/2:")
for level in range(6, 16, 3):
    row = [f"{math.exp(log_event_weight(s, level, params)):.2e}" for s in (1, 10, 100)]
    print(f"  level {level:2d}: size 1/10/100 ->", " ".join(row))
