"""A small seeded benchmark campaign, with the exhaustive probe enabled.

Runs the reduction solver, the uniform-random baseline, and the brute-force
oracle over a grid of small matrices, then prints the structured report.
The probe aggregate records the worst observed optimum / sqrt(R) ratio over
the oracle rows; it is a measurement, nothing more.
"""

import tempfile
from pathlib import Path

from lowdisc import BenchConfig, format_bench_report, run_benchmark

config = BenchConfig(
    family="matrix",
    sizes=((6, 14, 8, 2), (8, 12, 6, 2), (4, 10, 4, 2)),
    seeds=(0, 1, 2, 3),
    modes=("reduce", "baseline", "oracle"),
    density=0.5,
)
report = run_benchmark(config)

print(f"{report.aggregates['rows']} rows in {report.wall:.2f}s, "
      f"{report.aggregates['failed']} failures, "
      f"{report.aggregates['certified']} certified solves")
print(f"worst achieved/bound ratio: {report.aggregates['max_achieved_over_bound']:.4f}")
print(f"probe: max optimum / sqrt(R) = "
      f"{report.aggregates['probe_max_optimum_over_sqrtR']:.4f}")

print("\nreduce vs baseline vs optimum, per (size, seed):")
by_key = {}
for row in report.rows:
    by_key.setdefault((row["size"], row["seed"]), {})[row["mode"]] = row
for (size, seed), modes in sorted(by_key.items()):
    print(f"  {size} seed={seed}: "
          f"solver {modes['reduce']['achieved']:.3f}, "
          f"random {modes['baseline']['achieved']:.3f}, "
          f"optimum {modes['oracle']['optimum']:.3f}")

with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "campaign.txt"
    out.write_text(format_bench_report(report))
    print(f"\nfull report written to {out}; first lines:")
    print("\n".join(out.read_text().splitlines()[:12]))
