"""Benchmark for lowdisc: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload matrix_certify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload hyper_resample --seed 1 --seconds 1 --trace 1 --smoke

Run it from the root of a checkout; it imports ``lowdisc`` from ``src/``.
One process, one thread, closed loop: each operation starts when the
previous one has ended.  With ``--trace 0`` the run reports the end-to-end
metrics, its timings scaled by runs of a reference kernel between the
calls (see calibrate.py); with ``--trace 1`` it replays each operation stage
by stage and reports the per-layer metrics.  ``--smoke`` swaps in tiny
instances.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
(environment, fingerprints, spans) goes to ``perfbench/out/``.  The exit
code is 0 when every output check passed, 1 when one failed and 2 when the
sources are missing.
"""

import time

T_START = time.perf_counter()

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("matrix_certify", "hyper_resample", "mtx_io")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# per-workload limit when --workload all runs each in its own process
CHILD_TIMEOUT_S = 900
MAX_PROBLEMS = 20


class Tally:
    """Checked operations: counts, first problems, one fingerprint per key.

    Two outputs recorded under one key must carry the same fingerprint; a
    mismatch (a non-reproducible seed, or a replay that differs from the
    one-call result) fails the second operation.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.fingerprints: dict[str, dict] = {}

    def record(self, key: str, fingerprint: dict, problems: list[str]) -> None:
        self.attempted += 1
        known = self.fingerprints.setdefault(key, fingerprint)
        if known != fingerprint:
            problems = [*problems, f"{key}: fingerprint {fingerprint} differs from {known}"]
        if problems:
            self.failed += 1
            self.problems.extend(problems[:MAX_PROBLEMS - len(self.problems)])

    def fail(self, key: str, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(f"{key}: {message}")


def attempt(tally: Tally, key: str, wl, fn) -> float:
    """Run one operation and check its output; returns the operation's seconds."""
    t0 = time.perf_counter()
    try:
        out = fn()
        seconds = time.perf_counter() - t0
        tally.record(key, *wl.check(out))
    except Exception:  # a failed operation is counted, and the run goes on
        seconds = time.perf_counter() - t0
        tally.fail(key, traceback.format_exc())
    return seconds


def environment(np) -> dict:
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"nproc": cpus, "python": platform.python_version(), "numpy": np.__version__,
            "platform": platform.platform(),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "LOWDISC_THREADS": os.environ.get("LOWDISC_THREADS")}


def run_workload(args, t_import: float) -> dict:
    import numpy as np

    from calibrate import REFERENCE_S, Calibrator, scale
    from spans import Spans
    from workloads import END_TO_END_UNITS, PER_LAYER_UNITS, STAGE_REPEATS, WORKLOADS
    from workloads import alloc_peak_mb

    tally = Tally()
    spans = Spans() if args.trace else None
    cal = Calibrator()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="work-") as work:
        wl = WORKLOADS[args.workload](smoke=args.smoke, workdir=work)
        gen_s, setup_kernel_s, digests = [], [cal.run()], set()
        for _ in range(wl.setup_repeats):
            t0 = time.perf_counter_ns()
            instance = wl.generate(args.seed)
            t1 = time.perf_counter_ns()
            setup_kernel_s.append(cal.run())
            gen_s.append((t1 - t0) / 1e9)
            digests.add(wl.instance_digest(instance))
            if spans:
                spans.add("generate.instance", t0, t1)
        if len(digests) != 1:
            tally.fail("generate", f"{len(digests)} different instances from one seed")
        wl.set_instance(instance)
        seeds = wl.op_seeds(args.seed)
        attempt(tally, f"op:{seeds[0]}", wl, lambda: wl.op(seeds[0]))  # warm-up, untimed
        gc.collect()

        untraced, traced = [], []
        t_begin = time.perf_counter()
        kernel_s = [cal.run()]
        i = 0
        while not untraced or time.perf_counter() - t_begin < args.seconds:
            s = seeds[i % len(seeds)]
            i += 1
            untraced.append(attempt(tally, f"op:{s}", wl, lambda: wl.op(s)))
            kernel_s.append(cal.run())
            if spans:
                traced.append(attempt(tally, f"op:{s}", wl, lambda: wl.traced_op(s, spans)))
        phase_s = time.perf_counter() - t_begin
        scaled = scale(untraced, kernel_s)
        gen_scaled = scale(gen_s, setup_kernel_s)
        import_scaled = scale([t_import], setup_kernel_s)[0]

        if spans:
            layer = wl.layer_metrics(spans, tally, seeds)
            for _ in range(STAGE_REPEATS):
                spans.call("generate.rebuild", wl.rebuild, instance)
            layer.update({
                "generate.instance_s": statistics.median(gen_s),
                "generate.rebuild_s": spans.median("generate.rebuild"),
                "generate.alloc_peak_mb": alloc_peak_mb(wl.generate, args.seed),
                "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
                "calib.kernel_s": statistics.median(kernel_s),
            })
            metrics = {k: {"value": layer[k], "unit": u} for k, u in PER_LAYER_UNITS.items()}
        else:
            values = {
                "op_p50_s": statistics.median(scaled),
                "ops_per_s": len(scaled) / sum(scaled),
                "setup_s": import_scaled + statistics.median(gen_scaled),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "env": environment(np),
        "loop": "closed, 1 client, 1 thread",
        "op_samples": len(untraced), "traced_samples": len(traced), "timed_phase_s": phase_s,
        "op_s": untraced, "op_scaled_s": scaled, "traced_op_s": traced,
        "setup": {"import_s": t_import, "generate_s": gen_s, "generate_scaled_s": gen_scaled},
        "wall": {"op_p50_s": statistics.median(untraced),
                 "ops_per_s": len(untraced) / phase_s,
                 "setup_s": t_import + statistics.median(gen_s)},
        "calibration": {"reference_s": REFERENCE_S, "setup_kernel_s": setup_kernel_s,
                        "kernel_s": kernel_s},
        "metrics": metrics,
        "attempted": tally.attempted, "failed": tally.failed,
        "fail_frac": tally.failed / tally.attempted, "problems": tally.problems,
        "fingerprints": tally.fingerprints,
    }
    if spans:
        record["self_s_by_layer"] = spans.self_seconds_by_layer()
        record["spans"] = spans.to_json()
    return record


def report(record: dict, path: Path) -> None:
    env = record["env"]
    print(f"lowdisc benchmark: workload={record['workload']} seed={record['seed']} "
          f"seconds={record['seconds']} trace={record['trace']} smoke={record['smoke']}")
    print(f"env: nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"({env['platform']}); {record['loop']}")
    for key, fp in record["fingerprints"].items():
        print(f"fingerprint {key}: " + " ".join(f"{k}={v}" for k, v in fp.items()))
    for name, m in record["metrics"].items():
        print(f"{name:32s} {m['value']!r:>24} {m['unit']}")
    for name, value in record["wall"].items():
        unit = record["metrics"][name]["unit"] if name in record["metrics"] else ""
        print(f"{name + ' (wall)':32s} {value!r:>24} {unit} unscaled")
    kernel_s = record["calibration"]["kernel_s"]
    print(f"{'reference kernel p50':32s} {statistics.median(kernel_s)!r:>24} s "
          f"({len(kernel_s)} runs; timings above are scaled to "
          f"{record['calibration']['reference_s']} s)")
    print(f"{'fail_frac':32s} {record['fail_frac']!r:>24} ratio "
          f"({record['failed']} of {record['attempted']} ops; "
          f"{record['op_samples']} timed samples)")
    for layer, seconds in record.get("self_s_by_layer", {}).items():
        print(f"self time {layer:22s} {seconds!r:>24} s")
    for problem in record["problems"]:
        print(f"FAILED: {problem}")
    print(f"record: {path.relative_to(ROOT)}")


def run_all(args) -> int:
    """Each workload in its own process, so set-up time and peak RSS stay per workload."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"perfbench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 2
        res = json.loads(lines[-1])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny instances, for tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lowdisc" / "__init__.py").is_file():
        print(f"perfbench: no lowdisc sources in {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("LOWDISC_THREADS", None)
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import lowdisc

    t_import = time.perf_counter() - T_START
    if not Path(lowdisc.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: imported lowdisc from {lowdisc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    record = run_workload(args, t_import)
    suffix = "-smoke" if args.smoke else ""
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    report(record, path)
    correct = record["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
