#!/usr/bin/env python3
"""tdsim's benchmark: one command per workload run.

    python3 tdbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. It builds tdbench/ (the tdsim library from
the repository's own CMake build, plus the tdbench binary) into
.bench_build/tdbench, then:

  1. runs the workload's reference flavor once (TDless for fifo_narrow and
     soc_casestudy, workers=0 for mesh_scale and multidomain_wide) and keeps
     its dates and checksums;
  2. runs MEASURE_PROCESSES fresh processes that share the --seconds budget;
     each one times a cold iteration and then warm ones, and checks every
     iteration against the reference and the KernelStats invariants;
  3. prints every metric by name and unit, then, as the last stdout line,
     one JSON object: {"correct", "attempted", "failed", "metrics"}.

With --trace 0 the metrics are the end-to-end ones, all from untraced
iterations. With --trace 1 they are the per-layer ones, taken from traced
iterations that alternate with untraced ones in the same processes.

The exit code is 0 only when every iteration was correct. See
tdbench/README.md for the workloads, the metrics and the seeds.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "tdbench"
BUILD_DIR = ROOT / ".bench_build" / "tdbench"
BINARY = BUILD_DIR / "tdbench"

# Fresh processes sharing the --seconds budget. Each starts with a cold
# iteration, whose set-up feeds kernel.cold_setup_s; setup_s is the median
# set-up of the warm untraced iterations. Speed differs between processes
# (thread placement, memory layout), so more processes steady the medians
# (see "Measured steadiness" in tdbench/README.md).
MEASURE_PROCESSES = 8
# Every process after the build shares this limit, so a hung run fails the
# call instead of outliving the 180 s a call may take.
RUN_BUDGET_S = 160

# Metric names and units come from BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def log(message):
    print(message, file=sys.stderr, flush=True)


def child_env():
    """The environment minus every TDSIM_* knob and compiler flag variable,
    so an ambient setting can change neither a workload nor the build."""
    drop = ("CFLAGS", "CXXFLAGS", "CPPFLAGS", "LDFLAGS")
    return {k: v for k, v in os.environ.items()
            if not k.startswith("TDSIM_") and k not in drop}


def build():
    env = child_env()
    # Keep the compiler's temporary files inside the checkout too.
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode:
            return False
    step = ["cmake", "--build", str(BUILD_DIR), "-j", "3"]
    return subprocess.run(step, stdout=sys.stderr, env=env).returncode == 0


def run_binary(args, deadline):
    """Runs the tdbench binary until the monotonic `deadline` at the latest;
    returns (exit code, last stdout line)."""
    try:
        done = subprocess.run([str(BINARY)] + args, stdout=subprocess.PIPE,
                              text=True, env=child_env(),
                              timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        return 1, ""
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines[-1] if lines else ""


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(warm, rss, exact, dates_exact, dates_total, attempted,
               failed):
    return {
        "ops_per_s": median([i["ops"] / i["run_s"] for i in warm]),
        "setup_s": median([i["setup_s"] for i in warm]),
        "cpu_s": median([i["cpu_s"] for i in warm]),
        "peak_rss_mb": median(rss),
        "context_switches": exact.get("context_switches", 0),
        "dates_exact_ratio": dates_exact / dates_total if dates_total else 0.0,
        "run_ok_ratio": 1.0 - failed / attempted,
    }


def per_layer(traced, untraced, cold_setups):
    metrics = {}
    for name in PER_LAYER_UNITS:
        values = [i["layers"][name] for i in traced if name in i["layers"]]
        metrics[name] = median(values)
    metrics["kernel.cold_setup_s"] = median(cold_setups)
    traced_rate = median([i["ops"] / i["run_s"] for i in traced])
    untraced_rate = median([i["ops"] / i["run_s"] for i in untraced])
    metrics["trace.overhead_ratio"] = (traced_rate / untraced_rate
                                       if untraced_rate else 0.0)
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "tiny"),
                        help="tiny: the benchmark's own tests")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        log("tdbench: build failed")
        return 1

    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--size", args.size]
    reference = (BUILD_DIR /
                 f"ref-{args.workload}-{args.seed}-{os.getpid()}.txt")
    attempted = 0
    failed = 0
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        code, _ = run_binary(common + ["--reference", str(reference)],
                             deadline)
        if code != 0:
            log("tdbench: the reference run failed")
            return 1

        share = args.seconds / MEASURE_PROCESSES
        measure = common + ["--seconds", repr(share), "--expect",
                            str(reference)]
        if args.trace:
            measure.append("--trace")
        processes = []
        for _ in range(MEASURE_PROCESSES):
            code, line = run_binary(measure, deadline)
            try:
                processes.append(json.loads(line))
            except ValueError:
                attempted += 1
                failed += 1
                log(f"tdbench: a measuring process failed (exit {code})")
    finally:
        reference.unlink(missing_ok=True)

    iterations = [i for p in processes for i in p["iterations"]]
    attempted += len(iterations)
    for i in iterations:
        if not i["ok"]:
            failed += 1
            log(f"tdbench: iteration failed: {i['error']}")
    # Every count in "exact" must repeat for a given seed, across
    # iterations and processes, traced or not.
    exact = iterations[0]["exact"] if iterations else {}
    for i in iterations:
        if i["ok"] and i["exact"] != exact:
            failed += 1
            log("tdbench: deterministic counts differ between iterations")
    attempted = max(attempted, 1)
    correct = failed == 0

    cold_setups = [i["setup_s"] for i in iterations if i["cold"]]
    warm = [i for i in iterations if not i["cold"] and not i["traced"]]
    traced = [i for i in iterations if i["traced"]]
    date_error = sum(i["date_error_ps"] for i in iterations)
    dates_exact = sum(i["dates_exact"] for i in iterations)
    dates_total = sum(i["dates_total"] for i in iterations)

    if args.trace:
        values = per_layer(traced, warm, cold_setups)
        units = PER_LAYER_UNITS
    else:
        values = end_to_end(warm, [p["peak_rss_mb"] for p in processes], exact,
                            dates_exact, dates_total, attempted, failed)
        units = END_TO_END_UNITS
    if set(values) != set(units):
        log("tdbench: the metrics measured differ from BENCHMARK.json")
        return 1

    first = processes[0] if processes else {}
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"ops/iteration {exact.get('ops', 0)}  "
          f"build {first.get('build_type', '?')}")
    print(f"kernel config {json.dumps(first.get('config', {}))}")
    print(f"iterations {len(iterations)} (warm untraced {len(warm)}, "
          f"traced {len(traced)})")
    print(f"  date_error_ps = {date_error} ps")
    print(f"  error_rate = {failed / attempted:.6g}")
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
