#!/usr/bin/env python3
"""Benchmark regression gate for the BENCH_*.json files the benches emit.

Eight checks, run by CI's perf-gate job (see .github/workflows/ci.yml):

1. Determinism vs committed baseline (bench/baselines/): every numeric
   field except wall-clock ones must match the baseline bit-for-bit.
   Simulation results (dates, delta counts, per-cause sync counts) are
   machine-independent, so any drift is a functional regression -- this is
   the line the parallel scheduler's bit-exactness guarantee is held to on
   every push.

2. Worker-sweep wall gate: for files whose rows carry a "workers" field
   (bench_multidomain_soc --workers), the summed wall time of every worker
   count must stay within --wall-tolerance of the smallest worker count's
   sum. A parallel run more than that much slower than sequential fails
   the gate; the tolerance also bounds how much headline speedup may
   regress run-over-run. Sums (not per-row walls) are gated so the
   fine-quantum rows' barrier overhead cannot fail a sweep whose total is
   dominated by the realistic rows.

3. Adaptive-quantum wall gate: rows carrying an "adaptive" field form a
   fixed-vs-adaptive comparison group (per worker count and table). Every
   adaptive row -- which the bench seeds from the *worst* fixed quantum --
   must reach --adaptive-throughput (default 0.9) of the best fixed row's
   wall-clock throughput: the controller has to actually close the
   speed/accuracy loop, not just converge somewhere. When the best fixed
   wall is below the noise floor (too fast to compare meaningfully) but
   the *worst* fixed wall is above it, a coarser escape-the-seed gate
   applies instead: the adaptive row must run in at most half the worst
   fixed row's wall, so a controller stuck at its bad seed still fails CI.
   Only when even the worst fixed wall is sub-noise is the gate skipped.
   The adaptive rows' deterministic fields (final quantum, adjustment
   count, per-cause sync counts, dates) are covered by check 1 like any
   other row. Adaptive rows are only compared against fixed rows in the
   same execution mode (judged by whether "lookahead_advances" is
   nonzero): with workers > 1 the fixed rows run free ahead of the
   horizon via conservative lookahead, while a live quantum controller
   pins its domains to the barrier path by design, so their walls are not
   comparable.

4. Lookahead speedup gate: for files whose rows carry a "workers" field,
   the largest worker count's summed wall over the *fixed* rows must beat
   the smallest count's sum by at least --min-speedup (default 0.10).
   This is the headline win the per-group conservative lookahead has to
   deliver: free-running groups on a worker pool must actually outrun the
   sequential scheduler, not merely keep up. Adaptive rows are excluded
   (the controller disables free-running, see above). The gate is skipped
   when the machine cannot express parallelism (fewer than two cores, see
   --cores) or when the reference sum is below the noise floor.

5. Chunked-channel speedup gate: rows carrying a "chunk_mode" field
   (bench_fifo_ops --json) form a chunked-vs-per-element comparison. The
   summed wall of the chunked rows flagged "wide" must beat the element
   wide rows' sum by at least --chunked-speedup (default 0.10): batching
   the per-element notifications and sync books has to actually pay on
   the wide-FIFO sweep, where blocking is rare and the per-op overhead
   dominates. Narrow (non-wide) rows are informational only -- they are
   blocking-dominated, so batching has nothing to amortize there. The
   gate is skipped when the element reference is below the noise floor.
   The rows' deterministic fields (dates, block and sync counts) are
   covered by check 1, which is what holds chunked mode to per-element
   bit-exactness on every push.

6. Fleet throughput gate: rows carrying a "fleet_mode" field
   (bench_fleet --json) compare the snapshot-fork path against cold
   standalone rebuilds of the same scenarios. The fork path must reach
   --fleet-throughput (default 0.35) of the cold path's scenarios/sec:
   forking through the construction log replays the same work as a cold
   build, so the gate bounds the scheduler-multiplexing and fork overhead
   rather than demanding a speedup. The fleet's deterministic fields (the
   per-scenario digest, date and delta sums) are covered by check 1 --
   that is where the bench's fork-equals-cold bit-exactness guarantee is
   held to the committed baseline (the bench itself additionally exits
   nonzero if any scenario diverges from its cold run). Noise-floored on
   the cold wall like the other relative gates.

7. Scale allocation gate: rows carrying an "alloc_mode" field
   (bench_scale --json) compare the kernel's pooled fiber-stack
   allocator and elaboration arenas ("pooled") against the legacy
   per-process heap stacks ("malloc") on the O(100)-domain /
   O(10k)-process platform. The pooled rows' summed elaboration wall
   AND summed run wall must each beat the malloc sums by at least
   --scale-speedup (default 0.10): recycling mapped, already-faulted
   stack blocks has to pay both at spawn time (elaboration, respawn
   generations) and in steady state (no munmap/mmap churn, no value-init
   memset of whole stacks). bench_scale's rows deliberately emit
   elab_wall_seconds/run_wall_seconds and no "wall_seconds", so the
   generic worker gates (2 and 4) do not double-gate this bench; its
   deterministic fields (dates, checksum, switch/delta/spawn counts) are
   covered by check 1, which holds the pooled allocator and both worker
   sweeps to bit-exactness against the committed baseline. Noise-floored
   on the malloc reference sums like the other relative gates.

8. Fiber-switch gate: rows carrying a "switch_path" field
   (bench_fifo_ops --json) time the same number of round trips through
   two bare ping-pongs of the same shape, one on the kernel's own fiber
   switch ("fiber", kernel/fiber_context.h) and one on glibc's
   swapcontext ("swapcontext"), the switch the kernel used before its
   hand-written x86-64 one. The fiber path must be at least
   SWITCH_SPEEDUP (3.0) times faster per round trip. A third row
   ("kernel") times thread resumes through the whole scheduler; it is
   informational, and only its deterministic fields are compared.
   Noise-floored on the swapcontext wall.

The run is meant to exercise every gate above (GATES): one that is
skipped anywhere (noise floor, too few cores) or never evaluated by any
of the given files fails the run instead of passing quietly. The
adaptive gate's "n/a" for a group with no fixed rows in the adaptive
rows' execution mode is structural, not a skip, and does not count.

Wall-clock fields (any key containing "wall" or "seconds") are never
compared against the baseline: baselines are committed from whatever
machine regenerated them, and absolute times do not travel.

Usage:
  tools/check_bench.py --baseline-dir bench/baselines \
      [--wall-tolerance 0.25] [--min-ref-wall 0.05] [--min-speedup 0.10] \
      [--cores N] [--report FILE] BENCH_foo.json [BENCH_bar.json ...]

Exit status 0 when every check passes, 1 otherwise. --report additionally
writes the full comparison (uploaded as a CI artifact).

Regenerating baselines after an intended behavior change:
  run the bench with the exact invocation recorded in
  bench/baselines/README.md and copy the BENCH_*.json over the old one.
"""

import argparse
import json
import os
import sys


def is_wall_key(key):
    lowered = key.lower()
    return "wall" in lowered or "seconds" in lowered


def load_rows(path):
    with open(path) as f:
        doc = json.load(f)
    return doc.get("rows", [])


def compare_to_baseline(name, rows, baseline_rows, out):
    """Field-exact comparison of deterministic fields; returns #failures."""
    if len(rows) != len(baseline_rows):
        out.append(f"FAIL {name}: {len(rows)} rows vs {len(baseline_rows)} "
                   "in baseline (bench invocation changed? regenerate the "
                   "baseline alongside)")
        return 1
    drifted = []  # (row index, field, baseline value, actual value)
    for i, (row, base) in enumerate(zip(rows, baseline_rows)):
        for key, expected in base.items():
            if is_wall_key(key):
                continue
            actual = row.get(key)
            if actual != expected:
                drifted.append((i, key, expected, actual))
    if not drifted:
        out.append(f"ok   {name}: {len(rows)} rows match baseline "
                   "(deterministic fields)")
        return 0
    # A readable diff table: one line per drifted field, aligned.
    out.append(f"FAIL {name}: {len(drifted)} deterministic field(s) drifted "
               "from baseline")
    header = ("row", "field", "baseline", "actual")
    table = [header] + [(str(i), key, repr(expected), repr(actual))
                        for i, key, expected, actual in drifted]
    widths = [max(len(line[col]) for line in table) for col in range(4)]
    for line in table:
        out.append("       " + "  ".join(cell.ljust(width)
                                         for cell, width in zip(line, widths)))
    return len(drifted)


def check_worker_walls(name, rows, tolerance, min_ref_wall, out):
    """Summed wall time per worker count vs the smallest count's sum."""
    sums = {}
    for row in rows:
        if "workers" not in row or "wall_seconds" not in row:
            return 0
        sums.setdefault(row["workers"], 0.0)
        sums[row["workers"]] += row["wall_seconds"]
    if len(sums) < 2:
        return 0
    reference_workers = min(sums)
    reference = sums[reference_workers]
    if reference < min_ref_wall:
        out.append(f"skip {name}: reference wall {reference:.3f}s below "
                   f"{min_ref_wall}s noise floor, worker gate not applied")
        return 0
    failures = 0
    for workers in sorted(sums):
        ratio = sums[workers] / reference
        verdict = "ok  "
        if workers != reference_workers and ratio > 1.0 + tolerance:
            verdict = "FAIL"
            failures += 1
        out.append(f"{verdict} {name}: workers={workers} wall "
                   f"{sums[workers]:.3f}s ({ratio:.2f}x of "
                   f"workers={reference_workers})")
    return failures


def check_speedup(name, rows, min_speedup, min_ref_wall, cores, out):
    """Largest worker count must beat the smallest on fixed-row wall sums."""
    sums = {}
    for row in rows:
        if "workers" not in row or "wall_seconds" not in row:
            return 0
        if row.get("adaptive"):
            continue  # barrier-bound by design, see module docstring
        sums.setdefault(row["workers"], 0.0)
        sums[row["workers"]] += row["wall_seconds"]
    if len(sums) < 2 or max(sums) < 2:
        return 0
    if cores < 2:
        out.append(f"skip {name}: {cores} core(s) available, speedup gate "
                   "needs a multicore machine")
        return 0
    reference_workers = min(sums)
    parallel_workers = max(sums)
    reference = sums[reference_workers]
    if reference < min_ref_wall:
        out.append(f"skip {name}: reference wall {reference:.3f}s below "
                   f"{min_ref_wall}s noise floor, speedup gate not applied")
        return 0
    wall = sums[parallel_workers]
    speedup = reference / wall if wall > 0 else float("inf")
    required = 1.0 / (1.0 - min_speedup)
    verdict = "ok  " if speedup >= required else "FAIL"
    out.append(f"{verdict} {name}: workers={parallel_workers} fixed-row wall "
               f"{wall:.3f}s, {speedup:.2f}x over workers="
               f"{reference_workers} ({reference:.3f}s), floor "
               f"{required:.2f}x")
    return 0 if verdict == "ok  " else 1


def check_chunked_speedup(name, rows, min_speedup, min_ref_wall, out):
    """Chunked rows must beat per-element rows on the wide-FIFO sweep."""
    flagged = [r for r in rows
               if "chunk_mode" in r and "wall_seconds" in r]
    if not flagged:
        return 0
    sums = {}
    for row in flagged:
        if not row.get("wide"):
            continue  # narrow FIFOs are blocking-dominated, not gated
        sums.setdefault(row["chunk_mode"], 0.0)
        sums[row["chunk_mode"]] += row["wall_seconds"]
    element = sums.get("element", 0.0)
    chunked = sums.get("chunked")
    if chunked is None or element == 0.0:
        return 0
    if element < min_ref_wall:
        out.append(f"skip {name}: element wide wall {element:.3f}s below "
                   f"{min_ref_wall}s noise floor, chunked gate not applied")
        return 0
    speedup = element / chunked if chunked > 0 else float("inf")
    required = 1.0 / (1.0 - min_speedup)
    verdict = "ok  " if speedup >= required else "FAIL"
    out.append(f"{verdict} {name}: chunked wide wall {chunked:.3f}s, "
               f"{speedup:.2f}x over element ({element:.3f}s), floor "
               f"{required:.2f}x")
    return 0 if verdict == "ok  " else 1


def check_fleet_throughput(name, rows, min_throughput, min_ref_wall, out):
    """Fork path must reach a fraction of the cold path's scenarios/sec."""
    walls = {}
    for row in rows:
        if "fleet_mode" in row and "wall_seconds" in row:
            walls[row["fleet_mode"]] = row["wall_seconds"]
    fork = walls.get("fork")
    cold = walls.get("cold")
    if fork is None or cold is None:
        return 0
    if cold < min_ref_wall:
        out.append(f"skip {name}: cold wall {cold:.3f}s below "
                   f"{min_ref_wall}s noise floor, fleet gate not applied")
        return 0
    throughput = cold / fork if fork > 0 else float("inf")
    verdict = "ok  " if throughput >= min_throughput else "FAIL"
    out.append(f"{verdict} {name}: fork wall {fork:.3f}s = "
               f"{100 * throughput:.0f}% of cold throughput "
               f"({cold:.3f}s), floor {100 * min_throughput:.0f}%")
    return 0 if verdict == "ok  " else 1


def check_scale_alloc(name, rows, min_speedup, min_ref_wall, out):
    """Pooled stacks must beat malloc stacks on elaboration and run walls."""
    flagged = [r for r in rows if "alloc_mode" in r]
    if not flagged:
        return 0
    sums = {}  # (alloc_mode, phase key) -> summed wall
    for row in flagged:
        for key in ("elab_wall_seconds", "run_wall_seconds"):
            if key in row:
                sums.setdefault((row["alloc_mode"], key), 0.0)
                sums[(row["alloc_mode"], key)] += row[key]
    failures = 0
    required = 1.0 / (1.0 - min_speedup)
    for key, phase in (("elab_wall_seconds", "elab"),
                       ("run_wall_seconds", "run")):
        malloc = sums.get(("malloc", key))
        pooled = sums.get(("pooled", key))
        if malloc is None or pooled is None:
            continue
        if malloc < min_ref_wall:
            out.append(f"skip {name}: malloc {phase} wall {malloc:.3f}s "
                       f"below {min_ref_wall}s noise floor, scale {phase} "
                       "gate not applied")
            continue
        speedup = malloc / pooled if pooled > 0 else float("inf")
        verdict = "ok  " if speedup >= required else "FAIL"
        if verdict == "FAIL":
            failures += 1
        out.append(f"{verdict} {name}: pooled {phase} wall {pooled:.3f}s, "
                   f"{speedup:.2f}x over malloc ({malloc:.3f}s), floor "
                   f"{required:.2f}x")
    return failures


# How many times faster than swapcontext the fiber switch must be.
SWITCH_SPEEDUP = 3.0


def check_switch_speedup(name, rows, min_ref_wall, out):
    """The fiber ping-pong must beat the same swapcontext ping-pong."""
    per_trip = {}
    walls = {}
    for row in rows:
        if "switch_path" in row and "wall_seconds" in row:
            per_trip[row["switch_path"]] = row["wall_ns_per_round_trip"]
            walls[row["switch_path"]] = row["wall_seconds"]
    fiber = per_trip.get("fiber")
    reference = per_trip.get("swapcontext")
    if fiber is None or reference is None:
        return 0
    if walls["swapcontext"] < min_ref_wall:
        out.append(f"skip {name}: swapcontext wall "
                   f"{walls['swapcontext']:.3f}s below {min_ref_wall}s "
                   "noise floor, switch gate not applied")
        return 0
    ratio = reference / fiber if fiber > 0 else float("inf")
    verdict = "ok  " if ratio >= SWITCH_SPEEDUP else "FAIL"
    out.append(f"{verdict} {name}: fiber round trip {fiber:.1f} ns, "
               f"{ratio:.2f}x faster than swapcontext ({reference:.1f} ns), "
               f"floor {SWITCH_SPEEDUP:.2f}x")
    return 0 if verdict == "ok  " else 1


def check_adaptive_walls(name, rows, min_throughput, min_ref_wall, out):
    """Adaptive rows vs the best fixed row of their comparison group."""
    flagged = [r for r in rows
               if "adaptive" in r and "wall_seconds" in r]
    if not flagged:
        return 0
    groups = {}
    for row in flagged:
        groups.setdefault((row.get("workers"), row.get("table")),
                          []).append(row)
    failures = 0
    for key in sorted(groups, key=str):
        group = groups[key]
        adaptive = [r for r in group if r["adaptive"]]
        if not adaptive:
            continue
        # Free-running fixed rows (lookahead_advances > 0) and
        # barrier-bound adaptive rows are different execution modes; only
        # compare like with like.
        adaptive_free = bool(adaptive[0].get("lookahead_advances", 0))
        fixed = [r["wall_seconds"] for r in group
                 if not r["adaptive"]
                 and bool(r.get("lookahead_advances", 0)) == adaptive_free]
        label = name if key == (None, None) else f"{name} group {key}"
        if not fixed:
            out.append(f"n/a  {label}: no fixed rows in the adaptive rows' "
                       "execution mode (fixed rows free-run ahead of the "
                       "horizon, adaptive rows are barrier-bound), adaptive "
                       "gate not applied")
            continue
        best = min(fixed)
        worst = max(fixed)
        if best >= min_ref_wall:
            for row in adaptive:
                wall = row["wall_seconds"]
                throughput = best / wall if wall > 0 else 1.0
                verdict = "ok  "
                if throughput < min_throughput:
                    verdict = "FAIL"
                    failures += 1
                out.append(f"{verdict} {label}: adaptive wall {wall:.3f}s = "
                           f"{100 * throughput:.0f}% of best fixed "
                           f"({best:.3f}s), floor "
                           f"{100 * min_throughput:.0f}%")
        elif worst >= min_ref_wall:
            # Best fixed is sub-noise; fall back to escape-the-seed: the
            # adaptive row (seeded from the worst quantum) must at least
            # clearly beat the worst fixed row.
            for row in adaptive:
                wall = row["wall_seconds"]
                verdict = "ok  "
                if wall > worst / 2:
                    verdict = "FAIL"
                    failures += 1
                out.append(f"{verdict} {label}: adaptive wall {wall:.3f}s "
                           f"vs worst fixed {worst:.3f}s (escape-the-seed "
                           "gate: must be <= half; best fixed sub-noise)")
        else:
            out.append(f"skip {label}: all fixed walls below "
                       f"{min_ref_wall}s noise floor, adaptive gate not "
                       "applied")
    return failures


# The wall gates, in report order. Each one must be evaluated by at least
# one of the given files, and skipped by none.
GATES = {
    "worker": lambda name, rows, args, out: check_worker_walls(
        name, rows, args.wall_tolerance, args.min_ref_wall, out),
    "speedup": lambda name, rows, args, out: check_speedup(
        name, rows, args.min_speedup, args.min_ref_wall, args.cores, out),
    "chunked": lambda name, rows, args, out: check_chunked_speedup(
        name, rows, args.chunked_speedup, args.min_ref_wall, out),
    "fleet": lambda name, rows, args, out: check_fleet_throughput(
        name, rows, args.fleet_throughput, args.min_ref_wall, out),
    "scale": lambda name, rows, args, out: check_scale_alloc(
        name, rows, args.scale_speedup, args.min_ref_wall, out),
    "switch": lambda name, rows, args, out: check_switch_speedup(
        name, rows, args.min_ref_wall, out),
    "adaptive": lambda name, rows, args, out: check_adaptive_walls(
        name, rows, args.adaptive_throughput, args.min_ref_wall, out),
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline-dir", required=True)
    parser.add_argument("--wall-tolerance", type=float, default=0.25,
                        help="allowed fractional wall regression of any "
                        "worker count vs the smallest one (default 0.25)")
    parser.add_argument("--min-ref-wall", type=float, default=0.05,
                        help="skip the worker gate when the reference sum "
                        "is below this many seconds (noise floor)")
    parser.add_argument("--min-speedup", type=float, default=0.10,
                        help="fractional wall improvement the largest "
                        "worker count's fixed rows must show over the "
                        "smallest count (default 0.10)")
    parser.add_argument("--cores", type=int, default=os.cpu_count() or 1,
                        help="cores available to the benched run; the "
                        "speedup gate is skipped below 2 (default: this "
                        "machine's count)")
    parser.add_argument("--chunked-speedup", type=float, default=0.10,
                        help="fractional wall improvement the chunked "
                        "rows must show over the per-element rows on the "
                        "wide-FIFO sweep (default 0.10)")
    parser.add_argument("--fleet-throughput", type=float, default=0.35,
                        help="fraction of the cold path's scenarios/sec "
                        "the fork path must reach in bench_fleet "
                        "(default 0.35)")
    parser.add_argument("--scale-speedup", type=float, default=0.10,
                        help="fractional wall improvement bench_scale's "
                        "pooled rows must show over the malloc rows, on "
                        "both the elaboration and run sums (default 0.10)")
    parser.add_argument("--adaptive-throughput", type=float, default=0.9,
                        help="fraction of the best fixed-quantum row's "
                        "wall-clock throughput every adaptive row must "
                        "reach (default 0.9)")
    parser.add_argument("--report", help="also write the comparison here")
    parser.add_argument("files", nargs="+")
    args = parser.parse_args()

    out = []
    failures = 0
    outcomes = {}  # gate name -> verdict prefixes it produced
    for path in args.files:
        name = os.path.basename(path)
        rows = load_rows(path)
        baseline_path = os.path.join(args.baseline_dir, name)
        if os.path.exists(baseline_path):
            failures += compare_to_baseline(name, rows,
                                            load_rows(baseline_path), out)
        else:
            out.append(f"FAIL {name}: no baseline at {baseline_path} "
                       "(new bench? commit its baseline)")
            failures += 1
        for gate, check in GATES.items():
            first = len(out)
            failures += check(name, rows, args, out)
            # Each verdict line starts with "ok  ", "FAIL", "skip" or "n/a ".
            outcomes.setdefault(gate, set()).update(
                line[:4] for line in out[first:])

    for gate, seen in outcomes.items():
        if "skip" in seen or not seen & {"ok  ", "FAIL"}:
            out.append(f"FAIL gate '{gate}' was skipped or never evaluated")
            failures += 1

    report = "\n".join(out) + "\n"
    sys.stdout.write(report)
    if args.report:
        with open(args.report, "w") as f:
            f.write(report)
    if failures:
        sys.stdout.write(f"{failures} check(s) failed\n")
        return 1
    sys.stdout.write("all bench checks passed\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
