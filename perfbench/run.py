#!/usr/bin/env python3
"""Run one workload of the repo benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. The first run configures and builds
perfbench/ (which builds the `hr` library through the repo's own
CMakeLists.txt) into .bench_build/perfbench; later runs only relink what
changed. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
with --trace 1 they are the per-layer ones, from a run that repeats one
pass with the obs/trace.hh flight recorder on. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BUILD_DIR = Path(".bench_build") / "perfbench"
DIGESTS = Path(".bench_build") / "perfbench-digests.json"
RUN_TIMEOUT_S = 170

# Span categories of the library's own trace points, by layer.
LAYER_OF_CATEGORY = {
    "bench": "bench",
    "exp": "exp", "runner": "exp", "sweep": "exp", "batch": "exp",
    "pool": "exp",
    "sim": "sim", "channel": "channel", "analysis": "analysis",
    "attacks": "attacks",
}
SELF_LAYERS = ["bench", "exp", "sim", "channel", "analysis", "attacks"]


def log(text):
    print(text, file=sys.stderr, flush=True)


def build(targets=("hr_perfbench",)):
    """Configure once, then build @p targets; return the build dir."""
    if not (Path("CMakeLists.txt").is_file() and Path("src").is_dir()):
        raise RuntimeError("run from the root of the source tree "
                           "(CMakeLists.txt and src/ are missing)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "build.ninja").is_file() and \
            not (BUILD_DIR / "Makefile").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", "perfbench", "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  *targets, "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise RuntimeError("build step failed: " + " ".join(step))
    return BUILD_DIR


def self_times(trace_path):
    """Self time (s) per layer: span minus its direct children, per thread."""
    with open(trace_path) as f:
        events = json.load(f)["traceEvents"]
    spans = {}
    for e in events:
        if e.get("ph") == "X":
            spans.setdefault(e["tid"], []).append(e)
    self_s = {layer: 0.0 for layer in SELF_LAYERS}
    totals = {}
    longest = {}

    def close(layer, dur, children):
        if layer in self_s:
            self_s[layer] += (dur - children) / 1e6

    for thread in spans.values():
        thread.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # open spans: [end_us, layer, dur_us, children_us]
        for e in thread:
            while stack and stack[-1][0] <= e["ts"]:
                close(*stack.pop()[1:])
            if stack:
                stack[-1][3] += e["dur"]
            layer = LAYER_OF_CATEGORY.get(e.get("cat"), e.get("cat"))
            stack.append([e["ts"] + e["dur"], layer, e["dur"], 0.0])
            totals[e["name"]] = totals.get(e["name"], 0.0) + e["dur"] / 1e6
            longest[e["name"]] = max(longest.get(e["name"], 0.0),
                                     e["dur"] / 1e6)
        while stack:
            close(*stack.pop()[1:])
    return self_s, totals, longest


def ratio(num, den):
    return num / den if den else 0.0


def fastest_pass(report):
    """One pass built from each item's fastest repetition in the run.

    Every pass repeats the same items, and host noise only ever adds
    time to an item, in bursts that can cover several passes in a row.
    """
    return sum(min(times) for times in zip(*report["item_s"]))


def end_to_end(report):
    wall = fastest_pass(report)
    instrs = report["counters"]["machine.run_instrs"]
    return {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(report["setup_s"]), "s"),
        "sim_minstr_per_s": (instrs / 1e6 / wall, "Minstr/s"),
        "peak_rss_mb": (report["peak_rss_mb"], "MB"),
    }


def per_layer(report, trace_path):
    c = report["counters"]
    traced = report["traced"]
    tc = traced["counters"]
    held = report["held"]
    counts = report["counts"]
    pass_s = fastest_pass(report)
    self_s, totals, longest = self_times(trace_path)
    span = totals.get
    decode_hits = c["decode.hits_total"] + c["decode.aliases_total"]
    fwd, refused = c["lockstep.forwards_total"], c["lockstep.refusals_total"]
    batch = c["batch.trials_total"]
    metrics = {
        "exp.pool_build_s": (span("pool.build", 0.0), "s"),
        "exp.pool_machines_built": (tc["pool.machines_built"], "count"),
        "exp.pool_lease_ms": (span("pool.restore", 0.0) * 1e3, "ms"),
        "exp.pool_reuse_ratio": (ratio(c["pool.leases_reused"],
                                       c["pool.leases_total"]), "ratio"),
        "exp.sweep_call_s": (span("exp.sweep_call", 0.0), "s"),
        "exp.batch_trials": (batch, "count"),
        "exp.batch_useful_ratio": (ratio(c["batch.followers_replayed"] +
                                         c["batch.followers_stepped"],
                                         batch), "ratio"),
        "core.instrs": (c["machine.run_instrs"], "count"),
        "core.machine_runs": (c["machine.runs_total"], "count"),
        "core.host_ns_per_instr": (ratio(pass_s * 1e9,
                                         c["machine.run_instrs"]), "ns"),
        "core.sim_cycles": (held["cycles"], "count"),
        "core.rob_full_stalls": (held["rob_full_stalls"], "count"),
        "core.no_commit_cycles": (held["no_commit_cycles"], "count"),
        "core.squashed_instrs": (held["squashed_instrs"], "count"),
        "lockstep.forwards": (fwd, "count"),
        "lockstep.refusals": (refused, "count"),
        "lockstep.forward_ratio": (ratio(fwd, fwd + refused), "ratio"),
        "lockstep.cycles_skipped": (c["lockstep.cycles_skipped"], "count"),
        "decode.hits": (decode_hits, "count"),
        "decode.misses": (c["decode.misses_total"], "count"),
        "decode.hit_ratio": (ratio(decode_hits,
                                   decode_hits + c["decode.misses_total"]),
                             "ratio"),
        "cache.l1_misses": (held["l1_misses"], "count"),
        "cache.l2_misses": (held["l2_misses"], "count"),
        "cache.l3_misses": (held["l3_misses"], "count"),
        "cache.mem_accesses": (held["mem_accesses"], "count"),
        "channel.prepare_s": (span("channel.prepare_call", 0.0), "s"),
        "channel.run_s": (span("channel.run_call", 0.0), "s"),
        "channel.symbols": (c["channel.symbols_sent"], "count"),
        "channel.symbol_errors": (c["channel.symbol_errors"], "count"),
        "channel.frames_synced": (c["channel.frames_synced"], "count"),
        "analysis.leakage_target_s": (span("analysis.leakage_target", 0.0),
                                      "s"),
        "analysis.target_s_max": (longest.get("analysis.leakage_target",
                                              0.0), "s"),
        "analysis.pin_target_share": (ratio(
            counts.get("analysis.pin_target_s", 0.0),
            report["pass_s"][0]), "ratio"),
        "attacks.evset_build_s": (span("attacks.evset_build", 0.0), "s"),
        "attacks.timer_queries": (counts.get("attacks.timer_queries", 0),
                                  "count"),
        "attacks.traversed_loads": (counts.get("attacks.traversed_loads",
                                               0), "count"),
        "sim.machine_construct_s": (span("sim.machine_construct", 0.0),
                                    "s"),
        # Whole pass against whole pass: the per-item minima behind
        # wall_s would sit below any single pass.
        "obs.trace_overhead": (ratio(traced["pass_s"],
                                     statistics.median(report["pass_s"])),
                               "ratio"),
        "obs.trace_events": (traced["events"], "count"),
        "obs.events_dropped": (traced["events_dropped"], "count"),
        "host.anchor_s": (statistics.median(report["anchor_s"]), "s"),
    }
    for layer in SELF_LAYERS:
        metrics["self." + layer + "_s"] = (self_s[layer], "s")
    return metrics


def check_digest(binary, workload, seed, digest):
    """Same build and seed, same digest: across runs, traced or not."""
    try:
        with open(DIGESTS) as f:
            known = json.load(f)
    except (OSError, ValueError):
        known = {}
    with open(binary, "rb") as f:
        build_id = hashlib.sha1(f.read()).hexdigest()[:16]
    key = "%s:%s:%d" % (build_id, workload, seed)
    if key in known and known[key] != digest:
        return False
    known[key] = digest
    with open(DIGESTS, "w") as f:
        json.dump(known, f, indent=1, sort_keys=True)
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build() / "hr_perfbench"
    except (RuntimeError, OSError) as e:
        log("perfbench: %s" % e)
        return 1

    trace_path = BUILD_DIR / ("trace-%s-%d.json" % (args.workload, args.seed))
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        command += ["--trace-out", str(trace_path)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out" % args.workload)
        return 1
    if done.returncode != 0:
        log("perfbench: hr_perfbench exited with %d" % done.returncode)
        return 1
    report = json.loads(done.stdout.strip().splitlines()[-1])

    # Run-level checks count as items too.
    checks = [
        (report["digests_agree"],
         "passes of one seed gave different digests"),
        (check_digest(binary, args.workload, args.seed, report["digest"]),
         "digest differs from an earlier run of this seed"),
    ]
    if args.trace:
        checks.append((report["traced"]["events_dropped"] == 0,
                       "the flight recorder dropped events"))
        metrics = per_layer(report, trace_path)
        trace_path.unlink()
    else:
        metrics = end_to_end(report)
    failures = report["failures"] + [what for ok, what in checks if not ok]
    attempted = report["attempted"] + len(checks)
    failed = report["failed"] + sum(1 for ok, _ in checks if not ok)
    for failure in failures:
        log("perfbench: FAIL %s" % failure)
    log("perfbench: %s seed %d digest %s, %d/%d items failed (fail_ratio "
        "%.4f), %d pass(es)" % (args.workload, args.seed, report["digest"],
                                failed, attempted, ratio(failed, attempted),
                                len(report["pass_s"])))

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
