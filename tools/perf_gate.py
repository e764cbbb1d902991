#!/usr/bin/env python3
"""Same-host performance gate: this tree against a base revision.

    python3 tools/perf_gate.py --base REV

Run from the root of the head tree (a git checkout). The gate checks
REV out into a detached worktree under .bench_build/, then runs the
unchanged `python3 perfbench/run.py --trace 0` for every workload of
the head's BENCHMARK.json in both trees, PAIRS times with one seed,
alternating which tree goes first. Each tree builds its own
.bench_build/. Both trees run on the same host in the same minutes, so
no host-speed correction is needed.

The gate fails (exit 1) when, on any workload:
  - a head run exits nonzero;
  - the head's failed share (failed / attempted) is higher than the
    base's;
  - the head's median GATED_METRIC is worse than the base's by more than
    that metric's `bound`, in the direction of its `better`, both read
    from BENCHMARK.json.

Every run record goes to .bench_build/perf_gate.json.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 5
SECONDS = 15
SEED = 1
GATED_METRIC = "wall_s"
WORKTREE = Path(".bench_build") / "perf_gate_base"
RUNS_JSON = Path(".bench_build") / "perf_gate.json"


def run_workload(tree, workload):
    """One perfbench run in @p tree: its exit status and its result."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, stdout=subprocess.PIPE, text=True)
    code, result = done.returncode, None
    if code == 0:
        try:
            result = json.loads(done.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            code = 1  # a run without its result line is a failed run
    return {"exit": code, "result": result}


def failed_share(runs):
    attempted = sum(r["result"]["attempted"] for r in runs if r["result"])
    failed = sum(r["result"]["failed"] for r in runs if r["result"])
    return failed / attempted if attempted else 0.0


def decide(benchmark, runs):
    """The verdict on @p runs: (report lines, failure lines).

    @p benchmark is the parsed BENCHMARK.json; each run is a dict with
    "tree" ("base" or "head"), "workload", "exit" and "result" (the
    JSON line perfbench/run.py printed, or None).
    """
    metric = next(m for m in benchmark["end_to_end"]
                  if m["name"] == GATED_METRIC)
    lower = metric["better"] == "lower"
    report, failures = [], []
    for workload in (w["name"] for w in benchmark["workloads"]):
        mine = [r for r in runs if r["workload"] == workload]
        base = [r for r in mine if r["tree"] == "base"]
        head = [r for r in mine if r["tree"] == "head"]
        crashed = sum(1 for r in head if r["exit"] != 0)
        if crashed:
            failures.append("%s: %d head run(s) exited nonzero"
                            % (workload, crashed))
        base_share, head_share = failed_share(base), failed_share(head)
        if head_share > base_share:
            failures.append("%s: failed share %.4f, base %.4f"
                            % (workload, head_share, base_share))
        values = {tree: [r["result"]["metrics"][GATED_METRIC]["value"]
                         for r in group if r["exit"] == 0]
                  for tree, group in (("base", base), ("head", head))}
        if not values["base"] or not values["head"]:
            report.append("%s: no %s runs to compare" % (
                workload, "base" if not values["base"] else "head"))
            continue
        base_med = statistics.median(values["base"])
        head_med = statistics.median(values["head"])
        worse = (head_med - base_med if lower else base_med - head_med) \
            / base_med
        line = "%s: %s median base %.4g, head %.4g, %+.1f%% worse " \
            "(bound %.0f%%)" % (workload, GATED_METRIC, base_med, head_med,
                                100 * worse, 100 * metric["bound"])
        report.append(line)
        if worse > metric["bound"]:
            failures.append(line)
    return report, failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True,
                        help="git revision to compare against")
    args = parser.parse_args()

    head = Path.cwd()
    with open(head / "BENCHMARK.json") as f:
        benchmark = json.load(f)
    workloads = [w["name"] for w in benchmark["workloads"]]
    done = subprocess.run(
        ["git", "rev-parse", "--verify", "--quiet", args.base + "^{commit}"],
        stdout=subprocess.PIPE, text=True)
    if done.returncode:
        sys.exit("perf_gate: --base %s is not a commit" % args.base)
    base_rev = done.stdout.strip()

    base = head / WORKTREE
    shutil.rmtree(base, ignore_errors=True)  # left by an interrupted run
    subprocess.run(["git", "worktree", "prune"], check=True)
    subprocess.run(["git", "worktree", "add", "--detach", str(base),
                    base_rev], check=True, stdout=subprocess.DEVNULL)
    runs = []
    try:
        for pair in range(PAIRS):
            for index, workload in enumerate(workloads):
                order = [("base", base), ("head", head)]
                if (pair + index) % 2:
                    order.reverse()
                for tree, path in order:
                    record = {"tree": tree, "workload": workload,
                              "pair": pair}
                    record.update(run_workload(path, workload))
                    runs.append(record)
                    print("perf_gate: pair %d %s %s: exit %d" % (
                        pair, workload, tree, record["exit"]),
                        file=sys.stderr, flush=True)
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(base)])

    report, failures = decide(benchmark, runs)
    RUNS_JSON.parent.mkdir(exist_ok=True)
    with open(RUNS_JSON, "w") as f:
        json.dump({"base": base_rev, "pairs": PAIRS, "seconds": SECONDS,
                   "seed": SEED, "report": report, "failures": failures,
                   "runs": runs}, f, indent=1)
    for line in report:
        print(line)
    for line in failures:
        print("FAIL " + line)
    print("perf_gate: %s against %s" % ("FAIL" if failures else "PASS",
                                        base_rev[:12]))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
