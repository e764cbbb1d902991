#!/usr/bin/env python3
"""The benchmark's own test: it drives the same work as the CLI.

    python3 perfbench/test_parity.py [--seed N] [--skip-analyze]

Run from the root of the source tree. For one seed it checks that

  - the channel_noise cell table equals the one of
    `hr_bench run fig_channel_ber_vs_noise --param quick=1 --trials=1`;
  - the evset rows equal those of `hr_bench run tab_evset --trials=5`;
  - each gadget_sweeps table equals the matching `hr_bench sweep`;
  - the analyze_all report equals `hr_bench analyze --all` (about a
    minute; --skip-analyze leaves it out);

and that every workload's simulated-output digest is the same in two
processes and in the traced pass of one of them. Exits 0 iff all hold.
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (the benchmark's own build step)


def emitted(bench, workload, seed):
    """The tables of one pass, as {label: csv}."""
    out = subprocess.run([str(bench), "--workload", workload, "--seed",
                          str(seed), "--seconds", "0.001",
                          "--emit"], check=True, stdout=subprocess.PIPE,
                         text=True).stdout
    tables = {}
    for block in out.split("## ")[1:]:
        label, _, body = block.partition("\n")
        tables[label] = body
    return tables


def cli(hr_bench, *args):
    return subprocess.run([str(hr_bench), *args], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True).stdout


def csv_section(csv, title):
    """The rows under `# table: <title>` in a scenario's CSV output."""
    lines = csv.splitlines(keepends=True)
    start = lines.index("# table: %s\n" % title) + 1
    end = start
    while end < len(lines) and not lines[end].startswith("# "):
        end += 1
    return "".join(lines[start:end])


def report(bench, workload, seed, trace_out):
    out = subprocess.run([str(bench), "--workload", workload, "--seed",
                          str(seed), "--seconds", "0.001",
                          "--trace-out", trace_out], check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--skip-analyze", action="store_true")
    args = parser.parse_args()
    seed = args.seed

    build_dir = run.build(("hr_perfbench", "hr_bench"))
    bench = build_dir / "hr_perfbench"
    hr_bench = build_dir / "hr" / "hr_bench"
    failures = []

    def expect(name, got, want):
        status = "ok" if got == want and got else "FAIL"
        print("%-4s %s" % (status, name), flush=True)
        if status != "ok":
            failures.append(name)

    table = "raw symbol error rate per channel x neighbor"
    expect("channel_noise = run fig_channel_ber_vs_noise --param quick=1 "
           "--trials=1",
           emitted(bench, "channel_noise", seed)[table],
           csv_section(cli(hr_bench, "run", "fig_channel_ber_vs_noise",
                           "--param", "quick=1", "--trials=1",
                           "--seed=%d" % seed, "--format=csv"), table))

    expect("evset = run tab_evset --trials=5",
           emitted(bench, "evset", seed)["results"],
           csv_section(cli(hr_bench, "run", "tab_evset", "--trials=5",
                           "--seed=%d" % seed, "--format=csv"), "results"))

    for spec, csv in emitted(bench, "gadget_sweeps", seed).items():
        expect("sweep " + spec, csv,
               cli(hr_bench, "sweep", *spec.split(), "--seed=%d" % seed,
                   "--format=csv"))

    workloads = ["channel_noise", "gadget_sweeps", "analyze_all", "evset"]
    if args.skip_analyze:
        workloads.remove("analyze_all")
    else:
        expect("analyze --all",
               emitted(bench, "analyze_all", seed)["analyze --all"],
               cli(hr_bench, "analyze", "--all", "--format=json"))

    with tempfile.TemporaryDirectory(dir=build_dir) as tmp:
        trace = str(Path(tmp) / "trace.json")
        for workload in workloads:
            first = report(bench, workload, seed, trace)
            second = report(bench, workload, seed, trace)
            expect("%s digest: traced pass = untraced pass" % workload,
                   first["digests_agree"] and second["digests_agree"],
                   True)
            expect("%s digest: same in two processes" % workload,
                   first["digest"], second["digest"])

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
