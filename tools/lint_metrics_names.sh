#!/usr/bin/env bash
# Metrics-name lint: every instrument registered in the metrics
# catalog (src/obs/metrics.hh) must be named `subsystem.noun_verb` —
# a known subsystem prefix, one dot, then lowercase snake_case. The
# registry is string-keyed and its snapshot is the stable contract
# consumed by `hr_bench metrics`, the perf JSON's "metrics" object,
# and CI's jobs-invariance diff, so name drift is an interface break,
# not a style nit.
#
# Usage: tools/lint_metrics_names.sh  (run from the repo root; exits
# nonzero listing every violation)
set -u

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

catalog="src/obs/metrics.hh"
subsystems='machine|batch|decode|pool|lockstep|channel|runner|sweep|progress|trace'

# Catalog entries look like:  MetricCounter foo{*this, "machine.runs_total"};
# (joined across line wraps before matching).
names=$(tr '\n' ' ' < "$catalog" |
    grep -oE 'Metric(Counter|Gauge|Histogram)[[:space:]]+[A-Za-z0-9_]+\{\*this,[[:space:]]*"[^"]+"' |
    grep -oE '"[^"]+"' | tr -d '"')

if [ -z "$names" ]; then
    echo "metrics-name lint: no catalog entries found in $catalog" >&2
    echo "(the lint pattern no longer matches the registration idiom?)" >&2
    exit 1
fi

violations=""
while IFS= read -r name; do
    if ! echo "$name" | grep -qE "^($subsystems)\.[a-z][a-z0-9_]*$"; then
        violations="$violations$name"$'\n'
    fi
done <<< "$names"

if [ -n "$violations" ]; then
    echo "metrics-name lint: names violating subsystem.noun_verb:" >&2
    printf '%s' "$violations" >&2
    echo >&2
    echo "Metric names must be '<subsystem>.<noun_verb>' with subsystem" >&2
    echo "one of: ${subsystems//|/, }" >&2
    echo "and the rest lowercase snake_case (e.g. machine.runs_total)." >&2
    exit 1
fi

echo "metrics-name lint: clean ($(echo "$names" | wc -l) metric names)"
