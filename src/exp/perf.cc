#include "exp/perf.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "analysis/capacity.hh"
#include "channel/channel_registry.hh"
#include "exp/machine_pool.hh"
#include "exp/registry.hh"
#include "exp/runner.hh"
#include "exp/sweep.hh"
#include "gadgets/gadget_registry.hh"
#include "isa/program.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/machine.hh"
#include "sim/profiles.hh"
#include "util/log.hh"
#include "util/rng.hh"
#include "util/table.hh"

namespace hr
{

namespace
{

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Run batches of work until at least min_wall seconds are spent (one
 * batch minimum). The batch callback returns the number of work items
 * it performed; value = items / wall.
 */
template <typename Batch>
PerfSuite
measureRate(const std::string &name, const std::string &metric,
            double min_wall, Batch &&batch)
{
    PerfSuite suite;
    suite.name = name;
    suite.metric = metric;
    suite.unit = "/s";
    const double start = nowSeconds();
    double wall = 0;
    long long iters = 0;
    do {
        iters += batch();
        wall = nowSeconds() - start;
    } while (wall < min_wall);
    suite.value = static_cast<double>(iters) / wall;
    suite.wallSeconds = wall;
    suite.iterations = iters;
    suite.normalize = true;
    return suite;
}

/** Straight-line ALU/load/branch mix (L1-resident working set). */
Program
makeCoreWorkload()
{
    ProgramBuilder builder("perf_core");
    RegId acc = builder.movImm(1);
    RegId zero = builder.movImm(0);
    for (int rep = 0; rep < 40; ++rep) {
        for (int i = 0; i < 8; ++i) {
            const Addr addr =
                0x10000 + static_cast<Addr>((rep * 8 + i) % 64) * 64;
            RegId v = builder.loadAbsolute(addr);
            acc = builder.binop(Opcode::Add, acc, v);
        }
        acc = builder.binopImm(Opcode::Mul, acc, 3);
        acc = builder.binopImm(Opcode::Xor, acc, rep);
        const std::int32_t next = builder.newLabel();
        builder.branch(zero, next); // never taken, fully predictable
        builder.bind(next);
        builder.storeOrdered(0x20000 +
                                 static_cast<Addr>(rep % 16) * 64,
                             acc, acc);
    }
    builder.halt();
    return builder.take();
}

/** One fig08-style single-shot racing trial through the registry. */
bool
racingObservation(Machine &machine)
{
    ParamSet params;
    params.set("slow_ops", "20");
    params.set("ref_ops", "20");
    return GadgetRegistry::instance()
        .make("pa_race", machine, params)
        ->sample(true)
        .bit;
}

/** Warm caches and predictor so snapshots carry non-trivial state. */
void
warmMachine(Machine &machine)
{
    for (int i = 0; i < 256; ++i)
        machine.warm(0x10000 + static_cast<Addr>(i) * 64);
    Program prog = makeCoreWorkload();
    machine.run(prog);
    machine.settle();
}

/**
 * Wall time of a quick registered-scenario run (lower is better).
 * Best of several runs: a single millisecond-scale sample on a shared
 * CI runner varies far more than any regression tolerance.
 */
PerfSuite
scenarioWallSuite(const std::string &suite_name,
                  const std::string &scenario, int trials,
                  std::uint64_t seed)
{
    RunOptions options;
    options.trials = trials;
    options.seed = seed;
    options.params.setFromArg("quick=1");
    ExperimentRunner runner(options);
    Scenario &sc = ScenarioRegistry::instance().resolve(scenario);

    constexpr int kRuns = 3;
    double best = 0, total = 0;
    for (int i = 0; i < kRuns; ++i) {
        runner.run(sc);
        const double wall = runner.lastWallSeconds();
        total += wall;
        if (i == 0 || wall < best)
            best = wall;
    }

    PerfSuite suite;
    suite.name = suite_name;
    suite.metric =
        "best-of-" + std::to_string(kRuns) + " wall seconds for a "
        "quick " + scenario + " run";
    suite.unit = "s";
    suite.value = best;
    suite.wallSeconds = total;
    suite.iterations = kRuns;
    suite.higherIsBetter = false;
    suite.normalize = true;
    return suite;
}

} // namespace

std::vector<PerfSuite>
runPerfSuites(const PerfOptions &options)
{
    const double budget = options.quick ? 0.05 : 0.25;
    auto note = [&](const std::string &text) {
        if (options.progress)
            options.progress(text);
    };
    auto wanted = [&](const std::string &name) {
        if (options.only.empty())
            return true;
        return std::find(options.only.begin(), options.only.end(),
                         name) != options.only.end();
    };

    // Reject unknown --suite names up front instead of silently
    // selecting nothing, with the usual edit-distance suggestion.
    static const std::vector<std::string> kSuiteNames = {
        "host_speed",        "core_throughput",
        "cache_access_rate", "machine_construct",
        "snapshot_restore",  "trial_path_fresh",
        "trial_path_scalar", "decode_cache_hit",
        "trace_overhead",
        "fig08_quick_wall",  "fig10_quick_wall",
        "channel_symbol_rate", "channel_frame_path",
        "sweep_points",       "analyze_capacity"};
    for (const std::string &name : options.only) {
        if (std::find(kSuiteNames.begin(), kSuiteNames.end(), name) !=
            kSuiteNames.end())
            continue;
        const std::string suggestion = closestMatch(name, kSuiteNames);
        fatal("perf: unknown suite '" + name + "'" +
              (suggestion.empty()
                   ? ""
                   : " (did you mean '" + suggestion + "'?)"));
    }

    std::vector<PerfSuite> suites;

    if (wanted("host_speed")) {
        note("host_speed");
        // Fixed pure-CPU spin used to normalize machine-dependent
        // suites across hosts; never compared itself.
        Rng rng(42);
        std::uint64_t sink = 0;
        PerfSuite suite = measureRate(
            "host_speed", "fixed RNG spin (cross-host anchor)", budget,
            [&]() {
                for (int i = 0; i < 1'000'000; ++i)
                    sink ^= rng.next();
                return 1'000'000;
            });
        if (sink == 1) // defeat dead-code elimination
            suite.metric += ".";
        suite.normalize = false;
        suites.push_back(suite);
    }

    if (wanted("core_throughput")) {
        note("core_throughput");
        Machine machine(machineConfigForProfile("default"));
        Program prog = makeCoreWorkload();
        suites.push_back(measureRate(
            "core_throughput", "committed instructions per second",
            budget, [&]() {
                long long committed = 0;
                for (int r = 0; r < 20; ++r) {
                    const RunResult res = machine.run(prog);
                    committed += static_cast<long long>(
                        res.counters.committedInstrs);
                }
                return committed;
            }));
    }

    if (wanted("cache_access_rate")) {
        note("cache_access_rate");
        Hierarchy hierarchy{HierarchyConfig{}};
        Cycle now = 0;
        Addr next = 0;
        suites.push_back(measureRate(
            "cache_access_rate",
            "hierarchy accesses per second (hit/miss/fill mix)", budget,
            [&]() {
                for (int i = 0; i < 20'000; ++i) {
                    const Addr addr = 0x400000 + (next % 1024) * 64;
                    ++next;
                    now += 6;
                    if (!hierarchy.access(addr, now, AccessKind::Load)
                             .accepted) {
                        now += 400; // let fills land, then continue
                    }
                }
                return 20'000;
            }));
    }

    if (wanted("machine_construct")) {
        note("machine_construct");
        const MachineConfig config = machineConfigForProfile("default");
        suites.push_back(measureRate(
            "machine_construct", "Machine constructions per second",
            budget, [&]() {
                for (int i = 0; i < 10; ++i)
                    Machine machine(config);
                return 10;
            }));
    }

    if (wanted("snapshot_restore")) {
        note("snapshot_restore");
        Machine machine(machineConfigForProfile("default"));
        warmMachine(machine);
        const Machine::Snapshot base = machine.snapshot();
        Program prog = makeCoreWorkload();
        suites.push_back(measureRate(
            "snapshot_restore",
            "restores per second of a warmed default machine "
            "(run + restore cycle)",
            budget, [&]() {
                for (int i = 0; i < 20; ++i) {
                    machine.run(prog);
                    machine.restore(base);
                }
                return 20;
            }));
    }

    // Hot-path suites with low-variance rates gate tighter than the
    // global 25%. Ratio suites are the opposite: they divide two
    // independently noisy measurements and cannot be host-normalized,
    // so they get extra slack.
    constexpr double kTightTolerance = 0.15;
    constexpr double kRatioTolerance = 0.40;

    if (wanted("trial_path_fresh")) {
        note("trial_path_fresh");
        const MachineConfig config =
            machineConfigForProfile("effective_window");
        suites.push_back(measureRate(
            "trial_path_fresh",
            "single-shot racing trials per second, fresh Machine each",
            budget, [&]() {
                for (int i = 0; i < 4; ++i) {
                    Machine machine(config);
                    racingObservation(machine);
                }
                return 4;
            }));
    }
    if (wanted("trial_path_scalar")) {
        note("trial_path_scalar");
        MachinePool pool(machineConfigForProfile("effective_window"));
        suites.push_back(measureRate(
            "trial_path_scalar",
            "single-shot racing trials per second, pooled "
            "snapshot/restore (every trial fully simulated)",
            budget, [&]() {
                for (int i = 0; i < 16; ++i) {
                    auto lease = pool.lease();
                    racingObservation(lease.machine());
                }
                return 16;
            }));
    }

    if (wanted("decode_cache_hit")) {
        note("decode_cache_hit");
        Machine machine(machineConfigForProfile("default"));
        Program prog = makeCoreWorkload();
        machine.decodeProgram(prog); // populate
        PerfSuite suite = measureRate(
            "decode_cache_hit",
            "decoded-image acquisitions per second for an already "
            "cached program (verified id hit)",
            budget, [&]() {
                for (int i = 0; i < 5'000; ++i)
                    machine.decodeProgram(prog);
                return 5'000;
            });
        suite.tolerance = kTightTolerance;
        suites.push_back(suite);
    }

    if (wanted("trace_overhead")) {
        note("trace_overhead");
        // Flight-recorder cost on the pooled trial path: the traced
        // rate over the untraced rate (~1.0x). The disabled-mode cost
        // itself needs no suite of its own — instrumentation is always
        // compiled in, so any disabled-path regression already shows
        // in trial_path_scalar.
        MachinePool pool(machineConfigForProfile("effective_window"));
        auto trial_rate = [&]() {
            return measureRate("trace_overhead", "", budget, [&]() {
                       for (int i = 0; i < 16; ++i) {
                           auto lease = pool.lease();
                           racingObservation(lease.machine());
                       }
                       return 16;
                   })
                .value;
        };
        const double off_rate = trial_rate();
        TraceRecorder::enable();
        const double on_rate = trial_rate();
        TraceRecorder::disable();
        TraceRecorder::clear();
        PerfSuite suite;
        suite.name = "trace_overhead";
        suite.metric =
            "pooled racing-trial rate with the flight recorder "
            "enabled over the rate with it disabled";
        suite.unit = "x";
        suite.value = off_rate > 0 ? on_rate / off_rate : 1.0;
        suite.iterations = 1;
        suite.normalize = false;
        suite.tolerance = kRatioTolerance;
        suites.push_back(suite);
    }

    if (wanted("fig08_quick_wall")) {
        note("fig08_quick_wall");
        suites.push_back(scenarioWallSuite(
            "fig08_quick_wall", "fig08_granularity_add", 0,
            options.seed));
    }
    if (wanted("fig10_quick_wall")) {
        note("fig10_quick_wall");
        suites.push_back(scenarioWallSuite(
            "fig10_quick_wall", "fig10_reorder_distribution",
            options.quick ? 6 : 24, options.seed));
    }

    if (wanted("channel_symbol_rate")) {
        note("channel_symbol_rate");
        ParamSet overrides;
        overrides.set("ecc", "none");
        overrides.set("frame_bits", "8");
        Channel channel(ChannelRegistry::instance().makeConfig(
            "ook_arith", overrides));
        std::vector<bool> payload;
        for (int i = 0; i < 8; ++i)
            payload.push_back(i % 2 == 0);
        // The pooled channel path: prepare() is folded into the pool's
        // warmed base, so each transmission is lease (restore) + run.
        MachinePool pool(machineConfigForProfile("default"),
                         [&](Machine &machine) {
                             channel.prepare(machine);
                         });
        PerfSuite suite = measureRate(
            "channel_symbol_rate",
            "covert-channel symbols per second (ook_arith, uncoded "
            "8-bit frames, pooled lease + run)",
            budget, [&]() {
                long long symbols = 0;
                for (int i = 0; i < 32; ++i) {
                    auto lease = pool.lease();
                    symbols += static_cast<long long>(
                        channel.run(lease.machine(), payload)
                            .symbolsSent);
                }
                return symbols;
            });
        suite.tolerance = kTightTolerance;
        suites.push_back(suite);
    }

    if (wanted("channel_frame_path")) {
        note("channel_frame_path");
        Machine machine(machineConfigForProfile("plru"));
        ParamSet overrides;
        overrides.set("frame_bits", "16");
        Channel channel(ChannelRegistry::instance().makeConfig(
            "rs2_plru_pa", overrides));
        channel.prepare(machine);
        std::vector<bool> payload;
        for (int i = 0; i < 16; ++i)
            payload.push_back(i % 3 == 0);
        suites.push_back(measureRate(
            "channel_frame_path",
            "end-to-end framed transmissions per second "
            "(rs2_plru_pa, Hamming(7,4), preamble sync)",
            budget, [&]() {
                long long frames = 0;
                for (int i = 0; i < 4; ++i)
                    frames += channel.run(machine, payload).framesSent;
                return frames;
            }));
    }

    if (wanted("sweep_points")) {
        note("sweep_points");
        SweepOptions sweep;
        sweep.gadget = "arith_magnifier";
        sweep.trials = 1;
        sweep.seed = options.seed;
        sweep.grid.push_back(
            parseSweepAxis(options.quick ? "stages=200:400:100"
                                         : "stages=200:800:100"));
        const int points =
            static_cast<int>(sweep.grid.front().values.size());
        suites.push_back(measureRate(
            "sweep_points", "sweep grid points per second", budget,
            [&]() {
                runSweep(sweep);
                return points;
            }));
    }

    if (wanted("analyze_capacity")) {
        note("analyze_capacity");
        // The full QIF pipeline per iteration: priming leases,
        // record, trace fold through the reference interpreter, and
        // the observer-equivalence partition.
        suites.push_back(measureRate(
            "analyze_capacity",
            "gadget capacity analyses per second (repetition, "
            "record + fold + partition)",
            budget, [&]() {
                const CapacityReport report =
                    analyzeGadgetCapacity("repetition", "default", {});
                fatalIf(report.status != "ok",
                        "analyze_capacity: " + report.status);
                return 1;
            }));
    }

    return suites;
}

std::string
renderPerfJson(const std::vector<PerfSuite> &suites, bool quick)
{
    // No timestamps: the committed baseline should diff cleanly
    // between regenerations on the same host.
    std::string out = "{\n  \"schema\": \"hr_perf/v1\",\n";
    out += std::string("  \"quick\": ") + (quick ? "true" : "false") +
           ",\n  \"suites\": [\n";
    for (std::size_t i = 0; i < suites.size(); ++i) {
        const PerfSuite &suite = suites[i];
        out += "    {\"name\": \"" + suite.name + "\", \"metric\": \"" +
               suite.metric + "\", \"unit\": \"" + suite.unit +
               "\", \"value\": " + jsonNum(suite.value) +
               ", \"wall_s\": " + jsonNum(suite.wallSeconds) +
               ", \"iters\": " + std::to_string(suite.iterations) +
               ", \"higher_is_better\": " +
               (suite.higherIsBetter ? "true" : "false") +
               ", \"normalize\": " +
               (suite.normalize ? "true" : "false");
        if (suite.tolerance > 0)
            out += ", \"tolerance\": " + jsonNum(suite.tolerance);
        out += "}";
        out += i + 1 < suites.size() ? ",\n" : "\n";
    }
    // Registry snapshot of the run that produced these numbers.
    // Placed after the suites array: parsePerfBaseline stops at the
    // array's closing bracket, so committed baselines stay parseable.
    out += "  ],\n  \"metrics\": " +
           renderMetricsJson(metrics().snapshot()) + "\n}\n";
    return out;
}

std::vector<PerfBaselineEntry>
parsePerfBaseline(const std::string &json)
{
    const auto suites_pos = json.find("\"suites\"");
    fatalIf(suites_pos == std::string::npos,
            "perf baseline: no \"suites\" array");
    const auto array_pos = json.find('[', suites_pos);
    fatalIf(array_pos == std::string::npos,
            "perf baseline: malformed suites array");

    auto string_field = [](const std::string &obj, const char *key) {
        const auto key_pos = obj.find(std::string("\"") + key + "\"");
        if (key_pos == std::string::npos)
            return std::string();
        const auto open = obj.find('"', obj.find(':', key_pos));
        const auto close = obj.find('"', open + 1);
        if (open == std::string::npos || close == std::string::npos)
            return std::string();
        return obj.substr(open + 1, close - open - 1);
    };
    auto number_field = [](const std::string &obj, const char *key,
                           double fallback) {
        const auto key_pos = obj.find(std::string("\"") + key + "\"");
        if (key_pos == std::string::npos)
            return fallback;
        const auto colon = obj.find(':', key_pos);
        if (colon == std::string::npos)
            return fallback;
        return std::strtod(obj.c_str() + colon + 1, nullptr);
    };
    auto bool_field = [](const std::string &obj, const char *key,
                         bool fallback) {
        const auto key_pos = obj.find(std::string("\"") + key + "\"");
        if (key_pos == std::string::npos)
            return fallback;
        const auto colon = obj.find(':', key_pos);
        if (colon == std::string::npos)
            return fallback;
        return obj.find("true", colon) == obj.find_first_not_of(
                   " \t\n", colon + 1);
    };

    std::vector<PerfBaselineEntry> out;
    std::size_t pos = array_pos + 1;
    for (;;) {
        const auto open = json.find('{', pos);
        const auto end = json.find(']', pos);
        if (open == std::string::npos ||
            (end != std::string::npos && end < open)) {
            break;
        }
        const auto close = json.find('}', open);
        fatalIf(close == std::string::npos,
                "perf baseline: unterminated suite object");
        const std::string obj = json.substr(open, close - open + 1);
        PerfBaselineEntry entry;
        entry.name = string_field(obj, "name");
        entry.value = number_field(obj, "value", 0.0);
        entry.higherIsBetter = bool_field(obj, "higher_is_better", true);
        entry.normalize = bool_field(obj, "normalize", false);
        entry.tolerance = number_field(obj, "tolerance", 0.0);
        if (!entry.name.empty())
            out.push_back(std::move(entry));
        pos = close + 1;
    }
    return out;
}

PerfComparison
comparePerf(const std::vector<PerfSuite> &current,
            const std::vector<PerfBaselineEntry> &baseline,
            double tolerance)
{
    auto find_baseline =
        [&](const std::string &name) -> const PerfBaselineEntry * {
        for (const PerfBaselineEntry &entry : baseline)
            if (entry.name == name)
                return &entry;
        return nullptr;
    };
    auto find_current = [&](const std::string &name) -> const PerfSuite * {
        for (const PerfSuite &suite : current)
            if (suite.name == name)
                return &suite;
        return nullptr;
    };

    // Host-speed ratio scales machine-dependent suites so a committed
    // baseline from one host compares meaningfully on another.
    double host_ratio = 1.0;
    const PerfSuite *cur_host = find_current("host_speed");
    const PerfBaselineEntry *base_host = find_baseline("host_speed");
    if (cur_host && base_host && base_host->value > 0)
        host_ratio = cur_host->value / base_host->value;

    PerfComparison result;
    char line[256];
    std::snprintf(line, sizeof(line),
                  "host-speed ratio (current/baseline): %.3f\n",
                  host_ratio);
    result.report += line;

    for (const PerfSuite &suite : current) {
        if (suite.name == "host_speed")
            continue;
        const PerfBaselineEntry *base = find_baseline(suite.name);
        if (!base) {
            result.report +=
                "new   " + suite.name + ": no baseline entry\n";
            continue;
        }
        double expected = base->value;
        if (base->normalize) {
            expected *= suite.higherIsBetter ? host_ratio
                                             : 1.0 / host_ratio;
        }
        // Per-suite override: the current measurement's (it travels
        // with the suite code), else the one recorded in the baseline
        // file, else the global --tolerance.
        const double tol = suite.tolerance > 0 ? suite.tolerance
                           : base->tolerance > 0 ? base->tolerance
                                                 : tolerance;
        const bool failed =
            suite.higherIsBetter
                ? suite.value < expected * (1.0 - tol)
                : suite.value > expected * (1.0 + tol);
        std::snprintf(line, sizeof(line),
                      "%s %s: %.4g %s vs expected %.4g (baseline %.4g, "
                      "tolerance %.0f%%)\n",
                      failed ? "FAIL " : "ok   ", suite.name.c_str(),
                      suite.value, suite.unit.c_str(), expected,
                      base->value, tol * 100.0);
        result.report += line;
        result.passed &= !failed;
    }
    return result;
}

} // namespace hr
