/**
 * @file
 * The four workloads. Each mirrors the CLI path that produces the
 * paper's results, call for call, so its tables equal the CLI's for
 * the same seed (test_parity.py checks that):
 *
 *  - channel_noise  `hr_bench run fig_channel_ber_vs_noise --trials=1
 *                   --param quick=1`
 *  - gadget_sweeps  one `hr_bench sweep` per entry of kSweeps
 *  - analyze_all    `hr_bench analyze --all`
 *  - evset          `hr_bench run tab_evset --trials=5`
 */

#include <chrono>
#include <cstdio>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "analysis/analyze.hh"
#include "attacks/evset.hh"
#include "channel/channel_registry.hh"
#include "exp/machine_pool.hh"
#include "exp/scenario.hh"
#include "exp/sweep.hh"
#include "gadgets/gadget_registry.hh"
#include "obs/trace.hh"
#include "sim/noise.hh"
#include "sim/profiles.hh"
#include "util/rng.hh"
#include "util/table.hh"
#include "workload.hh"

namespace perfbench
{

using namespace hr;

// ---- Outcome -------------------------------------------------------------

void
Outcome::item(bool ok, const std::string &what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        failures_.push_back(what);
    }
}

void
Outcome::fold(const std::string &text)
{
    for (unsigned char c : text) {
        digest_ ^= c;
        digest_ *= 0x100000001b3ULL; // FNV-1a prime
    }
    digest_ ^= 0xff; // separator: fold("ab") != fold("a") + fold("b")
    digest_ *= 0x100000001b3ULL;
}

void
Outcome::table(const std::string &label, const std::string &csv)
{
    fold(label);
    fold(csv);
    tables_.emplace_back(label, csv);
}

Outcome::Held
Outcome::sample(Machine &machine)
{
    // Raw reads of core and hierarchy state: the traced Machine reads
    // (contextStats, cacheMisses) would count as harness operations.
    const PerfCounters &core = machine.core().counters();
    const Hierarchy::CountersSample cache =
        machine.hierarchy().sampleCounters();
    Held held;
    held.cycles = core.cycles;
    held.instrs = core.committedInstrs;
    held.robFullStalls = core.robFullStalls;
    held.noCommitCycles = core.noCommitCycles;
    held.squashedInstrs = core.squashedInstrs;
    held.l1Misses = cache.l1.misses;
    held.l2Misses = cache.l2.misses;
    held.l3Misses = cache.l3.misses;
    held.memAccesses = cache.memAccesses;
    return held;
}

void
Outcome::hold(const Held &before, const Held &after)
{
    held_.cycles += after.cycles - before.cycles;
    held_.instrs += after.instrs - before.instrs;
    held_.robFullStalls += after.robFullStalls - before.robFullStalls;
    held_.noCommitCycles += after.noCommitCycles - before.noCommitCycles;
    held_.squashedInstrs += after.squashedInstrs - before.squashedInstrs;
    held_.l1Misses += after.l1Misses - before.l1Misses;
    held_.l2Misses += after.l2Misses - before.l2Misses;
    held_.l3Misses += after.l3Misses - before.l3Misses;
    held_.memAccesses += after.memAccesses - before.memAccesses;
}

void
Outcome::count(const std::string &name, double value)
{
    counts_[name] += value;
}

namespace
{

/** Full-precision text of a double, for digests. */
std::string
exact(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
}

// ---- channel_noise ---------------------------------------------------------

/**
 * fig_channel_ber_vs_noise's quick grid (`--param quick=1`) on
 * smt2_plru: its most fragile and most robust channel stacks x the idle
 * and three pointer-chase rungs, 8-bit frames, one frame per
 * transmission (`--trials=1`). A pass of the full 4 x 6 grid takes
 * 13-22 s even at one frame, so a run could time each cell only once.
 */
constexpr const char *kChannels[] = {
    "rs2_plru_reorder",
    "ook_arith",
};

struct Rung
{
    const char *label;
    const char *noise;
    int lines;
};

constexpr Rung kLadder[] = {
    {"idle", "idle", 0},
    {"chase 1x sets", "pointer_chase", 128},
    {"chase 4x sets", "pointer_chase", 512},
    {"chase 8x sets", "pointer_chase", 1024},
};

constexpr int kChasePoints = 4;
constexpr int kFrames = 1;
constexpr int kFrameBits = 8;

class ChannelNoise : public Workload
{
  public:
    explicit ChannelNoise(std::uint64_t seed) : seed_(seed) {}

    void
    setup() override
    {
        base_ = machineConfigForProfile("smt2_plru");
        ParamSet overrides;
        overrides.set("ecc", "none");
        overrides.set("frame_bits", std::to_string(kFrameBits));
        configs_.clear();
        for (const char *name : kChannels)
            configs_.push_back(
                ChannelRegistry::instance().makeConfig(name, overrides));

        // One pool per rung, each with its one machine built and
        // warmed now (the neighbour installed), so a pass only leases.
        pools_.clear();
        for (const Rung &rung : kLadder) {
            pools_.push_back(std::make_unique<MachinePool>(
                base_, [rung](Machine &machine) {
                    ParamSet params;
                    if (rung.lines > 0)
                        params.set("noise_lines",
                                   std::to_string(rung.lines));
                    installNoise(machine, 1, rung.noise, params);
                }));
            HR_TRACE_SCOPE("exp", "exp.pool_build");
            pools_.back()->lease();
        }
    }

    void
    pass(Outcome &out) override
    {
        constexpr int kPoints = static_cast<int>(std::size(kLadder));
        constexpr int kCells =
            static_cast<int>(std::size(kChannels)) * kPoints;
        std::vector<std::string> status(kCells, "ok");
        std::vector<double> ber(kCells, 0.0);

        for (int index = 0; index < kCells; ++index) {
            const Outcome::Lap lap(out);
            const int c = index / kPoints;
            const int p = index % kPoints;
            const std::uint64_t mix = seed_ ^ static_cast<std::uint64_t>(index);
            Rng rng(mix);
            try {
                std::unique_ptr<MachinePool::Lease> lease;
                {
                    HR_TRACE_SCOPE("exp", "exp.pool_lease");
                    lease = std::make_unique<MachinePool::Lease>(
                        pools_[static_cast<std::size_t>(p)]->lease());
                }
                Machine &machine = lease->machine();
                ScenarioContext::reseedMachine(machine, base_, mix);
                const Outcome::Held before = Outcome::sample(machine);

                Channel channel(configs_[static_cast<std::size_t>(c)]);
                if (!channel.compatible(machine)) {
                    status[static_cast<std::size_t>(index)] =
                        "incompatible";
                    out.item(false, std::string(kChannels[c]) + " @ " +
                                        kLadder[p].label +
                                        ": incompatible");
                    continue;
                }
                {
                    HR_TRACE_SCOPE("channel", "channel.prepare_call");
                    channel.prepare(machine);
                }
                std::vector<bool> payload;
                for (int i = 0; i < kFrames * kFrameBits; ++i)
                    payload.push_back(rng.chance(0.5));
                ChannelStats stats;
                {
                    HR_TRACE_SCOPE("channel", "channel.run_call");
                    stats = channel.run(machine, payload);
                }
                out.hold(before, Outcome::sample(machine));
                ber[static_cast<std::size_t>(index)] =
                    stats.symbolErrorRate();
                out.fold(std::to_string(index) + " " +
                         exact(stats.symbolErrorRate()) + " " +
                         std::to_string(stats.cycles) + " " +
                         std::to_string(stats.symbolsSent) + " " +
                         std::to_string(stats.framesSynced));
                out.item(true, "");
            } catch (const std::exception &e) {
                status[static_cast<std::size_t>(index)] =
                    std::string("error: ") + e.what();
                out.item(false, std::string(kChannels[c]) + " @ " +
                                    kLadder[p].label + ": " + e.what());
            }
        }

        // The scenario's table and paper checks.
        auto at = [&](int c, int p) {
            return static_cast<std::size_t>(c * kPoints + p);
        };
        std::vector<std::string> headers = {"neighbor"};
        for (const char *name : kChannels)
            headers.push_back(name);
        Table table(headers);
        for (int p = 0; p < kPoints; ++p) {
            std::vector<std::string> row = {kLadder[p].label};
            for (int c = 0; c < static_cast<int>(std::size(kChannels)); ++c)
                row.push_back(status[at(c, p)] == "ok"
                                  ? Table::num(ber[at(c, p)], 3)
                                  : status[at(c, p)]);
            table.addRow(std::move(row));
        }
        out.table("raw symbol error rate per channel x neighbor",
                  table.renderCsv());

        bool all_ran = true;
        int monotone_channels = 0, surviving_channels = 0;
        for (int c = 0; c < static_cast<int>(std::size(kChannels)); ++c) {
            bool ok = true, monotone = true, survives = true;
            for (int p = 0; p < kPoints; ++p)
                ok &= status[at(c, p)] == "ok";
            all_ran &= ok;
            if (!ok)
                continue;
            for (int p = 1; p < kChasePoints; ++p)
                monotone &= ber[at(c, p)] + 1e-9 >= ber[at(c, p - 1)];
            monotone &= ber[at(c, kChasePoints - 1)] > ber[at(c, 0)];
            for (int p = 0; p < kPoints; ++p)
                survives &= ber[at(c, p)] <= 0.05;
            monotone_channels += monotone ? 1 : 0;
            surviving_channels += survives ? 1 : 0;
        }
        out.item(all_ran, "check: every channel/neighbor cell ran");
        out.item(surviving_channels >= 1,
                 "check: a channel survives every neighbor");
        // The monotone-degradation check is digested, not counted: the
        // cache-state channels already sit near BER 0.5 on the first
        // chase rung, so whether the next rungs come out in order is a
        // coin flip of the seed.
        out.fold("monotone channels " + std::to_string(monotone_channels));
    }

  private:
    std::uint64_t seed_;
    MachineConfig base_;
    std::vector<ChannelConfig> configs_;
    std::vector<std::unique_ptr<MachinePool>> pools_;
};

// ---- gadget_sweeps ---------------------------------------------------------

/**
 * The sweeps, as `hr_bench sweep` arguments: racing and magnifier
 * gadgets on their paper profiles (Figs. 7-12), quiet and noisy, plus
 * one channel sweep. Single-context periodic loops, where loop
 * forwarding does the work.
 *
 * arbitrary_magnifier on random_l1 is left out: under random
 * replacement its calibration finds no signal for some seeds (an
 * `error:` row for about 1 seed in 60 at repeats=100,200), so whether
 * a run failed would depend on the seed, not the code.
 */
constexpr const char *kSweeps[] = {
    "--gadget=arith_magnifier --profile=default "
    "--grid=stages=200:4000:200",
    "--gadget=arith_magnifier --profile=noisy --grid=stages=200:4000:200",
    "--gadget=plru_pa_magnifier --profile=plru --grid=repeats=100:1000:100",
    "--gadget=plru_pa_magnifier --profile=noisy_plru "
    "--grid=repeats=100:1000:100",
    "--gadget=plru_reorder_magnifier --profile=plru "
    "--grid=repeats=100:1000:100",
    "--gadget=plru_reorder_magnifier --profile=noisy_plru "
    "--grid=repeats=100:1000:100",
    "--gadget=hacky_timer --profile=plru --grid=ref_ops=10:60:10",
    "--gadget=reorder_race --profile=plru --grid=slow_ops=10:60:10",
    "--gadget=pa_race --profile=default --grid=slow_ops=10:60:10",
    "--channel=rs2_plru_pa --profile=noisy_plru --grid=repeats=100:500:100 "
    "--trials=2",
};

/** Parse one kSweeps entry the way `hr_bench sweep` parses its flags. */
SweepOptions
parseSweep(const std::string &spec, std::uint64_t seed)
{
    SweepOptions options;
    options.seed = seed;
    std::istringstream words(spec);
    std::string word;
    while (words >> word) {
        const auto eq = word.find('=');
        const std::string flag = word.substr(0, eq);
        const std::string value = word.substr(eq + 1);
        if (flag == "--gadget")
            options.gadget = value;
        else if (flag == "--channel")
            options.channel = value;
        else if (flag == "--profile")
            options.profile = value;
        else if (flag == "--grid")
            options.grid.push_back(parseSweepAxis(value));
        else if (flag == "--trials")
            options.trials = std::stoi(value);
        else
            throw std::invalid_argument("sweep spec: unknown flag " + flag);
    }
    return options;
}

class GadgetSweeps : public Workload
{
  public:
    explicit GadgetSweeps(std::uint64_t seed) : seed_(seed) {}

    void
    setup() override
    {
        GadgetRegistry::instance().all();
        ChannelRegistry::instance().all();
        sweeps_.clear();
        for (const char *spec : kSweeps)
            sweeps_.push_back(parseSweep(spec, seed_));
        // Warm-up: the first sweep's first grid point, once.
        SweepOptions warm = sweeps_.front();
        warm.grid.front().values.resize(1);
        runSweep(warm);
    }

    void
    pass(Outcome &out) override
    {
        for (std::size_t i = 0; i < sweeps_.size(); ++i) {
            const Outcome::Lap lap(out);
            try {
                const SweepOptions &options = sweeps_[i];
                ResultTable result;
                {
                    HR_TRACE_SCOPE("exp", "exp.sweep_call");
                    result = options.channel.empty()
                                 ? runSweep(options)
                                 : runChannelSweep(options);
                }
                const std::string csv = result.render(Format::Csv);
                out.table(kSweeps[i], csv);
                out.item(result.passed() &&
                             csv.find(",error:") == std::string::npos,
                         std::string(kSweeps[i]) + ": failed check or "
                                                   "error row");
            } catch (const std::exception &e) {
                out.item(false, std::string(kSweeps[i]) + ": " + e.what());
            }
        }
    }

  private:
    std::uint64_t seed_;
    std::vector<SweepOptions> sweeps_;
};

// ---- analyze_all -----------------------------------------------------------

/**
 * Every gadget, channel and demo program through the leak classifier
 * with cross-validation, one target per call as `analyze --all` makes
 * them. Analysis takes no seed; the seed only orders the targets, and
 * the report keeps registry order.
 *
 * The capacity engine (`--capacity`) is left out: it repeats the same
 * pin-pattern search on the same two targets, which doubled a pass, so
 * a run could time each target only once.
 */
class AnalyzeAll : public Workload
{
  public:
    explicit AnalyzeAll(std::uint64_t seed) : seed_(seed) {}

    void
    setup() override
    {
        targets_.clear();
        for (const GadgetInfo *info : GadgetRegistry::instance().all())
            targets_.push_back(info->name);
        for (const ChannelInfo *info : ChannelRegistry::instance().all())
            targets_.push_back(info->name);
        for (const ProgramTarget &target : programTargets())
            targets_.push_back(target.name);
        order_.clear();
        for (std::size_t i = 0; i < targets_.size(); ++i)
            order_.push_back(i);
        Rng rng(seed_);
        rng.shuffle(order_);

        // Warm-up: one demo program through the classifier.
        AnalyzeOptions warm;
        warm.targets = {programTargets().front().name};
        runAnalysis(warm);
    }

    void
    pass(Outcome &out) override
    {
        std::vector<LeakageReport> leakage(targets_.size());
        double pin_seconds = 0;
        for (std::size_t i : order_) {
            const Outcome::Lap lap(out);
            const std::string &name = targets_[i];
            AnalyzeOptions options;
            options.targets = {name};
            const auto start = std::chrono::steady_clock::now();
            try {
                HR_TRACE_SCOPE("analysis", "analysis.leakage_target");
                leakage[i] = runAnalysis(options).at(0);
            } catch (const std::exception &e) {
                leakage[i].target = name;
                leakage[i].status = std::string("error: ") + e.what();
            }
            if (name.find("plru_pin") != std::string::npos)
                pin_seconds += secondsSince(start);

            const LeakageReport &l = leakage[i];
            out.item(l.status.rfind("error:", 0) != 0 &&
                         (!l.validation.ran || l.validation.passed),
                     name + " (leakage): " + l.status +
                         (l.validation.ran && !l.validation.passed
                              ? " cross-validation failed"
                              : ""));
        }
        out.count("analysis.pin_target_s", pin_seconds);

        std::ostringstream json;
        printReportJson(json, leakage);
        out.table("analyze --all", json.str());
    }

  private:
    std::uint64_t seed_;
    std::vector<std::string> targets_;
    std::vector<std::size_t> order_;
};

// ---- evset -----------------------------------------------------------------

/**
 * `tab_evset --trials=5`, the scenario's own count: a fresh small_llc
 * Machine and one build() per trial. Short passes let a run time each
 * trial 6-9 times, so its fastest timing sees past a slow stretch of
 * the host; see README.md.
 */
constexpr int kEvsetTrials = 5;

class Evset : public Workload
{
  public:
    explicit Evset(std::uint64_t seed) : seed_(seed) {}

    void
    setup() override
    {
        config_ = machineConfigForProfile("small_llc");
        // Warm-up: construct one machine and calibrate the generator's
        // timer on it.
        Machine machine(config_);
        HackyTimer timer(machine, EvSetConfig().timer);
        timer.calibrate();
    }

    void
    pass(Outcome &out) override
    {
        Table table({"trial", "target", "success", "congruent",
                     "timer queries", "sim time (ms)"});
        for (int trial = 0; trial < kEvsetTrials; ++trial) {
            const Outcome::Lap lap(out);
            const Addr target =
                0x7654'0000 + static_cast<Addr>(trial) * 0x1040;
            try {
                std::unique_ptr<Machine> machine;
                {
                    HR_TRACE_SCOPE("sim", "sim.machine_construct");
                    machine = std::make_unique<Machine>(config_);
                }
                EvSetConfig config;
                config.seed = seed_ ^ static_cast<std::uint64_t>(trial);
                EvSetResult result;
                {
                    HR_TRACE_SCOPE("attacks", "attacks.evset_build");
                    EvictionSetGenerator generator(*machine, config);
                    result = generator.build(target);
                }
                out.hold(Outcome::Held(), Outcome::sample(*machine));
                out.count("attacks.timer_queries",
                          static_cast<double>(result.timerQueries));
                out.count("attacks.traversed_loads",
                          static_cast<double>(result.traversedLoads));

                char target_str[32];
                std::snprintf(target_str, sizeof(target_str), "0x%llx",
                              static_cast<unsigned long long>(target));
                table.addRow(
                    {Table::integer(trial), target_str,
                     result.success ? "yes" : "NO",
                     result.groundTruthCongruent ? "yes" : "NO",
                     Table::integer(
                         static_cast<long long>(result.timerQueries)),
                     Table::num(static_cast<double>(result.cycles) / 2e6,
                                1)});
                std::string set;
                for (Addr line : result.set)
                    set += std::to_string(line) + ",";
                out.fold(std::to_string(result.cycles) + " " +
                         std::to_string(result.traversedLoads) + " " + set);
                out.item(result.success && result.groundTruthCongruent,
                         "trial " + std::to_string(trial) +
                             ": eviction set not congruent");
            } catch (const std::exception &e) {
                out.item(false,
                         "trial " + std::to_string(trial) + ": " + e.what());
            }
        }
        out.table("results", table.renderCsv());
    }

  private:
    std::uint64_t seed_;
    MachineConfig config_;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "channel_noise", "gadget_sweeps", "analyze_all", "evset"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "channel_noise")
        return std::make_unique<ChannelNoise>(seed);
    if (name == "gadget_sweeps")
        return std::make_unique<GadgetSweeps>(seed);
    if (name == "analyze_all")
        return std::make_unique<AnalyzeAll>(seed);
    if (name == "evset")
        return std::make_unique<Evset>(seed);
    return nullptr;
}

} // namespace perfbench
