#include "exp/sweep.hh"

#include <cstdlib>
#include <stdexcept>

#include "channel/channel_registry.hh"
#include "exp/machine_pool.hh"
#include "exp/scenario.hh"
#include "gadgets/gadget_registry.hh"
#include "obs/metrics.hh"
#include "obs/progress.hh"
#include "obs/trace.hh"
#include "sim/profiles.hh"
#include "util/log.hh"
#include "util/table.hh"

namespace hr
{

namespace
{

/** Parse a whole token as an integer (no trailing junk). */
long long
parseRangeInt(const std::string &text, const std::string &key,
              const std::string &spec)
{
    char *end = nullptr;
    const long long v = std::strtoll(text.c_str(), &end, 10);
    fatalIf(end == text.c_str() || *end != '\0',
            "--grid " + key + ": bad range '" + spec +
                "' (use lo:hi[:step])");
    return v;
}

/** Expand "lo:hi[:step]" into an inclusive integer range. */
std::vector<std::string>
expandRange(const std::string &spec, const std::string &key)
{
    const auto first = spec.find(':');
    const auto second = spec.find(':', first + 1);
    const std::string lo_text = spec.substr(0, first);
    const std::string hi_text =
        spec.substr(first + 1, second == std::string::npos
                                   ? std::string::npos
                                   : second - first - 1);
    const std::string step_text =
        second == std::string::npos ? "1" : spec.substr(second + 1);
    const long long lo = parseRangeInt(lo_text, key, spec);
    const long long hi = parseRangeInt(hi_text, key, spec);
    const long long step = parseRangeInt(step_text, key, spec);
    fatalIf(step <= 0, "--grid " + key + ": step must be positive");
    fatalIf(hi < lo, "--grid " + key + ": empty range '" + spec + "'");
    // Refuse absurd axes before materializing them (the sweep-wide
    // point cap could otherwise only fire after an OOM-sized expand).
    constexpr long long kMaxAxisValues = 1'000'000;
    fatalIf((hi - lo) / step + 1 > kMaxAxisValues,
            "--grid " + key + ": range '" + spec + "' expands to more "
            "than " + std::to_string(kMaxAxisValues) + " values");
    std::vector<std::string> values;
    for (long long v = lo; v <= hi; v += step)
        values.push_back(std::to_string(v));
    return values;
}

/** One grid point's outcome. */
struct SweepRow
{
    std::vector<std::string> axisValues;
    std::string status = "ok";
    double fastCycles = 0;
    double slowCycles = 0;
    double deltaUs = 0;
    double accuracy = 0;
};

/** Validated cartesian grid, expanded lazily (last axis fastest). */
struct Grid
{
    const std::vector<SweepAxis> *axes = nullptr;
    int points = 1;

    std::vector<std::string>
    valuesAt(int index) const
    {
        std::vector<std::string> values(axes->size());
        for (std::size_t a = axes->size(); a-- > 0;) {
            const SweepAxis &axis = (*axes)[a];
            const int n = static_cast<int>(axis.values.size());
            values[a] = axis.values[static_cast<std::size_t>(index % n)];
            index /= n;
        }
        return values;
    }

    std::string
    spec() const
    {
        std::string out;
        for (const SweepAxis &axis : *axes) {
            out += (out.empty() ? "" : " ") + axis.key + "=";
            for (std::size_t v = 0; v < axis.values.size(); ++v)
                out += (v ? "," : "") + axis.values[v];
        }
        return out;
    }
};

Grid
expandGrid(const std::vector<SweepAxis> &axes)
{
    constexpr long long kMaxPoints = 1'000'000;
    Grid grid;
    grid.axes = &axes;
    long long total = 1;
    for (std::size_t a = 0; a < axes.size(); ++a) {
        const SweepAxis &axis = axes[a];
        fatalIf(axis.values.empty(),
                "--grid " + axis.key + ": no values");
        for (std::size_t b = 0; b < a; ++b)
            fatalIf(axes[b].key == axis.key,
                    "--grid " + axis.key + ": duplicate axis (the "
                    "later one would silently win)");
        total *= static_cast<long long>(axis.values.size());
        fatalIf(total > kMaxPoints,
                "sweep: grid expands to more than " +
                    std::to_string(kMaxPoints) + " points");
    }
    grid.points = static_cast<int>(total);
    return grid;
}

/** Keys of the grid axes as a ParamSet, for up-front validation. */
ParamSet
gridKeySet(const std::vector<SweepAxis> &axes)
{
    ParamSet keys;
    for (const SweepAxis &axis : axes)
        keys.set(axis.key, "");
    return keys;
}

/**
 * Per-grid-row work hoisted out of the point loop. With the last axis
 * varying fastest, a "row" is one run of grid.points/lastN consecutive
 * indices sharing every non-last axis value — so the merged ParamSet
 * (fixed params overridden by the non-last axis values) and the
 * axis-value vector are invariant per row, and rebuilding both per
 * point was pure per-point overhead. A point only needs its row's
 * copies plus one set() of the last axis key.
 */
struct SweepRows
{
    int lastN = 1; ///< points per row (= last axis values, or 1)
    /** Per row: full axis-value vector of its first point. */
    std::vector<std::vector<std::string>> axisValues;
    /** Per row: fixed params overridden by the non-last axes. */
    std::vector<ParamSet> params;

    /**
     * Materialize one point: the row's axis values and params with
     * the last axis entry swapped in.
     */
    void
    pointAt(int index, const std::vector<SweepAxis> &axes,
            std::vector<std::string> &values_out,
            ParamSet &params_out) const
    {
        const int row = index / lastN;
        values_out = axisValues[static_cast<std::size_t>(row)];
        params_out = params[static_cast<std::size_t>(row)];
        if (!axes.empty()) {
            const SweepAxis &last = axes.back();
            const std::string &value = last.values[static_cast<
                std::size_t>(index % lastN)];
            values_out.back() = value;
            params_out.set(last.key, value);
        }
    }
};

SweepRows
hoistSweepRows(const Grid &grid, const std::vector<SweepAxis> &axes,
               const ParamSet &fixed)
{
    SweepRows rows;
    rows.lastN =
        axes.empty() ? 1 : static_cast<int>(axes.back().values.size());
    const int row_count = grid.points / rows.lastN;
    rows.axisValues.reserve(static_cast<std::size_t>(row_count));
    rows.params.reserve(static_cast<std::size_t>(row_count));
    for (int r = 0; r < row_count; ++r) {
        std::vector<std::string> values = grid.valuesAt(r * rows.lastN);
        ParamSet point;
        for (std::size_t a = 0; a + 1 < axes.size(); ++a)
            point.set(axes[a].key, values[a]);
        rows.params.push_back(fixed.overriddenBy(point));
        rows.axisValues.push_back(std::move(values));
    }
    return rows;
}

} // namespace

SweepAxis
parseSweepAxis(const std::string &arg)
{
    const auto eq = arg.find('=');
    fatalIf(eq == std::string::npos || eq == 0 || eq + 1 >= arg.size(),
            "--grid must be key=v1,v2,... or key=lo:hi[:step], got '" +
                arg + "'");
    SweepAxis axis;
    axis.key = arg.substr(0, eq);
    const std::string spec = arg.substr(eq + 1);
    if (spec.find(':') != std::string::npos) {
        axis.values = expandRange(spec, axis.key);
        return axis;
    }
    std::size_t start = 0;
    while (start <= spec.size()) {
        const auto comma = spec.find(',', start);
        const std::string value =
            spec.substr(start, comma == std::string::npos
                                   ? std::string::npos
                                   : comma - start);
        fatalIf(value.empty(),
                "--grid " + axis.key + ": empty value in '" + spec + "'");
        axis.values.push_back(value);
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return axis;
}

ResultTable
runSweep(const SweepOptions &options)
{
    fatalIf(options.trials < 1, "sweep: trials must be >= 1");
    const GadgetInfo &gadget =
        GadgetRegistry::instance().resolve(options.gadget);
    // Validate the profile up front (fatal with the known names).
    machineConfigForProfile(options.profile);

    // Validate grid-axis and fixed parameter keys before expanding
    // anything: a typo'd `--grid` key fails here with the gadget's
    // valid keys and a nearest-match suggestion instead of producing a
    // sweep full of per-point errors.
    const std::vector<std::string> allowed_keys =
        GadgetRegistry::paramKeys(gadget);
    options.params.requireKeys(allowed_keys,
                               "gadget '" + gadget.name + "'");
    gridKeySet(options.grid)
        .requireKeys(allowed_keys, "--grid: gadget '" + gadget.name +
                                       "'");

    const Grid grid = expandGrid(options.grid);
    const int points = grid.points;

    ScenarioContext ctx(options.trials, options.jobs, options.seed,
                        options.profile, options.params,
                        options.progress, options.lockstep);

    // Grid points differ only in their RNG streams, so instead of
    // reconstructing a Machine per point (thousands of per-set
    // replacement allocations), each point runs on a pooled machine
    // restored to the pristine base state and re-seeds the noise
    // streams — bit-identical to a fresh build with the same seeds.
    const MachineConfig base_config = ctx.machineConfig();
    MachinePool machine_pool(base_config);
    const SweepRows sweep_rows =
        hoistSweepRows(grid, options.grid, options.params);

    ProgressSink &sink = ProgressSink::instance();
    sink.beginTask(("sweep:" + gadget.name).c_str(),
                   static_cast<std::uint64_t>(points), options.jobs);

    const std::vector<SweepRow> rows = ctx.poolMap(
        machine_pool, points, [&](int index, Rng &, Machine &machine) {
            HR_TRACE_SCOPE("sweep", "sweep.point");
            SweepRow row;
            ParamSet params;
            sweep_rows.pointAt(index, options.grid, row.axisValues,
                               params);
            try {
                // --seed drives each point's machine noise streams
                // (latency jitter, random-replacement choices) while
                // staying deterministic per grid index, so repeats
                // with different seeds are independent replicates.
                ScenarioContext::reseedMachine(machine, base_config,
                                               ctx.indexSeed(index));
                auto source = GadgetRegistry::instance().make(
                    gadget.name, machine, params);
                if (!source) {
                    row.status = "incompatible";
                    return row;
                }
                source->calibrate();
                const PolarityStats stats =
                    measurePolarities(*source, options.trials);
                row.fastCycles = stats.fastCycles;
                row.slowCycles = stats.slowCycles;
                row.deltaUs = machine.toUs(static_cast<Cycle>(
                    row.slowCycles > row.fastCycles
                        ? row.slowCycles - row.fastCycles
                        : 0));
                row.accuracy = stats.accuracy();
            } catch (const std::exception &e) {
                row.status = std::string("error: ") + e.what();
            }
            return row;
        });

    sink.endTask();

    std::vector<std::string> headers;
    for (const SweepAxis &axis : options.grid)
        headers.push_back(axis.key);
    for (const char *column :
         {"status", "fast cycles", "slow cycles", "delta (us)",
          "bit accuracy"}) {
        headers.push_back(column);
    }
    Table table(headers);
    for (const SweepRow &row : rows) {
        std::vector<std::string> cells = row.axisValues;
        cells.push_back(row.status);
        if (row.status == "ok") {
            cells.push_back(Table::num(row.fastCycles, 1));
            cells.push_back(Table::num(row.slowCycles, 1));
            cells.push_back(Table::num(row.deltaUs, 3));
            cells.push_back(Table::num(row.accuracy, 3));
        } else {
            for (int i = 0; i < 4; ++i)
                cells.push_back("-");
        }
        table.addRow(std::move(cells));
    }

    const std::string grid_spec = grid.spec();

    ResultTable result;
    result.setScenario("sweep_" + gadget.name,
                       "parameter sweep: " + gadget.name + " on " +
                           options.profile,
                       gadget.description);
    result.addMeta("gadget", gadget.name);
    result.addMeta("profile", options.profile);
    result.addMeta("trials", std::to_string(options.trials));
    result.addMeta("seed", std::to_string(options.seed));
    if (!grid_spec.empty())
        result.addMeta("grid", grid_spec);
    result.addTable("", std::move(table));
    // A sweep where no point ran is a failure (exit nonzero in the
    // driver), not a quietly empty success.
    bool any_ok = false;
    std::uint64_t failed = 0;
    for (const SweepRow &row : rows) {
        any_ok |= row.status == "ok";
        failed += row.status == "ok" ? 0 : 1;
    }
    metrics().sweepPointsTotal.add(static_cast<std::uint64_t>(points));
    metrics().sweepPointsFailed.add(failed);
    result.addCheck("at least one grid point ran", any_ok);
    return result;
}

namespace
{

/** One channel-sweep grid point's outcome. */
struct ChannelSweepRow
{
    std::vector<std::string> axisValues;
    std::string status = "ok";
    ChannelStats stats;
};

} // namespace

ResultTable
runChannelSweep(const SweepOptions &options)
{
    fatalIf(options.trials < 1, "sweep: trials must be >= 1");
    const ChannelInfo &channel_info =
        ChannelRegistry::instance().resolve(options.channel);
    // Validate the profile up front (fatal with the known names).
    machineConfigForProfile(options.profile);

    // Grid-axis and fixed keys validate against the channel's
    // documented keys (channel-level + the gadget's own) before
    // anything runs.
    const std::vector<std::string> allowed_keys =
        ChannelRegistry::paramKeys(channel_info);
    options.params.requireKeys(allowed_keys, "channel '" +
                                                 channel_info.name +
                                                 "'");
    gridKeySet(options.grid)
        .requireKeys(allowed_keys, "--grid: channel '" +
                                       channel_info.name + "'");

    const Grid grid = expandGrid(options.grid);

    ScenarioContext ctx(options.trials, options.jobs, options.seed,
                        options.profile, options.params,
                        options.progress, options.lockstep);

    const MachineConfig base_config = ctx.machineConfig();
    MachinePool machine_pool(base_config);
    const SweepRows sweep_rows =
        hoistSweepRows(grid, options.grid, options.params);

    ProgressSink &sink = ProgressSink::instance();
    sink.beginTask(("sweep:" + channel_info.name).c_str(),
                   static_cast<std::uint64_t>(grid.points),
                   options.jobs);

    const std::vector<ChannelSweepRow> rows = ctx.poolMap(
        machine_pool, grid.points, [&](int index, Rng &rng, Machine &machine) {
            HR_TRACE_SCOPE("sweep", "sweep.point");
            ChannelSweepRow row;
            ParamSet params;
            sweep_rows.pointAt(index, options.grid, row.axisValues,
                               params);
            try {
                ScenarioContext::reseedMachine(machine, base_config,
                                               ctx.indexSeed(index));
                Channel channel(ChannelRegistry::instance().makeConfig(
                    channel_info.name, params));
                if (!channel.compatible(machine)) {
                    row.status = "incompatible";
                    return row;
                }
                channel.prepare(machine);
                // `trials` transmissions accumulate into one row so
                // BER/sync estimates firm up without a longer frame.
                const ChannelConfig &config = channel.config();
                for (int trial = 0; trial < options.trials; ++trial) {
                    std::vector<bool> payload;
                    const int bits =
                        config.frames * config.frame.payloadBits;
                    for (int i = 0; i < bits; ++i)
                        payload.push_back(rng.chance(0.5));
                    row.stats.accumulate(
                        channel.run(machine, payload));
                }
            } catch (const std::exception &e) {
                row.status = std::string("error: ") + e.what();
            }
            return row;
        });

    sink.endTask();

    std::vector<std::string> headers;
    for (const SweepAxis &axis : options.grid)
        headers.push_back(axis.key);
    for (const char *column :
         {"status", "raw kb/s", "eff kb/s", "BER", "sync fail",
          "shannon kb/s"}) {
        headers.push_back(column);
    }
    Table table(headers);
    for (const ChannelSweepRow &row : rows) {
        std::vector<std::string> cells = row.axisValues;
        cells.push_back(row.status);
        if (row.status == "ok") {
            cells.push_back(
                Table::num(row.stats.rawBitsPerSec() / 1e3, 2));
            cells.push_back(
                Table::num(row.stats.effectiveBitsPerSec() / 1e3, 2));
            cells.push_back(Table::num(row.stats.ber(), 3));
            cells.push_back(
                Table::num(row.stats.syncFailureRate(), 3));
            cells.push_back(
                Table::num(row.stats.shannonBitsPerSec() / 1e3, 2));
        } else {
            for (int i = 0; i < 5; ++i)
                cells.push_back("-");
        }
        table.addRow(std::move(cells));
    }

    ResultTable result;
    result.setScenario("sweep_channel_" + channel_info.name,
                       "channel sweep: " + channel_info.name + " on " +
                           options.profile,
                       channel_info.description);
    result.addMeta("channel", channel_info.name);
    result.addMeta("gadget", channel_info.gadget);
    result.addMeta("modulation", channel_info.modulation);
    result.addMeta("profile", options.profile);
    result.addMeta("trials", std::to_string(options.trials));
    result.addMeta("seed", std::to_string(options.seed));
    const std::string grid_spec = grid.spec();
    if (!grid_spec.empty())
        result.addMeta("grid", grid_spec);
    result.addTable("", std::move(table));
    bool any_ok = false;
    std::uint64_t failed = 0;
    for (const ChannelSweepRow &row : rows) {
        any_ok |= row.status == "ok";
        failed += row.status == "ok" ? 0 : 1;
    }
    metrics().sweepPointsTotal.add(
        static_cast<std::uint64_t>(grid.points));
    metrics().sweepPointsFailed.add(failed);
    result.addCheck("at least one grid point ran", any_ok);
    return result;
}

} // namespace hr
