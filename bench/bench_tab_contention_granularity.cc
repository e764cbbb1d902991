/**
 * Contention-timer granularity: how small a work difference the two
 * clockless SMT timing sources resolve (paper's SMT/contention
 * discussion — timers that need no clock API at all).
 */

#include "exp/machine_pool.hh"
#include "exp/registry.hh"
#include "gadgets/gadget_registry.hh"
#include "util/table.hh"

namespace hr
{
namespace
{

/** One measured grid point for one timer. */
struct GranularityPoint
{
    int gap = 0;          ///< extra work in the slow state
    double fastReading = 0;
    double slowReading = 0;
    double accuracy = 0;
    bool ok = false;
};

class TabContentionGranularity : public Scenario
{
  public:
    std::string
    name() const override
    {
        return "tab_contention_granularity";
    }

    std::string
    title() const override
    {
        return "Contention timers: resolvable work gap without any "
               "clock";
    }

    std::string
    paperClaim() const override
    {
        return "co-resident progress counting and cache-occupancy "
               "probing are timing sources of their own: a few ops (or "
               "one set's eviction) already separate the states";
    }

    std::string defaultProfile() const override { return "smt2"; }

    int defaultTrials() const override { return 4; }

    ResultTable
    run(ScenarioContext &ctx) override
    {
        MachinePool pool(ctx.machineConfig());
        const int trials = ctx.trials();

        // SMT port-pressure timer: fixed fast path, growing slow path.
        const std::vector<int> gaps =
            ctx.quick() ? std::vector<int>{2, 8, 32}
                        : std::vector<int>{1, 2, 4, 8, 16, 32, 64};
        const int fast_ops = 16;

        auto measure = [&](const std::string &gadget,
                           const ParamSet &params) {
            GranularityPoint point;
            auto lease = pool.lease();
            Machine &machine = lease.machine();
            auto source =
                GadgetRegistry::instance().make(gadget, machine, params);
            if (!source)
                return point;
            try {
                source->calibrate();
            } catch (const std::exception &) {
                return point; // states inseparable at this gap
            }
            const PolarityStats stats =
                measurePolarities(*source, trials);
            point.fastReading = stats.fastReading;
            point.slowReading = stats.slowReading;
            point.accuracy = stats.accuracy();
            point.ok = true;
            return point;
        };

        const std::vector<GranularityPoint> smt_points =
            ctx.parallelMap(
                static_cast<int>(gaps.size()), [&](int i, Rng &) {
                    const int gap = gaps[static_cast<std::size_t>(i)];
                    ParamSet params;
                    params.set("fast_ops", std::to_string(fast_ops));
                    params.set("slow_ops",
                               std::to_string(fast_ops + gap));
                    GranularityPoint point =
                        measure("smt_contention", params);
                    point.gap = gap;
                    return point;
                });

        // L1 occupancy timer: how many conflicting lines the primary
        // must touch before the probe context notices.
        const std::vector<int> lines =
            ctx.quick() ? std::vector<int>{2, 8}
                        : std::vector<int>{1, 2, 4, 6, 8};
        const std::vector<GranularityPoint> l1_points =
            ctx.parallelMap(
                static_cast<int>(lines.size()), [&](int i, Rng &) {
                    const int n = lines[static_cast<std::size_t>(i)];
                    ParamSet params;
                    params.set("evict_lines", std::to_string(n));
                    GranularityPoint point =
                        measure("l1_contention", params);
                    point.gap = n;
                    return point;
                });

        ResultTable result;

        Table smt_table({"slow-fast gap (ops)", "status",
                         "fast count", "slow count", "bit accuracy"});
        Series smt_series("smt-granularity", "op gap",
                          "counter delta");
        for (const GranularityPoint &p : smt_points) {
            smt_table.addRow(
                {Table::integer(p.gap),
                 p.ok ? "ok" : "inseparable",
                 p.ok ? Table::num(p.fastReading, 1) : "-",
                 p.ok ? Table::num(p.slowReading, 1) : "-",
                 p.ok ? Table::num(p.accuracy, 3) : "-"});
            if (p.ok)
                smt_series.add(p.gap, p.slowReading - p.fastReading);
        }
        result.addTable("smt_contention: port-pressure progress timer",
                        std::move(smt_table));
        result.addSeries(std::move(smt_series));

        Table l1_table({"evicted lines", "status", "fast misses",
                        "slow misses", "bit accuracy"});
        for (const GranularityPoint &p : l1_points) {
            l1_table.addRow(
                {Table::integer(p.gap),
                 p.ok ? "ok" : "inseparable",
                 p.ok ? Table::num(p.fastReading, 1) : "-",
                 p.ok ? Table::num(p.slowReading, 1) : "-",
                 p.ok ? Table::num(p.accuracy, 3) : "-"});
        }
        result.addTable("l1_contention: set-occupancy miss timer",
                        std::move(l1_table));

        // Headline: the smallest perfectly-decoded op gap.
        int resolvable = -1;
        for (const GranularityPoint &p : smt_points)
            if (p.ok && p.accuracy >= 1.0 &&
                (resolvable < 0 || p.gap < resolvable))
                resolvable = p.gap;
        result.addMetric("smallest perfectly-decoded op gap",
                         resolvable, "a few ops");

        bool smt_big_gap_ok = false;
        for (const GranularityPoint &p : smt_points)
            if (p.gap >= 32)
                smt_big_gap_ok |= p.ok && p.accuracy >= 0.99;
        result.addCheck("port-pressure timer decodes a 32-op gap",
                        smt_big_gap_ok);

        bool l1_full_set_ok = false;
        for (const GranularityPoint &p : l1_points)
            if (p.gap >= 8)
                l1_full_set_ok |= p.ok && p.accuracy >= 0.99;
        result.addCheck("occupancy timer decodes a full-set eviction",
                        l1_full_set_ok);
        return result;
    }
};

HR_REGISTER_SCENARIO(TabContentionGranularity);

} // namespace
} // namespace hr
