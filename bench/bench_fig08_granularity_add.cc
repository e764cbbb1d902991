/** Fig. 8 scenario: racing-gadget granularity, ADD reference path. */

#include "exp/machine_pool.hh"
#include "exp/registry.hh"
#include "gadgets/gadget_registry.hh"
#include "isa/instruction.hh"
#include "util/stats.hh"
#include "util/table.hh"

namespace hr
{
namespace
{

/**
 * One racing-gadget observation through the registry: does a chain of
 * @p target_ops ops outlast a reference path of @p ref_ops ops?
 * Machines come from the pool (restored to the pristine base state per
 * observation) instead of being rebuilt, which is what makes this
 * scenario's many single-shot trials cheap.
 */
bool
exprOutlastsBaselineOn(Machine &machine, Opcode target_op,
                       int target_ops, Opcode ref_op, int ref_ops)
{
    ParamSet params;
    params.set("op", opcodeName(target_op));
    params.set("slow_ops", std::to_string(target_ops));
    params.set("ref_op", opcodeName(ref_op));
    params.set("ref_ops", std::to_string(ref_ops));
    auto race = GadgetRegistry::instance().make("pa_race", machine, params);
    // secret=true samples the slow_ops expression; the bit is the
    // transient probe's presence, i.e. "expression lost the race".
    return race->sample(true).bit;
}

/** As above, but leasing a pristine machine from the pool. */
bool
exprOutlastsBaseline(MachinePool &pool, Opcode target_op,
                     int target_ops, Opcode ref_op, int ref_ops)
{
    auto lease = pool.lease();
    return exprOutlastsBaselineOn(lease.machine(), target_op,
                                  target_ops, ref_op, ref_ops);
}

/**
 * Smallest reference-path length (in ref ops) that beats the target
 * path, i.e. flips the transient probe to absent; -1 if even the
 * longest fitting baseline loses (ROB cap).
 */
int
thresholdRefOps(MachinePool &pool, Opcode target_op, int target_ops,
                Opcode ref_op, int max_ref)
{
    int lo = 1, hi = max_ref, found = -1;
    while (lo <= hi) {
        const int mid = (lo + hi) / 2;
        if (!exprOutlastsBaseline(pool, target_op, target_ops, ref_op,
                                  mid)) {
            found = mid; // baseline long enough to lose the race
            hi = mid - 1;
        } else {
            lo = mid + 1;
        }
    }
    return found;
}

class Fig08GranularityAdd : public Scenario
{
  public:
    std::string name() const override { return "fig08_granularity_add"; }

    std::string
    title() const override
    {
        return "Fig. 8: target ops measured by an ADD reference path";
    }

    std::string
    paperClaim() const override
    {
        return "slope ~= latency ratio (1 for add/lea, 3 for mul); "
               "granularity 1-3 ops; ref path capped ~54 by the ROB";
    }

    std::string defaultProfile() const override
    {
        return "effective_window";
    }

    ResultTable
    run(ScenarioContext &ctx) override
    {
        MachinePool pool(ctx.machineConfig());
        const int max_n = ctx.quick() ? 6 : 40;

        std::vector<int> targets;
        for (int n = 2; n <= max_n; n += 2)
            targets.push_back(n);

        struct Point
        {
            int add_thr = -1, mul_thr = -1, lea_thr = -1;
        };
        const std::vector<Point> points = ctx.parallelMap(
            static_cast<int>(targets.size()), [&](int i, Rng &) {
                const int n = targets[static_cast<std::size_t>(i)];
                Point p;
                p.add_thr = thresholdRefOps(pool, Opcode::Add, n,
                                            Opcode::Add, 60);
                p.mul_thr = thresholdRefOps(pool, Opcode::Mul, n,
                                            Opcode::Add, 60);
                p.lea_thr = thresholdRefOps(pool, Opcode::Lea, n,
                                            Opcode::Add, 60);
                return p;
            });

        Table table({"target ops", "ref ADDs (add)", "ref ADDs (mul)",
                     "ref ADDs (lea)"});
        Series add_series("add-target", "target op count", "ref ADDs");
        auto cell = [](int v) {
            return v < 0 ? std::string("cap") : Table::integer(v);
        };
        for (std::size_t i = 0; i < targets.size(); ++i) {
            const Point &p = points[i];
            table.addRow({Table::integer(targets[i]), cell(p.add_thr),
                          cell(p.mul_thr), cell(p.lea_thr)});
            if (p.add_thr > 0)
                add_series.add(targets[i], p.add_thr);
        }

        const double slope =
            linearSlope(add_series.xs(), add_series.ys());

        ResultTable result;
        result.addTable("", std::move(table));
        result.addSeries(std::move(add_series));
        result.addMetric("add-target slope", slope, "~1");

        if (!ctx.quick()) {
            // The ROB cap: a very slow expression cannot be out-raced
            // once the baseline no longer fits the transient window.
            // Pooled: each index leases a machine restored to the base.
            const std::vector<char> lost = ctx.poolMap(
                pool, 31, [&](int i, Rng &, Machine &machine) -> char {
                    return exprOutlastsBaselineOn(machine, Opcode::Add,
                                                  500, Opcode::Add,
                                                  40 + i)
                               ? 0
                               : 1;
                });
            int cap = -1;
            for (std::size_t i = 0; i < lost.size(); ++i) {
                if (lost[i]) {
                    cap = 40 + static_cast<int>(i);
                    break;
                }
            }
            result.addMetric("longest usable ADD ref path",
                             cap < 0 ? -1 : cap - 1, "54");
            result.addCheck("ROB caps the baseline path", cap > 0);
        }
        return result;
    }
};

HR_REGISTER_SCENARIO(Fig08GranularityAdd);

} // namespace
} // namespace hr
