/** Fig. 9 scenario: racing-gadget granularity, MUL reference path. */

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

int
thresholdMulRefOps(MachinePool &pool, Opcode target_op,
                   int target_ops)
{
    int lo = 1, hi = 60, found = -1;
    while (lo <= hi) {
        const int mid = (lo + hi) / 2;
        auto lease = pool.lease();
        Machine &machine = lease.machine();
        ParamSet params;
        params.set("op", opcodeName(target_op));
        params.set("slow_ops", std::to_string(target_ops));
        params.set("ref_op", "mul");
        params.set("ref_ops", std::to_string(mid));
        auto race =
            GadgetRegistry::instance().make("pa_race", machine, params);
        if (!race->sample(true).bit) {
            found = mid;
            hi = mid - 1;
        } else {
            lo = mid + 1;
        }
    }
    return found;
}

class Fig09GranularityMul : public Scenario
{
  public:
    std::string name() const override { return "fig09_granularity_mul"; }

    std::string
    title() const override
    {
        return "Fig. 9: target ops measured by a MUL reference path";
    }

    std::string
    paperClaim() const override
    {
        return "MUL baselines extend the measurable range ~3x (to ~140 "
               "ADD-equivalents) at coarser granularity; DIV counted "
               "with slope ~latDiv/latMul";
    }

    std::string defaultProfile() const override
    {
        return "effective_window";
    }

    ResultTable
    run(ScenarioContext &ctx) override
    {
        MachinePool pool(ctx.machineConfig());
        const int max_n = ctx.quick() ? 24 : 144;

        std::vector<int> targets;
        for (int n = 4; n <= max_n; n += 10)
            targets.push_back(n);

        struct Point
        {
            int add_thr = -1, div_thr = -2; // -2 = not measured
        };
        const std::vector<Point> points = ctx.parallelMap(
            static_cast<int>(targets.size()), [&](int i, Rng &) {
                const int n = targets[static_cast<std::size_t>(i)];
                Point p;
                p.add_thr = thresholdMulRefOps(pool, Opcode::Add, n);
                if (n <= 40)
                    p.div_thr = thresholdMulRefOps(pool, Opcode::Div, n);
                return p;
            });

        Table table({"target ops", "ref MULs (add)", "ref MULs (div)"});
        Series add_series("add-target", "target adds", "ref MULs");
        Series div_series("div-target", "target divs", "ref MULs");
        auto cell = [](int v) {
            return v < 0 ? std::string("cap") : Table::integer(v);
        };
        for (std::size_t i = 0; i < targets.size(); ++i) {
            const Point &p = points[i];
            table.addRow({Table::integer(targets[i]), cell(p.add_thr),
                          p.div_thr == -2 ? std::string("-")
                                          : cell(p.div_thr)});
            if (p.add_thr > 0)
                add_series.add(targets[i], p.add_thr);
            if (p.div_thr > 0)
                div_series.add(targets[i], p.div_thr);
        }

        const double add_slope =
            linearSlope(add_series.xs(), add_series.ys());
        const double div_slope =
            linearSlope(div_series.xs(), div_series.ys());
        const double max_add =
            add_series.xs().empty() ? 0.0 : add_series.xs().back();

        ResultTable result;
        result.addTable("", std::move(table));
        result.addSeries(std::move(add_series));
        result.addSeries(std::move(div_series));
        result.addMetric("add-target slope (MULs/add)", add_slope, "~1/3");
        result.addMetric("div-target slope (MULs/div)", div_slope,
                         "~4, the latency ratio");
        result.addMetric("max measurable expression (adds)", max_add,
                         "~140");
        return result;
    }
};

HR_REGISTER_SCENARIO(Fig09GranularityMul);

} // namespace
} // namespace hr
