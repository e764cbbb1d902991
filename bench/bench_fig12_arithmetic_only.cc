/** Fig. 12 scenario: arithmetic-operation-only magnifier. */

#include "exp/registry.hh"
#include "gadgets/gadget_registry.hh"
#include "util/table.hh"

namespace hr
{
namespace
{

class Fig12ArithmeticOnly : public Scenario
{
  public:
    std::string name() const override { return "fig12_arithmetic_only"; }

    std::string
    title() const override
    {
        return "Fig. 12: arithmetic-only magnifier vs repeat count";
    }

    std::string
    paperClaim() const override
    {
        return "grows with repeats, then saturates when the runtime "
               "reaches the timer-interrupt interval (4 ms): the "
               "pipeline reset re-aligns the paths and this magnifier "
               "is stateless";
    }

    ResultTable
    run(ScenarioContext &ctx) override
    {
        const std::vector<int> stage_counts =
            ctx.quick()
                ? std::vector<int>{500, 2000, 8000}
                : std::vector<int>{500, 2000, 8000, 16000, 24000, 32000,
                                   48000};

        MachineConfig mc = ctx.machineConfig();
        // Our stages are ~124 cycles; a 2 ms interrupt interval puts
        // the saturation knee inside the same repeat range as the
        // paper's 4 ms did for its larger stages (shape-preserving
        // rescale).
        mc.withInterrupts(2.0);

        struct Point
        {
            double delta_us = 0, runtime_ms = 0;
        };
        const std::vector<Point> points = ctx.parallelMap(
            static_cast<int>(stage_counts.size()), [&](int i, Rng &) {
                ParamSet params;
                params.set(
                    "stages",
                    std::to_string(
                        stage_counts[static_cast<std::size_t>(i)]));
                // Each polarity runs on a fresh machine so both see the
                // same absolute interrupt grid (deltas are otherwise
                // dominated by which run happens to straddle a
                // boundary).
                const GadgetRegistry &registry = GadgetRegistry::instance();
                Machine fast_machine(mc);
                const Cycle fast =
                    registry.make("arith_magnifier", fast_machine, params)
                        ->sample(false)
                        .cycles;
                Machine slow_machine(mc);
                const Cycle slow =
                    registry.make("arith_magnifier", slow_machine, params)
                        ->sample(true)
                        .cycles;
                const Cycle delta = slow > fast ? slow - fast : 0;
                Point point;
                point.delta_us = fast_machine.toUs(delta);
                point.runtime_ms = fast_machine.toNs(slow) / 1e6;
                return point;
            });

        Series series("divider chain reaction", "repeat num (stages)",
                      "timing difference (us)");
        Table table({"stages", "runtime (ms)", "delta (us)"});
        for (std::size_t i = 0; i < stage_counts.size(); ++i) {
            series.add(stage_counts[i], points[i].delta_us);
            table.addRow({Table::integer(stage_counts[i]),
                          Table::num(points[i].runtime_ms, 2),
                          Table::num(points[i].delta_us, 2)});
        }

        ResultTable result;
        if (!ctx.quick()) {
            const auto &ys = series.ys();
            const bool grows = ys[2] > 3.0 * ys[0];
            const bool saturates = ys.back() < 1.6 * ys[ys.size() - 3];
            result.addCheck("delta grows with repeats", grows);
            result.addCheck("delta saturates at the interrupt interval",
                            saturates);
        }
        result.addTable("", std::move(table));
        result.addSeries(std::move(series));
        return result;
    }
};

HR_REGISTER_SCENARIO(Fig12ArithmeticOnly);

} // namespace
} // namespace hr
