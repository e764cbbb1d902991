/** Fig. 7 scenario: repetition-gadget time stacks. */

#include <cstdlib>

#include "exp/registry.hh"
#include "gadgets/gadget_registry.hh"
#include "util/table.hh"

namespace hr
{
namespace
{

class Fig07RepetitionStack : public Scenario
{
  public:
    std::string name() const override { return "fig07_repetition_stack"; }

    std::string
    title() const override
    {
        return "Fig. 7: repetition gadgets need racing gadgets";
    }

    std::string
    paperClaim() const override
    {
        return "(a) plain repetition: load/reload deltas cancel, no total "
               "signal; (b) racing envelope on the load stage: reload "
               "delta survives into the total";
    }

    ResultTable
    run(ScenarioContext &ctx) override
    {
        Machine machine(ctx.machineConfig());
        ResultTable result;

        // The repetition harness through the gadget registry: secret
        // false = victim touches the probe line, true = a different
        // line; the stage breakdown rides in the sample's aux fields.
        std::int64_t plain_signal = 0, racing_signal = 0;
        Cycle plain_same_total = 0;
        for (bool racing : {false, true}) {
            ParamSet params;
            params.set("racing", racing ? "1" : "0");
            auto source = GadgetRegistry::instance().make(
                "repetition", machine, params);
            const TimingSample same = source->sample(false);
            const TimingSample diff = source->sample(true);
            const std::int64_t signal =
                static_cast<std::int64_t>(diff.cycles) -
                static_cast<std::int64_t>(same.cycles);
            addStacks(result,
                      racing ? "(b) load stage hidden in a racing gadget"
                             : "(a) plain repetition",
                      same, diff, signal);
            (racing ? racing_signal : plain_signal) = signal;
            if (!racing)
                plain_same_total = same.cycles;
        }

        // "No signal" = the residual is lost in the run time (< 1%),
        // not merely smaller than the racing variant's signal.
        result.addCheck("plain repetition has no total-time signal",
                        std::llabs(plain_signal) <
                            static_cast<std::int64_t>(
                                plain_same_total / 100));
        result.addCheck("racing envelope preserves a total-time signal",
                        racing_signal > 0);
        return result;
    }

  private:
    static void
    addStacks(ResultTable &result, const std::string &title,
              const TimingSample &same, const TimingSample &diff,
              std::int64_t signal)
    {
        Table table(
            {"case", "evict%", "load%", "reload%", "total (cycles)"});
        // Fig. 7b normalizes both cases to the same-address total.
        const double norm = static_cast<double>(same.cycles);
        auto row = [&](const char *name, const TimingSample &sample) {
            table.addRow(
                {name,
                 Table::num(100.0 * sample.auxValue("evict") / norm, 1),
                 Table::num(100.0 * sample.auxValue("load") / norm, 1),
                 Table::num(100.0 * sample.auxValue("reload") / norm, 1),
                 Table::integer(static_cast<long long>(sample.cycles))});
        };
        row("same addr", same);
        row("different addr", diff);
        result.addTable(title, std::move(table));
        result.addMetric(title + ": total-time signal (cycles)",
                         static_cast<double>(signal));
    }
};

HR_REGISTER_SCENARIO(Fig07RepetitionStack);

} // namespace
} // namespace hr
