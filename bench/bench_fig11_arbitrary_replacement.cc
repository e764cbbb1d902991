/** Fig. 11 scenario: arbitrary-replacement magnifier growth. */

#include "exp/registry.hh"
#include "gadgets/gadget_registry.hh"
#include "util/log.hh"
#include "util/table.hh"

namespace hr
{
namespace
{

class Fig11ArbitraryReplacement : public Scenario
{
  public:
    std::string
    name() const override
    {
        return "fig11_arbitrary_replacement";
    }

    std::string
    title() const override
    {
        return "Fig. 11: arbitrary-replacement magnifier with cache-set "
               "reuse (32 sets, prefetch restoration)";
    }

    std::string
    paperClaim() const override
    {
        return "timing difference grows with repeats to ~100 us; without "
               "prefetching it saturates around 450 cycles (~225 ns)";
    }

    std::string defaultProfile() const override { return "random_l1"; }

    ResultTable
    run(ScenarioContext &ctx) override
    {
        const std::vector<int> repeat_values =
            ctx.quick() ? std::vector<int>{10, 25, 50}
                        : std::vector<int>{10, 25, 50, 100, 200};

        // Three variants per repeat count: LRU with prefetch, LRU
        // without, random with prefetch. Every cell is an independent
        // machine, so the whole grid fans out.
        struct Cell
        {
            double lru_us = 0, nopf_us = 0, random_us = 0;
        };
        const std::vector<Cell> cells = ctx.parallelMap(
            static_cast<int>(repeat_values.size()), [&](int i, Rng &) {
                const int repeats =
                    repeat_values[static_cast<std::size_t>(i)];
                Cell cell;
                cell.lru_us = measure(ctx, PolicyKind::Lru, repeats, true);
                cell.nopf_us =
                    measure(ctx, PolicyKind::Lru, repeats, false);
                cell.random_us =
                    measure(ctx, PolicyKind::Random, repeats, true);
                return cell;
            });

        Series grow("with prefetch (lru)", "repeat num",
                    "timing difference (us)");
        Series nopf("no prefetch (lru)", "repeat num",
                    "timing difference (us)");
        Series rand_series("with prefetch (random)", "repeat num",
                           "timing difference (us)");
        for (std::size_t i = 0; i < repeat_values.size(); ++i) {
            grow.add(repeat_values[i], cells[i].lru_us);
            nopf.add(repeat_values[i], cells[i].nopf_us);
            rand_series.add(repeat_values[i], cells[i].random_us);
        }

        const bool grows =
            grow.ys().back() > 4.0 * grow.ys().front() &&
            grow.ys().back() > 20.0; // > 5 us tick, by a wide margin
        const bool saturates =
            nopf.ys().back() < 4.0 * nopf.ys().front() ||
            nopf.ys().back() < 2.0;

        ResultTable result;
        result.addSeries(std::move(grow));
        result.addSeries(std::move(nopf));
        result.addSeries(std::move(rand_series));
        result.addNote(
            "shape: prefetch restoration sustains growth (paper: linear "
            "to ~100 us); without it magnification is bounded by the set "
            "count. Random replacement is noise-bounded in this model — "
            "see EXPERIMENTS.md.");
        if (!ctx.quick()) {
            result.addCheck("prefetch restoration sustains growth", grows);
            result.addCheck("no-prefetch variant saturates", saturates);
        }
        return result;
    }

  private:
    static double
    measure(const ScenarioContext &ctx, PolicyKind policy, int repeats,
            bool prefetch)
    {
        MachineConfig mc = ctx.machineConfig();
        mc.memory.l1.policy = policy;
        Machine machine(mc);
        ParamSet params;
        params.set("repeats", std::to_string(repeats));
        params.set("prefetch", prefetch ? "1" : "0");
        auto magnifier = GadgetRegistry::instance().make(
            "arbitrary_magnifier", machine, params);
        fatalIf(!magnifier, "fig11: arbitrary_magnifier does not fit "
                            "this profile's L1");
        const Cycle fast = magnifier->sample(false).cycles;
        const Cycle slow = magnifier->sample(true).cycles;
        return machine.toUs(slow > fast ? slow - fast : 0);
    }
};

HR_REGISTER_SCENARIO(Fig11ArbitraryReplacement);

} // namespace
} // namespace hr
