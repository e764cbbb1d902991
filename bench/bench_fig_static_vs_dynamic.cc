/**
 * Static-vs-dynamic leakage: every registered channel stack analyzed
 * by the static leakage analyzer (src/analysis/) and then actually
 * run as a covert channel on the same profile. The figure tabulates
 * the static verdict (leakage class + predicted observers) against
 * the measured capacity, and checks the soundness direction the
 * analyzer promises: any channel that delivers payload bits for real
 * must have been flagged statically, with its gadget inside the
 * predicted observer set.
 */

#include <algorithm>
#include <set>

#include "analysis/leakage.hh"
#include "channel/channel_registry.hh"
#include "exp/machine_pool.hh"
#include "exp/registry.hh"
#include "sim/profiles.hh"
#include "util/table.hh"

namespace hr
{
namespace
{

/** Channels need two contexts; PLRU covers the magnifier gadgets. */
constexpr const char *kProfile = "smt2_plru";

struct Cell
{
    std::string channel;
    std::string gadget;
    std::string status = "ok"; ///< dynamic half
    ChannelStats stats;
    LeakageReport report; ///< static half
};

class FigStaticVsDynamic : public Scenario
{
  public:
    std::string name() const override { return "fig_static_vs_dynamic"; }

    std::string
    title() const override
    {
        return "Static leakage verdicts vs measured covert-channel "
               "capacity";
    }

    std::string
    paperClaim() const override
    {
        return "the gadget zoo is not ad hoc: each gadget's leakage "
               "is predictable from its recorded op stream alone, and "
               "the static footprint/FU verdicts agree with what the "
               "running channels actually extract";
    }

    std::string defaultProfile() const override { return kProfile; }

    /** Trials = frames per transmission. */
    int defaultTrials() const override { return 2; }

    ResultTable
    run(ScenarioContext &ctx) override
    {
        const auto channels = ChannelRegistry::instance().all();
        const int num_channels =
            ctx.quick() ? std::min<int>(4, channels.size())
                        : static_cast<int>(channels.size());
        const int frames = ctx.trials();
        const int frame_bits = ctx.quick() ? 8 : 16;
        const MachineConfig config = machineConfigForProfile(kProfile);
        MachinePool pool(config);

        std::vector<Cell> cells = ctx.poolMap(
            pool, num_channels, [&](int c, Rng &, Machine &machine) {
                Rng rng(ctx.indexSeed(c));
                const ChannelInfo &info =
                    *channels[static_cast<std::size_t>(c)];
                Cell cell;
                cell.channel = info.name;
                cell.gadget = info.gadget;
                // Static half: record-and-diff the channel's gadget
                // under the same profile the channel runs on. No
                // dynamic cross-validation here — the channel run
                // below IS the dynamic half of this figure.
                cell.report =
                    analyzeChannel(info.name, kProfile, {}, false);
                try {
                    ScenarioContext::reseedMachine(machine, config,
                                                   ctx.indexSeed(c));
                    ParamSet overrides;
                    overrides.set("frame_bits",
                                  std::to_string(frame_bits));
                    Channel channel(
                        ChannelRegistry::instance().makeConfig(
                            info.name, overrides));
                    if (!channel.compatible(machine)) {
                        cell.status = "incompatible";
                        return cell;
                    }
                    try {
                        channel.prepare(machine);
                    } catch (const std::exception &) {
                        cell.status = "calib_fail";
                        return cell;
                    }
                    std::vector<bool> payload;
                    for (int i = 0; i < frames * frame_bits; ++i)
                        payload.push_back(rng.chance(0.5));
                    cell.stats = channel.run(machine, payload);
                } catch (const std::exception &e) {
                    cell.status = std::string("error: ") + e.what();
                }
                return cell;
            });

        Table table({"channel", "gadget", "static class", "predicted "
                     "observers", "dynamic", "eff kb/s", "agree"});
        bool all_ran = true;
        bool all_static_ok = true;
        int delivering = 0;
        int sound = 0;      ///< delivering channels flagged statically
        int observed = 0;   ///< ... with the gadget in the observer set
        for (const Cell &cell : cells) {
            const bool static_ok = cell.report.status == "ok";
            all_static_ok &= static_ok;
            const bool leaky =
                static_ok && !cell.report.constantTime;
            const bool delivers = cell.status == "ok" &&
                                  cell.stats.effectiveBitsPerSec() > 0;
            const bool in_observers =
                std::find(cell.report.observers.begin(),
                          cell.report.observers.end(),
                          cell.gadget) != cell.report.observers.end();
            if (delivers) {
                ++delivering;
                sound += leaky ? 1 : 0;
                observed += in_observers ? 1 : 0;
            }
            std::string agree = "-";
            if (delivers)
                agree = leaky && in_observers ? "yes" : "NO";
            std::string observers;
            for (const std::string &name : cell.report.observers)
                observers +=
                    (observers.empty() ? "" : ",") + name;
            table.addRow(
                {cell.channel, cell.gadget,
                 static_ok ? cell.report.leakClass : cell.report.status,
                 observers, cell.status,
                 cell.status == "ok"
                     ? Table::num(cell.stats.effectiveBitsPerSec() / 1e3,
                                  2)
                     : "-",
                 agree});
            all_ran &= cell.status == "ok" ||
                       cell.status == "incompatible" ||
                       cell.status == "calib_fail";
        }

        ResultTable result;
        result.addTable("static verdict vs measured capacity",
                        std::move(table));
        result.addMeta("profile", kProfile);
        result.addMeta("frames", std::to_string(frames));
        result.addMeta("frame_bits", std::to_string(frame_bits));
        result.addMetric("channels delivering payload bits",
                         static_cast<double>(delivering), ">= 1");
        result.addMetric("delivering channels flagged statically",
                         static_cast<double>(sound));
        result.addNote("agree = the channel moves real bits AND the "
                       "static analyzer both flags its gadget as "
                       "leaky and lists the gadget among the sources "
                       "able to observe the state difference");
        result.addCheck("every channel analyzed statically",
                        all_static_ok);
        result.addCheck("no channel errored dynamically", all_ran);
        result.addCheck("at least one channel delivers payload bits",
                        delivering > 0);
        result.addCheck(
            "every delivering channel is statically leaky",
            sound == delivering);
        result.addCheck(
            "every delivering channel's gadget is a predicted observer",
            observed == delivering);
        return result;
    }
};

HR_REGISTER_SCENARIO(FigStaticVsDynamic);

} // namespace
} // namespace hr
