/**
 * Covert-channel capacity: every registered channel stack
 * (transmitter -> shared hierarchy -> receiver, see src/channel/) run
 * on the two SMT profiles, reporting raw and effective capacity in
 * bits per simulated second, bit-error rate, sync-failure rate, and
 * the Shannon estimate from the measured symbol confusion matrix.
 */

#include <algorithm>
#include <iterator>
#include <set>

#include "channel/channel_registry.hh"
#include "exp/machine_pool.hh"
#include "exp/registry.hh"
#include "sim/profiles.hh"
#include "util/table.hh"

namespace hr
{
namespace
{

/** The machine profiles every channel is tried on. */
constexpr const char *kProfiles[] = {"smt2", "smt2_plru"};

struct Cell
{
    std::string channel;
    std::string gadget;
    std::string modulation;
    std::string profile;
    std::string status = "ok";
    ChannelStats stats;
    bool separable = false;
};

class TabChannelCapacity : public Scenario
{
  public:
    std::string name() const override { return "tab_channel_capacity"; }

    std::string
    title() const override
    {
        return "Covert-channel capacity: every registered channel "
               "stack x SMT profiles";
    }

    std::string
    paperClaim() const override
    {
        return "the stealthy timing gadgets are not just one-shot "
               "probes: composed into a modulated, framed, "
               "error-corrected channel they carry kbit/s-scale "
               "payloads through the shared hierarchy";
    }

    std::string defaultProfile() const override { return "smt2_plru"; }

    /** Trials = frames per transmission. */
    int defaultTrials() const override { return 2; }

    ResultTable
    run(ScenarioContext &ctx) override
    {
        const auto channels = ChannelRegistry::instance().all();
        const int num_channels =
            ctx.quick() ? std::min<int>(4, channels.size())
                        : static_cast<int>(channels.size());
        const int num_profiles =
            static_cast<int>(std::size(kProfiles));
        const int frames = ctx.trials();
        const int frame_bits = ctx.quick() ? 8 : 16;

        // One pool per profile; every cell leases a machine restored
        // to that profile's pristine base state.
        std::vector<std::unique_ptr<MachinePool>> pools;
        std::vector<MachineConfig> base_configs;
        for (const char *profile : kProfiles) {
            base_configs.push_back(machineConfigForProfile(profile));
            pools.push_back(
                std::make_unique<MachinePool>(base_configs.back()));
        }

        // Cells run per profile through poolMap. Payload RNG is
        // re-derived from the flat channel x profile index so results
        // stay byte-identical to the interleaved ordering at any
        // --jobs.
        std::vector<std::vector<Cell>> by_profile;
        for (int p = 0; p < num_profiles; ++p) {
            by_profile.push_back(ctx.poolMap(
                *pools[static_cast<std::size_t>(p)], num_channels,
                [&](int c, Rng &, Machine &machine) {
                    const int index = c * num_profiles + p;
                    Rng rng(ctx.indexSeed(index));
                    const ChannelInfo &info =
                        *channels[static_cast<std::size_t>(c)];
                    Cell cell;
                    cell.channel = info.name;
                    cell.gadget = info.gadget;
                    cell.modulation = info.modulation;
                    cell.profile = kProfiles[p];
                    try {
                        ScenarioContext::reseedMachine(
                            machine,
                            base_configs[static_cast<std::size_t>(p)],
                            ctx.indexSeed(index));

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
                        cell.separable =
                            channel.demodulator().separable();

                        std::vector<bool> payload;
                        for (int i = 0; i < frames * frame_bits; ++i)
                            payload.push_back(rng.chance(0.5));
                        cell.stats = channel.run(machine, payload);
                    } catch (const std::exception &e) {
                        cell.status = std::string("error: ") + e.what();
                    }
                    return cell;
                }));
        }
        std::vector<Cell> cells;
        cells.reserve(static_cast<std::size_t>(num_channels) *
                      static_cast<std::size_t>(num_profiles));
        for (int c = 0; c < num_channels; ++c)
            for (int p = 0; p < num_profiles; ++p)
                cells.push_back(std::move(
                    by_profile[static_cast<std::size_t>(p)]
                              [static_cast<std::size_t>(c)]));

        Table table({"channel", "gadget", "mod", "profile", "status",
                     "raw kb/s", "eff kb/s", "BER", "sync fail",
                     "shannon kb/s"});
        bool all_ran = true;
        std::set<std::string> gadgets_ok[std::size(kProfiles)];
        int perfect_deliveries = 0;
        for (const Cell &cell : cells) {
            std::vector<std::string> row = {cell.channel, cell.gadget,
                                            cell.modulation,
                                            cell.profile, cell.status};
            if (cell.status == "ok") {
                const ChannelStats &s = cell.stats;
                row.push_back(Table::num(s.rawBitsPerSec() / 1e3, 2));
                row.push_back(
                    Table::num(s.effectiveBitsPerSec() / 1e3, 2));
                row.push_back(Table::num(s.ber(), 3));
                row.push_back(Table::num(s.syncFailureRate(), 3));
                row.push_back(
                    Table::num(s.shannonBitsPerSec() / 1e3, 2));
                for (int p = 0; p < static_cast<int>(std::size(kProfiles));
                     ++p) {
                    if (cell.profile == kProfiles[p])
                        gadgets_ok[p].insert(cell.gadget);
                }
                if (s.ber() == 0.0 && s.syncFailureRate() == 0.0)
                    ++perfect_deliveries;
            } else {
                all_ran &= cell.status == "incompatible" ||
                           cell.status == "calib_fail";
                for (int i = 0; i < 5; ++i)
                    row.push_back("-");
            }
            table.addRow(std::move(row));
        }

        ResultTable result;
        result.addTable("capacity / BER per channel x profile",
                        std::move(table));
        result.addMeta("frames", std::to_string(frames));
        result.addMeta("frame_bits", std::to_string(frame_bits));
        std::size_t min_gadgets = gadgets_ok[0].size();
        for (const auto &ok : gadgets_ok)
            min_gadgets = std::min(min_gadgets, ok.size());
        result.addMetric("distinct gadgets measured on every profile",
                         static_cast<double>(min_gadgets), ">= 6");
        result.addMetric("channels with perfect delivery",
                         static_cast<double>(perfect_deliveries));
        result.addNote("raw = channel symbols/s; eff = correctly "
                       "delivered payload bits/s (framing + ECC "
                       "overhead and errors removed); shannon = "
                       "mutual information of the measured symbol "
                       "confusion matrix at the raw symbol rate");
        result.addNote("ook_coarse_timer is the designed failure: the "
                       "bare 5 us clock cannot separate the symbol "
                       "states, so it never syncs a frame (BER 1.0 = "
                       "total loss)");
        result.addCheck("no channel errored", all_ran);
        result.addCheck(
            "capacity + BER measured for >= 6 gadgets on "
            "every profile",
            !ctx.quick() ? min_gadgets >= 6 : min_gadgets >= 1);
        result.addCheck("at least one channel delivers error-free",
                        perfect_deliveries > 0);
        return result;
    }
};

HR_REGISTER_SCENARIO(TabChannelCapacity);

} // namespace
} // namespace hr
