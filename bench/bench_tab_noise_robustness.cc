/**
 * Noisy-neighbor robustness: re-run the Fig. 7-12 gadget family with a
 * co-resident background workload hammering the shared hierarchy from
 * a sibling hardware context, and report whether each gadget still
 * decodes its bit.
 */

#include <iterator>

#include "exp/machine_pool.hh"
#include "exp/registry.hh"
#include "gadgets/gadget_registry.hh"
#include "sim/noise.hh"
#include "util/table.hh"

namespace hr
{
namespace
{

/** The paper-figure gadgets the sweep re-runs (name, figure). */
struct SweptGadget
{
    const char *gadget;
    const char *figure;
    ParamSet params; ///< overrides fitting the smt2_plru L1
};

const SweptGadget kGadgets[] = {
    {"repetition", "Fig. 7", {}},
    {"pa_race", "Fig. 8/9", {}},
    {"reorder_race", "Fig. 10", {}},
    // The chain-reaction magnifier sized for the 4-way L1 (its
    // defaults assume 8 ways).
    {"arbitrary_magnifier", "Fig. 11", {{"seq_len", "3"}, {"par_len", "3"}}},
    {"arith_magnifier", "Fig. 12", {}},
    {"hacky_pipeline", "Fig. 7-9 composed", {}},
};

struct Cell
{
    std::string status = "ok";
    double accuracy = 0;
    double deltaUs = 0;
};

class TabNoiseRobustness : public Scenario
{
  public:
    std::string name() const override { return "tab_noise_robustness"; }

    std::string
    title() const override
    {
        return "Noisy neighbors: Fig. 7-12 gadgets vs co-resident "
               "background workloads";
    }

    std::string
    paperClaim() const override
    {
        return "the stealthy timers matter because they survive "
               "co-resident activity; cache-state gadgets degrade "
               "under eviction pressure while arithmetic-only ones "
               "shrug it off";
    }

    std::string defaultProfile() const override { return "smt2_plru"; }

    int defaultTrials() const override { return 4; }

    ResultTable
    run(ScenarioContext &ctx) override
    {
        const int num_gadgets =
            ctx.quick() ? 3 : static_cast<int>(std::size(kGadgets));
        const auto &noise = noiseWorkloads();
        const int num_noise = static_cast<int>(noise.size());

        // One pool per noise workload: the warmup installs the
        // neighbor once per constructed machine, so every lease runs
        // against identical co-resident activity.
        std::vector<std::unique_ptr<MachinePool>> pools;
        for (const NoiseInfo &info : noise) {
            const NoiseKind kind = info.kind;
            pools.push_back(std::make_unique<MachinePool>(
                ctx.machineConfig(), [kind](Machine &machine) {
                    installNoise(machine, 1, kind);
                }));
        }

        const int trials = ctx.trials();
        const std::vector<Cell> cells = ctx.parallelMap(
            num_gadgets * num_noise, [&](int index, Rng &) {
                const SweptGadget &swept =
                    kGadgets[static_cast<std::size_t>(index /
                                                      num_noise)];
                const int noise_index = index % num_noise;
                Cell cell;
                try {
                    auto lease =
                        pools[static_cast<std::size_t>(noise_index)]
                            ->lease();
                    Machine &machine = lease.machine();
                    auto source = GadgetRegistry::instance().make(
                        swept.gadget, machine, swept.params);
                    if (!source) {
                        cell.status = "incompatible";
                        return cell;
                    }
                    try {
                        source->calibrate();
                    } catch (const std::exception &) {
                        cell.status = "calib_fail";
                        return cell;
                    }
                    const PolarityStats stats =
                        measurePolarities(*source, trials);
                    cell.accuracy = stats.accuracy();
                    cell.deltaUs = machine.toUs(static_cast<Cycle>(
                        stats.slowCycles > stats.fastCycles
                            ? stats.slowCycles - stats.fastCycles
                            : 0));
                } catch (const std::exception &e) {
                    cell.status = std::string("error: ") + e.what();
                }
                return cell;
            });

        std::vector<std::string> headers = {"gadget", "figure"};
        for (const NoiseInfo &info : noise)
            headers.push_back(info.name);
        Table table(headers);
        bool all_ran = true;
        bool idle_all_decode = true;
        for (int g = 0; g < num_gadgets; ++g) {
            std::vector<std::string> row = {kGadgets[g].gadget,
                                            kGadgets[g].figure};
            for (int n = 0; n < num_noise; ++n) {
                const Cell &cell =
                    cells[static_cast<std::size_t>(g * num_noise + n)];
                if (cell.status == "ok") {
                    row.push_back(Table::num(cell.accuracy, 3));
                } else {
                    row.push_back(cell.status);
                    all_ran &= cell.status == "calib_fail" ||
                               cell.status == "incompatible";
                }
                if (noise[static_cast<std::size_t>(n)].kind ==
                    NoiseKind::Idle) {
                    idle_all_decode &= cell.status == "ok" &&
                                       cell.accuracy >= 0.99;
                }
            }
            table.addRow(std::move(row));
        }

        ResultTable result;
        result.addTable("bit accuracy per gadget x neighbor",
                        std::move(table));
        for (const NoiseInfo &info : noise)
            result.addNote(info.name + ": " + info.description);
        result.addCheck("no gadget errored", all_ran);
        result.addCheck("every gadget decodes perfectly when the "
                        "neighbor is idle",
                        idle_all_decode);
        return result;
    }
};

HR_REGISTER_SCENARIO(TabNoiseRobustness);

} // namespace
} // namespace hr
