/** Fig. 10 scenario: reorder-magnifier timing distributions. */

#include <algorithm>

#include "exp/registry.hh"
#include "gadgets/gadget_registry.hh"
#include "util/log.hh"
#include "util/stats.hh"

namespace hr
{
namespace
{

class Fig10ReorderDistribution : public Scenario
{
  public:
    std::string
    name() const override
    {
        return "fig10_reorder_distribution";
    }

    std::string
    title() const override
    {
        return "Fig. 10: reorder magnifier distributions after 4000 "
               "pattern repetitions";
    }

    std::string
    paperClaim() const override
    {
        return "almost no overlap between transmit-0 and transmit-1";
    }

    /* Noisy machine (memory-latency jitter) so the distributions have
     * realistic spread. */
    std::string defaultProfile() const override { return "noisy_plru"; }

    int defaultTrials() const override { return 120; }

    ResultTable
    run(ScenarioContext &ctx) override
    {
        const int repeats =
            static_cast<int>(ctx.params().getInt(
                "repeats", ctx.quick() ? 400 : 4000));

        // Each trial runs on its own machine with a private jitter
        // stream, so trials parallelize without sharing state. The
        // attack stack is the registry's composed reorder pipeline:
        // reorder_race (expression vs 60-add reference) feeding the
        // reorder PLRU magnifier.
        struct TrialSample
        {
            double slow_ms = 0, fast_ms = 0;
        };
        const std::vector<TrialSample> samples =
            ctx.mapTrials([&](int, Rng &rng) {
                MachineConfig mc = ctx.machineConfig();
                mc.memory.rngSeed = rng.next();
                Machine machine(mc);
                ParamSet params;
                params.set("repeats", std::to_string(repeats));
                auto pipeline = GadgetRegistry::instance().make(
                    "reorder_pipeline", machine, params);
                fatalIf(!pipeline, "fig10: reorder_pipeline needs a "
                                   "4-way tree-PLRU L1 profile");

                TrialSample sample;
                // secret=true: A inserted first, traversal pinned
                // (slow). secret=false: B first, traversal settles to
                // hits (fast).
                for (bool secret : {true, false}) {
                    const TimingSample s =
                        pipeline->sample(secret);
                    const double ms = machine.toNs(s.cycles) / 1e6;
                    (secret ? sample.slow_ms : sample.fast_ms) = ms;
                }
                return sample;
            });

        SampleStats slow_stats, fast_stats;
        for (const TrialSample &sample : samples) {
            slow_stats.add(sample.slow_ms);
            fast_stats.add(sample.fast_ms);
        }

        const double lo =
            std::min(fast_stats.min(), slow_stats.min()) * 0.98;
        const double hi =
            std::max(fast_stats.max(), slow_stats.max()) * 1.02;
        Histogram fast_hist(lo, hi, 30), slow_hist(lo, hi, 30);
        for (double x : fast_stats.samples())
            fast_hist.add(x);
        for (double x : slow_stats.samples())
            slow_hist.add(x);
        const double overlap = fast_hist.overlap(slow_hist);

        ResultTable result;
        result.addMetric("transmit-1 (fast) mean (ms)", fast_stats.mean());
        result.addMetric("transmit-1 (fast) sd (ms)", fast_stats.stddev());
        result.addMetric("transmit-0 (slow) mean (ms)", slow_stats.mean());
        result.addMetric("transmit-0 (slow) sd (ms)", slow_stats.stddev());
        result.addHistogram("transmit 1 (fast)", std::move(fast_hist));
        result.addHistogram("transmit 0 (slow)", std::move(slow_hist));
        result.addMetric("distribution overlap", overlap, "almost none");
        result.addCheck("distributions separable (overlap < 0.05)",
                        overlap < 0.05);
        return result;
    }
};

HR_REGISTER_SCENARIO(Fig10ReorderDistribution);

} // namespace
} // namespace hr
