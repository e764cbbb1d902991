/**
 * @file
 * Parameter sweeps over registered gadgets: run any gadget on any
 * machine profile across a parameter grid and report slow/fast timing
 * and bit accuracy per grid point (`hr_bench sweep`).
 *
 * Grid axes use the syntax
 *
 *     --grid key=v1,v2,v3      explicit value list
 *     --grid key=lo:hi[:step]  inclusive integer range (step default 1)
 *
 * and repeat for a cartesian product, expanded in argument order with
 * the last axis varying fastest. Each grid point runs on a fresh
 * machine and a fresh gadget instance, and the points fan out over the
 * worker pool with deterministic per-point work, so rendered output is
 * byte-identical at any --jobs value.
 */

#ifndef HR_EXP_SWEEP_HH
#define HR_EXP_SWEEP_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exp/result.hh"
#include "util/params.hh"

namespace hr
{

/** One sweep grid axis: a parameter key and its values. */
struct SweepAxis
{
    std::string key;
    std::vector<std::string> values;
};

/** Parse a --grid argument ("key=v1,v2" or "key=lo:hi[:step]"). */
SweepAxis parseSweepAxis(const std::string &arg);

/** User-facing knobs of one sweep execution. */
struct SweepOptions
{
    std::string gadget;            ///< registry name (or unique prefix)
    std::string channel;           ///< channel registry name (see
                                   ///< runChannelSweep); exclusive
                                   ///< with `gadget`
    std::string profile = "default"; ///< machine profile per point
    int trials = 4;                ///< samples per polarity per point
    int jobs = 1;                  ///< worker threads for point fan-out
    std::uint64_t seed = 1;        ///< base seed (grid-point RNG streams)
    ParamSet params;               ///< fixed gadget parameters
    std::vector<SweepAxis> grid;   ///< cartesian axes (may be empty)

    /**
     * Periodic-loop forwarding engine in the simulated core; output is
     * byte-identical either way. --no-lockstep clears it.
     */
    bool lockstep = true;

    /** Progress sink (stderr in table mode; never stdout). */
    std::function<void(const std::string &)> progress;
};

/**
 * Run the sweep: one row per grid point with slow/fast mean cycles,
 * the magnification delta, and the decoded-bit accuracy. Incompatible
 * gadget/profile combinations and per-point configuration errors are
 * reported in the row's status column instead of aborting the sweep.
 */
ResultTable runSweep(const SweepOptions &options);

/**
 * Sweep a registered covert channel (`hr_bench sweep --channel=NAME`)
 * over the same grid machinery: one row per grid point with raw and
 * effective capacity, BER, sync-failure rate, and the Shannon
 * estimate. `trials` is the number of transmissions accumulated per
 * point; grid/param keys are validated against the channel's
 * documented keys (channel-level + gadget) up front.
 */
ResultTable runChannelSweep(const SweepOptions &options);

} // namespace hr

#endif // HR_EXP_SWEEP_HH
