/**
 * @file
 * Capacity analysis drivers: the glue between the QIF partition
 * engine (qif.hh) and the analyzable universe (registered gadgets,
 * registered channels, annotated demo programs).
 *
 * Gadget/channel mode records one steady-state sample() per polarity
 * through the same Machine::beginRecord surface the leakage
 * classifier uses (leakage.hh: recordGadgetFootprints) and bounds
 * the {fast, slow} two-valuation domain — the domain a binary covert
 * channel actually signals over, so the bound is directly comparable
 * to the measured Shannon MI per symbol.
 *
 * Program mode generalizes to N values: when a demo target declares
 * `secretValues`, every secret source in its TaintSpec takes each
 * value (enumerateSpecDomain) and the exact reference interpreter +
 * footprint model runs once per valuation. Targets without a declared
 * domain fall back to their fast/slow assignment pair.
 *
 * All entry points are deterministic pure functions of (target,
 * profile, params): `analyze --capacity --jobs N` is byte-identical
 * for every N because the drivers share no mutable state.
 */

#ifndef HR_ANALYSIS_CAPACITY_HH
#define HR_ANALYSIS_CAPACITY_HH

#include <string>

#include "analysis/leakage.hh"
#include "analysis/qif.hh"

namespace hr
{

/** Capacity verdict for one analyze target. */
struct CapacityReport
{
    std::string target;  ///< gadget/channel/program name
    std::string kind;    ///< "gadget" | "channel" | "program"
    std::string gadget;  ///< underlying gadget (channels)
    std::string profile; ///< machine profile analyzed under
    std::string status = "ok"; ///< ok | incompatible | calib_fail | error:
    std::string detail;
    bool opaque = false; ///< a recording went opaque (approximate)
    /** Labels of the analyzed valuations, domain order. */
    std::vector<std::string> valuationLabels;
    CapacityBound bound;
};

/**
 * Bound a registered gadget's per-trial capacity over the {fast,
 * slow} polarity domain on @p profile (empty = the gadget's default
 * analysis profile). @p params forward to GadgetRegistry::make.
 */
CapacityReport analyzeGadgetCapacity(const std::string &name,
                                     const std::string &profile,
                                     const ParamSet &params);

/**
 * Bound a registered channel: its underlying gadget analyzed exactly
 * as the channel configures it, stamped with the channel's name.
 * This is the number `fig_capacity_bound_vs_measured` compares the
 * channel's measured Shannon MI per symbol against.
 */
CapacityReport analyzeChannelCapacity(const std::string &name,
                                      const std::string &profile,
                                      const ParamSet &params);

/** Bound an annotated demo program over its declared secret domain. */
CapacityReport analyzeProgramCapacity(const ProgramTarget &target,
                                      const std::string &profile);

/**
 * Render a bound for table cells: bits to one decimal, "*" appended
 * when any valuation was widened (the bound is sound but not the
 * model's provable optimum), or the non-ok status verbatim.
 */
std::string formatBound(const CapacityReport &report);

/**
 * Memoized formatted capacity bound for a registered gadget under its
 * default analysis profile. Used by the `hr_bench gadgets`/`channels`
 * listings to stamp every registry entry ("n/a" on analysis error).
 */
std::string capacityBoundFor(const std::string &gadget);

} // namespace hr

#endif // HR_ANALYSIS_CAPACITY_HH
