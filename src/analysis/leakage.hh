/**
 * @file
 * Differential gadget leakage analysis + dynamic cross-validation.
 *
 * Every registered TimingSource is, by the paper's construction, a
 * program whose microarchitectural behaviour differs between the two
 * secret polarities. This module proves that statically, per gadget,
 * without per-gadget hooks: it records one sample() per polarity
 * through Machine::beginRecord, harvests the captured op stream —
 * every DecodedProgram with its initial registers, every
 * warm/flush/poke — and hands the programs
 * to the reference interpreter (interp.hh) and the footprint model
 * (footprint.hh). The polarity diff yields the gadget's leakage class
 * (constant_time / fu_timing / cache_footprint / cache_order /
 * transient_cache, with "+fu" combinations) and the set of registered
 * sources predicted able to observe it.
 *
 * Cross-validation closes the loop: the same sample() runs for real
 * on a pooled Machine, and the static predictions are checked against
 * the machine's observers (Machine::contextStats / cacheMisses) — exact
 * fill/access equality where the model proves exactness, ordering
 * bounds elsewhere, and a polarity-distinguishability check whenever
 * the static verdict says "leaky". The analyzer is thereby
 * regression-tested against the simulator itself.
 *
 * Program mode (analyzeProgramTarget) analyzes a caller-supplied
 * Program with an explicit TaintSpec instead: the taint/dataflow pass
 * (taint.hh) reports secret-dependent addresses/branches/FU choices,
 * and the two caller-given secret assignments drive the same
 * differential + validation machinery. This is the entry point the
 * ROADMAP-5 gadget synthesizer will call per candidate.
 */

#ifndef HR_ANALYSIS_LEAKAGE_HH
#define HR_ANALYSIS_LEAKAGE_HH

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/footprint.hh"
#include "analysis/taint.hh"
#include "exp/machine_pool.hh"
#include "gadgets/timing_source.hh"
#include "isa/program.hh"
#include "util/params.hh"

namespace hr
{

struct TrialTrace;

/**
 * Fold one recorded trial trace into a static footprint: pokes seed
 * the memory environment, warms/flushes become state events, and
 * every Run op's decoded program goes through the reference
 * interpreter with the registers the trial actually passed. Exported
 * for the capacity engine (capacity.hh), which folds per-valuation
 * traces through the same model the classifier uses.
 */
CacheFootprint foldTrialTrace(const TrialTrace &trace,
                              const MachineConfig &config);

/** The two polarity footprints recorded from a live gadget. */
struct GadgetRecording
{
    std::string status = "ok"; ///< ok | incompatible | calib_fail
    bool opaque = false; ///< a recording went opaque (approximate)
    CacheFootprint footprint[2]; ///< [0] = fast, [1] = slow polarity
    /** The primed source, bound to the lease's machine (null unless ok). */
    std::unique_ptr<TimingSource> source;
};

/**
 * Build @p gadget with @p params on the leased machine, prime it
 * (calibrate + one throwaway sample per polarity, so one-time
 * calibration work is absorbed before recording), then record one
 * steady-state sample() per polarity — each from the pool's base
 * state (Lease::restore) — folding each trace through foldTrialTrace.
 * Gadget errors beyond incompatibility/calibration propagate as
 * exceptions.
 */
GadgetRecording recordGadgetFootprints(const std::string &gadget,
                                       const ParamSet &params,
                                       const MachinePool::Lease &lease,
                                       const MachineConfig &config);

/** Outcome of the dynamic cross-validation of one static report. */
struct ValidationResult
{
    bool ran = false;
    bool passed = false;
    /** Traced per-polarity observations ([0] = fast, [1] = slow). */
    std::uint64_t observedAccesses[2] = {0, 0};
    std::uint64_t observedFills[2] = {0, 0};
    std::uint64_t observedMisses[2] = {0, 0};
    Cycle observedCycles[2] = {0, 0};
    std::vector<std::string> failures; ///< empty when passed
};

/** Full static verdict for one analyze target. */
struct LeakageReport
{
    std::string target;  ///< gadget/channel/program name
    std::string kind;    ///< "gadget" | "channel" | "program"
    std::string gadget;  ///< underlying gadget (channels)
    std::string profile; ///< machine profile analyzed under
    std::string status = "ok"; ///< ok | incompatible | calib_fail | error:
    std::string leakClass;     ///< see classifyLeak()
    bool constantTime = false;
    FootprintDiff diff;
    CacheFootprint footprint[2]; ///< [0] = fast, [1] = slow polarity
    bool opaque = false; ///< a recording went opaque (approximate)
    std::vector<std::string> observers; ///< predicted observing sources
    std::vector<TaintFinding> taintFindings; ///< program mode only
    ValidationResult validation;
    std::string detail;
};

/**
 * Statically analyze a registered gadget on @p profile, optionally
 * cross-validating against real execution on @p pool (pass nullptr to
 * skip validation). @p params are forwarded to GadgetRegistry::make.
 */
LeakageReport analyzeGadget(const std::string &name,
                            const std::string &profile,
                            const ParamSet &params, MachinePool *pool);

/**
 * Analyze a registered channel: the verdict of its underlying gadget,
 * stamped with the channel's name and modulation detail.
 */
LeakageReport analyzeChannel(const std::string &name,
                             const std::string &profile,
                             const ParamSet &params, MachinePool *pool);

/** A secret-annotated guest program for `analyze --program`. */
struct ProgramTarget
{
    std::string name;
    std::string description;
    Program program;
    TaintSpec spec; ///< the taint-source annotation
    std::map<Addr, std::int64_t> pokes; ///< initial memory words
    /** Concrete register assignments for the two polarities. */
    std::vector<std::pair<RegId, std::int64_t>> fastRegs, slowRegs;
    /** Per-polarity overrides of @ref pokes (memory-borne secrets). */
    std::map<Addr, std::int64_t> fastPokes, slowPokes;
    /**
     * N-valued secret domain for the capacity engine: when non-empty,
     * every secret source in @ref spec takes each of these values
     * (cartesian), generalizing the two-polarity pair above. The
     * classifier pipeline keeps using fast/slow; only `analyze
     * --capacity` enumerates this domain.
     */
    std::vector<std::int64_t> secretValues;
};

/** Taint + differential + validation for one annotated program. */
LeakageReport analyzeProgramTarget(const ProgramTarget &target,
                                   const std::string &profile,
                                   MachinePool *pool);

/** The built-in demo program targets (taint round-trip corpus). */
const std::vector<ProgramTarget> &programTargets();

/** Find a demo program by name; nullptr if absent. */
const ProgramTarget *findProgramTarget(const std::string &name);

/**
 * Default profile a target is analyzed under when the caller does not
 * pick one: the first profile in {default, plru, smt2, smt2_plru} the
 * gadget is compatible with.
 */
std::string defaultAnalysisProfile(const std::string &gadget);

/**
 * Memoized leakage class for a registered gadget under its default
 * analysis profile (no validation run). Used by the `hr_bench
 * gadgets`/`channels` listings to stamp every registry entry.
 */
std::string leakageClassFor(const std::string &gadget);

} // namespace hr

#endif // HR_ANALYSIS_LEAKAGE_HH
