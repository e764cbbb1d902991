/**
 * @file
 * Machine: the persistent attacker-visible execution environment.
 *
 * Owns a core, a cache hierarchy, a memory image, and a branch
 * predictor, all of which keep state across run() calls — which is how
 * successive "JavaScript function invocations" (training, racing,
 * magnifying, probing) interact through the microarchitecture.
 *
 * A machine may expose several SMT-style hardware execution contexts
 * (MachineConfig::contexts): run() executes on context 0 while
 * registered background programs (setBackground) co-run on theirs,
 * and coRun() interleaves explicit co-runners — all deterministically.
 *
 * Programs are executed through a DecodedProgram image resolved by a
 * per-configuration DecodeCache (shareable across a MachinePool). The
 * state-shaping harness operations can be recorded into a TrialTrace,
 * which the static leakage analyzer folds into a cache footprint
 * (see analysis/leakage.hh).
 */

#ifndef HR_SIM_MACHINE_HH
#define HR_SIM_MACHINE_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cache/hierarchy.hh"
#include "core/branch_predictor.hh"
#include "core/ooo_core.hh"
#include "isa/program.hh"
#include "sim/decode_cache.hh"
#include "sim/trial_trace.hh"
#include "util/memory_image.hh"
#include "util/types.hh"

namespace hr
{

/** Full machine configuration. */
struct MachineConfig
{
    CoreConfig core;
    HierarchyConfig memory;
    double ghz = 2.0; ///< clock for cycle <-> nanosecond conversion

    /**
     * SMT-style hardware execution contexts sharing the core's issue
     * queue and functional units and the whole cache hierarchy. The
     * ROB is partitioned evenly; fetch/dispatch and commit bandwidth
     * are round-robin arbitrated. A single-context machine (the
     * default) is bit-identical to the pre-multi-context simulator.
     */
    int contexts = 1;

    /**
     * Effective-window profile used by the racing-granularity
     * experiments (Fig. 8/9): a small ROB models the paper's
     * JIT-expanded "54 JS ops" window (see EXPERIMENTS.md).
     */
    static MachineConfig effectiveWindowProfile();

    /** Default Coffee-Lake-like profile. */
    static MachineConfig defaultProfile();

    /** Profile with memory-latency jitter enabled (noisy system). */
    static MachineConfig noisyProfile(std::uint64_t seed = 7);

    /**
     * 4-way tree-PLRU L1 (same 32KB capacity, 128 sets): the paper's
     * W = 4 example configuration for the PLRU magnifier gadgets.
     */
    static MachineConfig plruProfile();

    /** Random-replacement 8-way L1 (section 6.3's configuration). */
    static MachineConfig randomL1Profile(std::uint64_t seed = 5);

    /** Enable periodic timer interrupts (default 4 ms, as in Fig. 12). */
    MachineConfig &withInterrupts(double interval_ms = 4.0);

    /** Set the hardware-context count (fluent helper). */
    MachineConfig &withContexts(int n);
};

/**
 * Deterministic fingerprint over every configuration field that can
 * influence simulated behaviour. Keys DecodeCache sharing: a cache
 * built for one configuration refuses machines of another.
 */
std::uint64_t machineConfigFingerprint(const MachineConfig &config);

/** The simulated machine. */
class Machine
{
  public:
    explicit Machine(const MachineConfig &config = {});

    /**
     * Deep copy of everything that persists across run() calls: cache
     * hierarchy (tag arrays, replacement state, in-flight fills,
     * per-context attribution and jitter streams), branch predictor,
     * memory image, and core counters/cycle (whole-core and
     * per-context). Move-only; restore any number of times.
     * Registered background programs are machine configuration, not
     * captured state: restore() neither adds nor removes them.
     *
     * Aliasing caveats (see EXPERIMENTS.md):
     *  - restore() rolls back machine state only: a TimingSource
     *    bound to this machine keeps whatever it built or calibrated,
     *    before the snapshot (the warm/calibrate-once use case) and
     *    also after it, even though the state a later calibration
     *    measured was rolled back.
     *  - Programs keep their assigned ids across a restore; ids are
     *    allocated from a process-wide counter that never rolls back,
     *    so a program first run after the snapshot keeps one stable
     *    (always initially cold) id across every restore — which is
     *    what makes restored runs bit-identical without id
     *    collisions.
     */
    class Snapshot
    {
      public:
        Snapshot() = default;
        Snapshot(Snapshot &&) = default;
        Snapshot &operator=(Snapshot &&) = default;

      private:
        friend class Machine;
        Hierarchy::Snapshot hierarchy;
        OooCore::Snapshot core;
        BranchPredictor predictor;
        MemoryImage memory;
    };

    /**
     * Capture the current state (between run() calls). Taking or
     * restoring a snapshot while a TrialTrace is being recorded marks
     * the trace opaque (it no longer describes one linear trial).
     */
    Snapshot snapshot();

    /**
     * Reset to a snapshotted state. The snapshot must come from a
     * machine with an identical configuration — normally this one.
     * Restoring the most recent snapshot of this machine only copies
     * back cache sets touched since (fast); anything else falls back
     * to a full deep copy.
     */
    void restore(const Snapshot &snap);

    const MachineConfig &config() const { return config_; }

    /** Number of hardware execution contexts. */
    int contexts() const { return config_.contexts; }

    MemoryImage &memory() { return memory_; }
    const MemoryImage &memory() const { return memory_; }
    Hierarchy &hierarchy() { return hierarchy_; }
    const Hierarchy &hierarchy() const { return hierarchy_; }
    OooCore &core() { return *core_; }
    BranchPredictor &predictor() { return predictor_; }

    /** Global cycle count. */
    Cycle now() const;

    /** Convert cycles to nanoseconds at the configured clock. */
    double toNs(Cycle cycles) const;
    double toUs(Cycle cycles) const { return toNs(cycles) / 1e3; }

    // ---- decoded-trace cache -------------------------------------------
    /** Fingerprint of this machine's configuration. */
    std::uint64_t configFingerprint() const { return fingerprint_; }

    /**
     * Resolve the shared decoded image for a program, assigning it a
     * process-unique id if it has none (or a fresh one if it was
     * mutated in place under its old id — see DecodeCache). run()
     * does this implicitly; exposed for cache-behaviour tests and the
     * decode_cache_hit perf suite.
     */
    std::shared_ptr<const DecodedProgram> decodeProgram(Program &program);

    /** The decode cache this machine resolves programs through. */
    const std::shared_ptr<DecodeCache> &decodeCache() const
    {
        return decodeCache_;
    }

    /**
     * Adopt a shared decode cache (MachinePool gives all its machines
     * one). The cache must carry this machine's config fingerprint.
     */
    void shareDecodeCache(const std::shared_ptr<DecodeCache> &cache);

    /**
     * Run a program to completion on context 0. Assigns the program an
     * id on first use (ids key branch-predictor state). If background
     * programs are registered (setBackground), they co-run on their
     * contexts for the duration — restarted fresh each call — and the
     * returned result is the primary context's attribution.
     */
    RunResult run(Program &program,
                  const std::vector<std::pair<RegId, std::int64_t>>
                      &initial_regs = {},
                  Cycle max_cycles = 500'000'000);

    /**
     * Run a program to completion on an arbitrary context. Contexts
     * other than @p ctx stay idle except for registered backgrounds.
     */
    RunResult run(ContextId ctx, Program &program,
                  const std::vector<std::pair<RegId, std::int64_t>>
                      &initial_regs = {},
                  Cycle max_cycles = 500'000'000);

    /**
     * Co-run driver: execute @p program on @p ctx together with
     * explicit per-context co-runners, all interleaved
     * deterministically (plus any registered backgrounds whose
     * contexts are free). Runs until the primary completes; co-runners
     * are then abandoned mid-flight like descheduled neighbors.
     */
    RunResult coRun(ContextId ctx, Program &program,
                    const std::vector<std::pair<ContextId, Program *>>
                        &extras,
                    const std::vector<std::pair<RegId, std::int64_t>>
                        &initial_regs = {},
                    Cycle max_cycles = 500'000'000);

    // ---- ambient background workloads (noisy neighbors) ---------------
    /**
     * Register a background program on a context (1..contexts-1). Every
     * subsequent run() co-runs a fresh restart of it, so the primary
     * workload always executes against the same co-resident activity.
     * The program is copied and immediately assigned a process-unique
     * id (the same collision-free allocator foreground programs use).
     * Backgrounds are machine configuration, not microarchitectural
     * state: restore() does not add or remove them.
     */
    void setBackground(ContextId ctx, Program program);

    /** Remove one registered background. */
    void clearBackground(ContextId ctx);

    /** Remove all registered backgrounds. */
    void clearBackgrounds();

    // ---- harness conveniences -----------------------------------------
    /** Write a word and (optionally) keep caches unaware (default). */
    void poke(Addr addr, std::int64_t value);
    std::int64_t peek(Addr addr) const;

    /** clflush-like line invalidation across all levels. */
    void flushLine(Addr addr);
    void flushAllCaches();

    /** Instantly install a line (setup helper; no timing). */
    void warm(Addr addr, int upto_level = 1);

    /** Highest cache level holding the line (0 = none). */
    int probeLevel(Addr addr) const;

    /**
     * Let all in-flight memory requests land (models the idle gap
     * between attacker function invocations). Probing cache state right
     * after a run without settling may miss still-pending fills.
     */
    void settle();

    /** Per-context access counters. */
    ContextAccessStats contextStats(ContextId ctx) const;

    /** Total misses at a cache level (1-3). */
    std::uint64_t cacheMisses(int level) const;

    /**
     * Reseed the hierarchy's jitter/replacement randomness streams with
     * this machine's configured seeds xor @p mix (the per-trial
     * decorrelation scenarios use; see ScenarioContext::reseedMachine).
     */
    void reseedNoise(std::uint64_t mix);

    // ---- trial recording (see trial_trace.hh) -------------------------
    /**
     * Start recording the state-shaping harness operations (run/coRun,
     * poke, warm, flushLine, flushAllCaches) into @p trace, which the
     * caller owns and must keep alive until endRecord(). The machine
     * still executes everything for real.
     */
    void beginRecord(TrialTrace &trace);

    /** Stop recording. */
    void endRecord();

  private:
    MachineConfig config_;
    std::uint64_t fingerprint_;
    MemoryImage memory_;
    Hierarchy hierarchy_;
    BranchPredictor predictor_;
    std::unique_ptr<OooCore> core_;
    std::shared_ptr<DecodeCache> decodeCache_;

    /** Registered background (noisy-neighbor) programs, by context. */
    struct Background
    {
        Program program;
        std::shared_ptr<const DecodedProgram> decoded;
    };
    std::map<ContextId, Background> backgrounds_;

    /** The trace being recorded into, if any. */
    TrialTrace *recording_ = nullptr;

    RunResult realRun(ContextId ctx, const DecodedProgram &decoded,
                      std::uint64_t program_id,
                      const std::vector<std::pair<RegId, std::int64_t>>
                          &initial_regs,
                      Cycle max_cycles);
    void markOpaque();
};

} // namespace hr

#endif // HR_SIM_MACHINE_HH
