/**
 * @file
 * Cycle-level out-of-order core model with SMT-style hardware contexts.
 *
 * Models exactly the mechanisms Hacky Racers exploits:
 *  - instruction-level parallelism between data-independent paths;
 *  - a finite reorder buffer whose capacity bounds the race window;
 *  - transient execution past predicted branches, with squash on
 *    mispredict — but cache fills of squashed loads persist;
 *  - functional units with latency and initiation-interval contention;
 *  - MSHR-limited memory-level parallelism;
 *  - periodic timer interrupts that drain the pipeline (the mechanism
 *    behind Fig. 12's saturation);
 *  - N hardware execution contexts sharing the issue queue, functional
 *    units, and memory hierarchy, with round-robin fetch/dispatch and
 *    commit arbitration and statically partitioned ROB capacity — the
 *    environment the paper's contention timing sources and
 *    noisy-neighbor sweeps run in.
 *
 * A single-context core (the default) behaves bit-identically to the
 * pre-multi-context model: every arbitration loop degenerates to the
 * legacy single-stream order.
 *
 * The cycle loop is event-skipping: idle stretches (e.g. a 200-cycle
 * memory stall) are jumped over, so cost scales with instruction count.
 */

#ifndef HR_CORE_OOO_CORE_HH
#define HR_CORE_OOO_CORE_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <queue>
#include <vector>

#include "cache/hierarchy.hh"
#include "core/branch_predictor.hh"
#include "core/func_unit.hh"
#include "isa/decoded_program.hh"
#include "isa/program.hh"
#include "util/memory_image.hh"
#include "util/types.hh"

namespace hr
{

/** Core microarchitectural parameters (defaults: Coffee-Lake-like). */
struct CoreConfig
{
    int fetchWidth = 4;
    int issueWidth = 8;
    int commitWidth = 4;
    int robSize = 224;
    /**
     * Issue-queue (scheduler) capacity. 0 means "same as robSize" —
     * the model's default simplification; set explicitly to study
     * scheduler-bound behaviour. The IQ is shared between hardware
     * contexts (the ROB is partitioned).
     */
    int iqSize = 0;

    FuConfig intAlu{4, 1, 1};
    FuConfig intMul{1, 3, 1};
    FuConfig fpDiv{1, 12, 4};   ///< not fully pipelined (DIVSD-like)
    FuConfig memRead{2, 1, 1};  ///< load ports; latency from hierarchy
    FuConfig memWrite{1, 1, 1};
    FuConfig branchU{2, 1, 1};

    Cycle mispredictPenalty = 12; ///< redirect bubble after resolution

    /**
     * Issue arbitration within a functional-unit class:
     * true  = first-come-first-served by wakeup order (select-on-wakeup
     *         schedulers; the model under which section 6.4's divider
     *         chain reaction operates),
     * false = strict oldest-first by program order.
     */
    bool readyOrderIssue = true;

    /**
     * Delay-on-miss Spectre defence (Sakalis et al., modelled per the
     * paper's section 8 discussion): a load that would miss the L1 is
     * held until it is no longer speculative (no unresolved older
     * branch). Defeats the transient P/A racing gadget; the
     * non-transient reorder gadget is untouched — the paper's point.
     */
    bool delayOnMiss = false;

    /** Timer-interrupt interval in cycles; 0 disables. */
    Cycle interruptInterval = 0;
    /** Cycles consumed servicing an interrupt after the drain. */
    Cycle interruptOverhead = 2000;

    /**
     * Lockstep steady-state fast-forward: when a single-context run
     * settles into a provably periodic loop (same committed anchor
     * branch, byte-equivalent pipeline state at consecutive loop tops
     * modulo learned affine deltas, no randomness consumed), the
     * remaining iterations are applied in closed form instead of being
     * simulated cycle by cycle. Bit-identical to scalar execution by
     * construction — the engine refuses whenever it cannot prove the
     * extrapolation exact — so this is a pure speed knob and is
     * deliberately EXCLUDED from machineConfigFingerprint (machines
     * with either setting share pool snapshots and decode caches).
     */
    bool lockstep = true;

    int effectiveIqSize() const { return iqSize > 0 ? iqSize : robSize; }
};

/** Counters observable by experiments and the detector (section 8). */
struct PerfCounters
{
    std::uint64_t cycles = 0;
    std::uint64_t committedInstrs = 0;
    std::uint64_t committedLoads = 0;
    std::uint64_t committedStores = 0;
    std::uint64_t squashedInstrs = 0;
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t interrupts = 0;
    std::uint64_t issuedByClass[6] = {};
    std::uint64_t noCommitCycles = 0; ///< busy cycles with no commit
    std::uint64_t robFullStalls = 0;  ///< dispatch cycles lost to ROB-full

    PerfCounters operator-(const PerfCounters &o) const;
    double ipc() const;
};

/** Outcome of one Program execution. */
struct RunResult
{
    Cycle startCycle = 0;
    Cycle endCycle = 0;
    bool halted = false;
    /**
     * Counter delta attributed to the executed program's own context.
     * For a single-context run this equals the whole-core delta; in a
     * co-run it excludes the co-runners' work (cycles still measure
     * elapsed core time).
     */
    PerfCounters counters;

    Cycle cycles() const { return endCycle - startCycle; }
};

/**
 * One (context, program) pairing handed to OooCore::coRun. The core
 * executes from the decoded image (see isa/decoded_program.hh); the
 * program id travels separately because content-identical programs
 * share one decoded image while keeping distinct predictor state.
 */
struct ContextProgram
{
    ContextId ctx = 0;
    const DecodedProgram *decoded = nullptr;
    std::uint64_t programId = 0;
    std::vector<std::pair<RegId, std::int64_t>> initialRegs;
};

/**
 * The out-of-order core. Owns pipeline state; borrows the memory
 * hierarchy, memory image, and branch predictor from the Machine so
 * microarchitectural state persists across program executions (which is
 * how training and attack phases interact).
 */
class OooCore
{
  public:
    OooCore(const CoreConfig &config, Hierarchy &hierarchy,
            MemoryImage &memory, BranchPredictor &predictor,
            int contexts = 1);
    ~OooCore(); // out of line: LockstepEngine is incomplete here

    /**
     * The core state that persists across run() calls: global time,
     * cumulative whole-core and per-context counters, the instruction
     * sequence stream, and functional-unit reservations (which can
     * extend past a run's end). Per-run pipeline state (ROBs, queues)
     * is rebuilt by the run entry points and never needs capturing —
     * snapshots are taken between runs by construction (run() and
     * coRun() are synchronous).
     */
    struct Snapshot
    {
        Cycle cycle = 0;
        Cycle nextInterrupt = 0;
        PerfCounters counters;
        std::vector<PerfCounters> ctxCounters;
        std::uint64_t nextSeq = 0;
        std::uint64_t readyStamp = 0;
        std::vector<Cycle> reservations[6];
    };

    Snapshot snapshot() const;
    void restore(const Snapshot &snap);

    const CoreConfig &config() const { return config_; }

    /** Number of hardware contexts. */
    int contexts() const { return static_cast<int>(ctxs_.size()); }

    /** ROB entries statically reserved for each context. */
    int robPartition() const { return robPartition_; }

    /** Global cycle counter (monotonic across runs). */
    Cycle cycle() const { return cycle_; }

    /** Cumulative whole-core counters (monotonic across runs). */
    const PerfCounters &counters() const { return counters_; }

    /** Cumulative counters attributed to one context. */
    const PerfCounters &contextCounters(ContextId ctx) const;

    /** Architectural registers of one context as its last run left them. */
    const std::vector<std::int64_t> &committedRegs(ContextId ctx) const;

    /** Lockstep fast-forward accounting, cumulative across runs. */
    struct LockstepSummary
    {
        std::uint64_t forwards = 0;       ///< successful fast-forwards
        std::uint64_t skippedPeriods = 0; ///< loop periods applied closed-form
        std::uint64_t skippedCycles = 0;  ///< cycles applied closed-form
        std::uint64_t refusals = 0;       ///< failed window verifications
    };

    /** All zeros until the first eligible run constructs the engine. */
    LockstepSummary lockstepSummary() const;

    /**
     * Execute a decoded program to completion (Halt commit or natural
     * end) on context 0, with every other context idle.
     *
     * @param decoded    decoded code to run (see Machine::decodeProgram)
     * @param program_id  assigned Program::id (keys predictor state)
     * @param initial_regs  values for registers before the first
     *                      instruction; all others start at zero
     * @param max_cycles    safety limit for this run
     */
    RunResult run(const DecodedProgram &decoded, std::uint64_t program_id,
                  const std::vector<std::pair<RegId, std::int64_t>>
                      &initial_regs = {},
                  Cycle max_cycles = 500'000'000);

    /** run() on an arbitrary context (the others stay idle). */
    RunResult runOn(ContextId ctx, const DecodedProgram &decoded,
                    std::uint64_t program_id,
                    const std::vector<std::pair<RegId, std::int64_t>>
                        &initial_regs = {},
                    Cycle max_cycles = 500'000'000);

    /**
     * Co-run: execute @p primary together with @p backgrounds, each on
     * its own hardware context, interleaved deterministically through
     * the shared pipeline. Runs until the primary program completes;
     * background contexts are then abandoned mid-flight (their
     * committed architectural effects and any in-flight cache fills
     * persist — a descheduled noisy neighbor, not a rollback).
     * Background programs that finish early simply leave their context
     * idle. Returns the primary's per-context result.
     */
    RunResult coRun(const ContextProgram &primary,
                    const std::vector<ContextProgram> &backgrounds,
                    Cycle max_cycles = 500'000'000);

  private:
    enum class Status : std::uint8_t { Waiting, Ready, Issued, Completed };

    struct RobEntry
    {
        std::uint64_t seq = 0;
        std::int32_t pc = 0;
        ContextId ctx = 0;
        /**
         * Into the owning context's DecodedProgram (which the Machine
         * keeps alive for the duration of the run). Entries are
         * recycled at run end, so neither pointer outlives the image.
         */
        const Instruction *inst = nullptr;
        const DecodedOp *dop = nullptr;
        Status status = Status::Waiting;
        int pendingSrcs = 0;
        std::int64_t srcVal[3] = {0, 0, 0};
        std::uint64_t srcProducer[3]; ///< kNoSeq when value captured
        std::int64_t value = 0;
        Addr ea = 0;
        bool eaValid = false;
        bool predictedTaken = false;
        bool forwarded = false;
        /**
         * Waiting dependents as (entry, seq-at-registration) pairs.
         * Entries are pool-recycled, never freed, so the pointer is
         * always dereferenceable; a seq mismatch means the consumer
         * was squashed (and possibly reused) — skip it.
         */
        std::vector<std::pair<RobEntry *, std::uint64_t>> consumers;
    };

    static constexpr std::uint64_t kNoSeq = ~std::uint64_t{0};

    struct Event
    {
        Cycle cycle;
        std::uint64_t seq;
        RobEntry *entry;
        bool operator>(const Event &o) const
        {
            if (cycle != o.cycle)
                return cycle > o.cycle;
            return seq > o.seq;
        }
    };

    /**
     * Architectural and pipeline-front-end state of one hardware
     * context. The cumulative counters persist across runs (and are
     * snapshotted); everything else is per-run and rebuilt by
     * startContext.
     */
    struct CtxState
    {
        PerfCounters counters; ///< cumulative, persists across runs

        // --- per-run state ---
        const DecodedProgram *decoded = nullptr;
        std::uint64_t programId = 0;
        bool active = false; ///< started and not yet finished/aborted
        bool halted = false;
        std::vector<std::int64_t> regfile;
        std::vector<RobEntry *> renameTable;
        /**
         * This context's reorder-buffer partition. Entries hold an
         * increasing (globally interleaved) seq sequence: dispatch
         * appends, commit pops the front, squash pops the back.
         */
        std::deque<std::unique_ptr<RobEntry>> rob;
        std::int32_t fetchPc = 0;
        Cycle fetchStallUntil = 0;
        int inflightStores = 0;
        int inflightBranches = 0;
        bool robFullCounted = false; ///< per-dispatch-call stall latch
    };

    // --- configuration and borrowed machine state ---
    CoreConfig config_;
    Hierarchy &hierarchy_;
    MemoryImage &memory_;
    BranchPredictor &predictor_;

    // --- global time ---
    Cycle cycle_ = 0;
    Cycle nextInterrupt_ = 0;
    PerfCounters counters_;

    // --- shared pipeline state ---
    std::vector<CtxState> ctxs_;
    int robPartition_ = 0; ///< robSize / contexts
    /** Recycled RobEntry storage (bounded by robSize). */
    std::vector<std::unique_ptr<RobEntry>> entryPool_;
    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
        events_;
    /** Ready instructions per class, keyed by arbitration priority. */
    struct ReadyItem
    {
        std::uint64_t key;
        std::uint64_t seq;
        RobEntry *entry;
        bool operator>(const ReadyItem &o) const
        {
            if (key != o.key)
                return key > o.key;
            return seq > o.seq;
        }
    };
    std::priority_queue<ReadyItem, std::vector<ReadyItem>,
                        std::greater<ReadyItem>>
        readyQueue_[6];
    std::uint64_t readyStamp_ = 0;
    /** Memory-op retries as (entry, seq) pairs (see consumers). */
    std::vector<std::pair<RobEntry *, std::uint64_t>> replayQueue_;
    FuncUnitPool *pools_[6] = {};
    std::unique_ptr<FuncUnitPool> poolStorage_[6];
    std::uint64_t nextSeq_ = 0;
    bool draining_ = false;
    int iqOccupancy_ = 0;
    /** Round-robin arbitration cursors (reset at each run start). */
    std::uint32_t dispatchRotate_ = 0;
    std::uint32_t commitRotate_ = 0;

    /**
     * Steady-state loop fast-forward engine (see core/lockstep.hh).
     * Lazily constructed on the first eligible run; the two bools are
     * the hot-path guards so disabled runs pay one branch per hook.
     * lockstepWatch_: engine active this run (anchor detection on
     * committed backward taken branches). lockstepRec_: an anchor is
     * established and per-period records/boundary captures are live.
     */
    std::unique_ptr<class LockstepEngine> lockstep_;
    bool lockstepWatch_ = false;
    bool lockstepRec_ = false;
    friend class LockstepEngine;

    // --- pipeline stages (each returns true if it did work) ---
    bool processCompletions();
    bool issueStage();
    bool dispatchStage();
    bool commitStage();
    void serviceInterrupt();

    // --- helpers ---
    CtxState &ctxOf(const RobEntry &entry) { return ctxs_[entry.ctx]; }

    bool
    allRobsEmpty() const
    {
        for (const CtxState &c : ctxs_)
            if (!c.rob.empty())
                return false;
        return true;
    }

    bool anyRobNonEmpty() const { return !allRobsEmpty(); }

    bool
    fetchExhausted(const CtxState &c) const
    {
        return c.decoded == nullptr ||
               c.fetchPc >=
                   static_cast<std::int32_t>(c.decoded->size());
    }

    bool
    ctxDone(const CtxState &c) const
    {
        return c.halted || (c.rob.empty() && fetchExhausted(c));
    }
    std::unique_ptr<RobEntry> takeEntry();
    void recycleEntry(std::unique_ptr<RobEntry> entry);
    void markReady(RobEntry &entry);
    void resolveEaIfReady(RobEntry &entry);
    void wakeConsumers(RobEntry &producer);
    void resolveBranch(RobEntry &entry);
    void squashAfter(CtxState &c, std::uint64_t seq, std::int32_t new_pc);
    bool tryIssueMemOp(RobEntry &entry);
    bool fetchOne(CtxState &c);
    std::int64_t computeAlu(const RobEntry &entry) const;
    Addr computeEa(const RobEntry &entry) const;
    void resetPipeline();
    void startContext(ContextId ctx, const DecodedProgram &decoded,
                      std::uint64_t program_id,
                      const std::vector<std::pair<RegId, std::int64_t>>
                          &initial_regs);
    void abortContext(CtxState &c);
    void advanceTime(Cycle target);
    RunResult runLoop(ContextId primary, Cycle max_cycles);
    Cycle nextWakeCycle() const;
};

} // namespace hr

#endif // HR_CORE_OOO_CORE_HH
