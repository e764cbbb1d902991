/**
 * @file
 * Lockstep steady-state fast-forward for the out-of-order core.
 *
 * The pooled experiment paths spend almost all their cycles inside
 * gadget loops whose pipeline behaviour settles into an exact period:
 * every loop iteration issues the same ops on the same relative cycles,
 * touching the same cache sets, with only a handful of values (the
 * induction registers) sliding by a constant per iteration. This engine
 * detects that situation *provably* and then applies the remaining
 * iterations in closed form — counters, register file, ROB payloads,
 * event/ready queues, functional-unit reservations, in-flight fills and
 * memory words are all shifted by k times their learned per-period
 * deltas — instead of simulating them cycle by cycle.
 *
 * Soundness contract (bit-identity with scalar execution):
 *  - An anchor is a committed backward taken branch pc seen on several
 *    consecutive backward-taken-branch commits. Loop tops following an
 *    anchor commit are period boundaries.
 *  - Three consecutive boundary captures must be structurally equal and
 *    equal modulo one learned affine delta per numeric field (two
 *    independent delta observations must agree).
 *  - The two full periods between them must replay the same op
 *    sequence, and every issued op (including transient ones) must be
 *    of a shape whose outputs provably shift by the observed deltas
 *    when its inputs do (see opRuleOk) — so the extrapolation is an
 *    exact fixed point of the step function, not a statistical guess.
 *  - Nothing in the period may consume randomness, train the branch
 *    predictor, or evict from the (inclusive) L3 — each would let state
 *    escape the captured signature. The engine refuses otherwise.
 *  - Conditional branches bound the skip: the smallest number of
 *    periods after which any branch input reaches zero (computed in
 *    closed form modulo 2^64) caps k strictly below the first flip.
 *
 * The engine is a pure speed knob: CoreConfig::lockstep only gates it,
 * and every refusal path falls back to ordinary simulation.
 */

#ifndef HR_CORE_LOCKSTEP_HH
#define HR_CORE_LOCKSTEP_HH

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "core/ooo_core.hh"

namespace hr
{

class LockstepEngine
{
  public:
    explicit LockstepEngine(OooCore &core);

    /**
     * Decide eligibility for the run that is about to enter runLoop
     * (single active context, interrupts disabled) and arm the
     * watch/record flags on the core accordingly.
     */
    void beginRun(ContextId primary, Cycle deadline);

    /** Disarm and release per-run record storage. */
    void endRun();

    // ---- hooks (call sites in ooo_core.cc, guarded by the core's
    // lockstepWatch_/lockstepRec_ bools so disabled runs pay one
    // branch per hook) ----

    /** Committed backward taken branch at @p pc (anchor detection). */
    void onAnchor(std::int32_t pc);

    /** Top of the runLoop iteration; may fast-forward cycle_ et al. */
    void onLoopTop();

    /** Any instruction committing (records the period's commit tape). */
    void recordCommit(const OooCore::RobEntry &head);

    /** Any instruction issuing, transient ones included. */
    void recordIssue(const OooCore::RobEntry &entry);

    /** A load completing with its final value bound. */
    void recordLoadComplete(const OooCore::RobEntry &entry);

    /** A hierarchy access was accepted at the current cycle. */
    void recordAccess(Addr addr);

  private:
    // ---- period records ----
    struct IssueRec
    {
        std::int32_t pc;
        Opcode op;
        std::uint64_t value;
        std::uint64_t src0, src1;
        Addr ea;
        std::uint8_t eaValid;
    };
    struct LoadRec
    {
        std::int32_t pc;
        Addr ea;
        std::uint64_t value;
    };
    struct CommitRec
    {
        std::int32_t pc;
        Opcode op;
        Addr ea;            ///< stores only
        std::uint64_t value; ///< stores only
    };
    struct AccessRec
    {
        Addr addr;
        Cycle rel; ///< cycles since the period boundary
    };
    struct PeriodRec
    {
        std::vector<IssueRec> issues;
        std::vector<LoadRec> loads;
        std::vector<CommitRec> commits;
        std::vector<AccessRec> accesses;
        std::uint64_t loopIters = 0;
        void clear();
    };

    /**
     * Canonical loop-top capture: structural fields must match exactly
     * between boundaries; numeric fields may differ by one learned
     * affine delta each. ROB entries are addressed by partition index,
     * queue contents are canonicalized (sorted, dead references
     * dropped where provably inert), and all times/sequence numbers
     * are taken relative to the boundary's own clock/allocators.
     */
    struct Boundary
    {
        Cycle cycle = 0;
        std::uint64_t nextSeq = 0, readyStamp = 0;
        std::uint32_t dispatchRotate = 0, commitRotate = 0;
        std::vector<std::int64_t> regfile;
        // ROB structure-of-arrays, indexed by position in the deque.
        std::vector<std::int32_t> robPc;
        std::vector<std::uint8_t> robMeta; ///< status|eaValid|pred|fwd|pend
        std::vector<std::uint64_t> robSeqRel;
        std::array<std::vector<std::uint64_t>, 3> robSrc;
        std::array<std::vector<std::uint64_t>, 3> robProdRel;
        std::vector<std::uint64_t> robValue;
        std::vector<Addr> robEa;
        std::vector<std::vector<std::pair<std::int32_t, std::uint64_t>>>
            robConsumers; ///< live (consumer rob index, seqRel), in order
        std::vector<std::int32_t> rename; ///< rob index or -1
        std::int32_t fetchPc = 0;
        Cycle fetchStallRel = 0; ///< saturated at 0 (past == now)
        std::int32_t inflightStores = 0, inflightBranches = 0,
                     iqOccupancy = 0;
        std::uint8_t robFullCounted = 0;
        /** Sorted (cycleRel, seqRel, robIdx). Any stale queue entry
         *  (squashed producer) aborts the capture: staleness is not
         *  stable under the seq shift a fast-forward applies. */
        std::vector<std::array<std::uint64_t, 3>> events;
        /** Sorted (keyRel, seqRel, robIdx) per FU class. */
        std::array<std::vector<std::array<std::uint64_t, 3>>, 6> ready;
        std::vector<std::pair<std::int32_t, std::uint64_t>> replay;
        std::array<std::vector<Cycle>, 6> fuRel; ///< saturated at 0
        std::uint64_t inflightSig = 0;
        std::uint64_t cacheSig = 0; ///< over the ended period's sets
        std::uint64_t rngDraws = 0;
        std::uint64_t predVersion = 0;
        bool hasCancelledFills = false;
        Hierarchy::CountersSample hier;
        PerfCounters counters, ctxCounters;
    };

    static constexpr int kAnchorStreak = 4;
    static constexpr int kMaxFailures = 12;
    static constexpr std::size_t kMaxPeriodOps = 4096;
    static constexpr std::uint64_t kUnbounded = ~std::uint64_t{0};

    void giveUp();
    void startPeriod();
    void finalizeBoundary();
    std::optional<Boundary> capture() const;
    static bool structuralEqual(const Boundary &a, const Boundary &b);
    std::uint64_t cacheSigOver(const PeriodRec &rec) const;
    bool recordsEqual(const PeriodRec &a, const PeriodRec &b) const;
    /** Verify the 3-capture window; on success returns the skip count. */
    std::optional<std::uint64_t> verify() const;
    void applyForward(std::uint64_t k);
    /** Periods until this branch record's input first hits zero. */
    static std::uint64_t branchFlipBound(std::uint64_t v, std::uint64_t d);

    OooCore &core_;

    // ---- per-run state ----
    ContextId primary_ = 0;
    Cycle deadline_ = 0;
    std::int32_t anchorPc_ = -1;
    std::int32_t streakPc_ = -1;
    int streak_ = 0;
    int failures_ = 0;
    bool boundaryPending_ = false;
    bool recording_ = false; ///< records span full periods (post-anchor)
    Cycle periodStart_ = 0;
    PeriodRec cur_;
    /** (boundary, the period record that ENDED at it), oldest first. */
    std::deque<std::pair<Boundary, PeriodRec>> window_;
};

} // namespace hr

#endif // HR_CORE_LOCKSTEP_HH
