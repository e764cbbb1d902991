/**
 * @file
 * HackyTimer: the end-to-end stealthy fine-grained timer.
 *
 * Composes the full pipeline of the paper: a transient P/A racing
 * gadget (section 5.1) converts "is the expression slower than the
 * reference path?" into presence/absence of one line; the PLRU
 * magnifier (section 6.1) stretches that into a duration readable with
 * a 5 microsecond browser clock. The only primitives used are loads,
 * arithmetic, a branch, and the coarse timer — exactly the threat
 * model's allowance.
 */

#ifndef HR_GADGETS_HACKY_TIMER_HH
#define HR_GADGETS_HACKY_TIMER_HH

#include <memory>

#include "gadgets/plru_magnifier.hh"
#include "gadgets/racing.hh"
#include "timer/coarse_timer.hh"

namespace hr
{

/** HackyTimer configuration. */
struct HackyTimerConfig
{
    TimerConfig timer;          ///< the coarse clock available
    Opcode refOp = Opcode::Mul; ///< reference path operation
    int refOps = 10;            ///< reference path length (threshold)
    int magnifierRepeats = 0;   ///< 0 = auto from timer resolution
    int plruSet = 3;            ///< L1 set used by the magnifier
    int plruTagBase = 600;      ///< tag space for the magnifier lines
    Addr syncAddr = 0x100'0000;
    Addr trainAddr = 0x320'0000; ///< dummy timed address for training
    int trainRounds = 2;
};

/** Statistics a timer accumulates (for bit-rate style reporting). */
struct HackyTimerStats
{
    std::uint64_t queries = 0;
    Cycle cyclesSpent = 0;
};

/**
 * A one-shot comparator: "did this load take longer than the reference
 * path?" — which, with a suitable refOps, distinguishes an L1 hit from
 * an LLC hit or miss. Requires a machine with a 4-way tree-PLRU L1.
 *
 * As a TimingSource (registry name hacky_timer) sample(secret) times a
 * scratch line that is cold (secret) or L1-resident, and calibrates
 * itself on its first uncalibrated sample.
 */
class HackyTimer : public TimingSource
{
  public:
    HackyTimer(Machine &machine, const HackyTimerConfig &config);

    std::string name() const override { return "hacky_timer"; }

    const HackyTimerConfig &config() const { return config_; }
    const HackyTimerStats &stats() const { return stats_; }

    /**
     * Calibrate the coarse-time decision threshold by timing the
     * magnifier in both known states (attacker-feasible: they control
     * a scratch line's cache state).
     */
    void calibrate() override;

    /** Time the scratch line: cold if @p secret, else L1-resident. */
    TimingSample sample(bool secret) override;

    /** Threshold (ns of magnifier time) separating slow from fast. */
    double thresholdNs() const { return thresholdNs_; }

    /**
     * Measure: is loading @p target slower than the reference path?
     * Trains, primes, races, magnifies, and reads the coarse clock.
     * The target line is warmed as a side effect (the measurement
     * loads it), as with any timed reload.
     */
    bool loadIsSlow(Addr target);

    /**
     * Same measurement but for an arbitrary expression baked into its
     * own racing program (trains the new program's branch each call).
     */
    bool exprIsSlow(const TargetExpr &expr);

  private:
    static constexpr Addr kScratch = 0x500'0000;

    HackyTimerConfig config_;
    CoarseTimer coarse_;
    PlruMagnifierConfig magConfig_;
    std::unique_ptr<PlruMagnifier> magnifier_;
    std::unique_ptr<TransientPaRace> race_;
    double thresholdNs_ = -1.0;
    HackyTimerStats stats_;

    int autoRepeats() const;
    double magnifyAndTime();
    bool decide(double observed_ns);
};

} // namespace hr

#endif // HR_GADGETS_HACKY_TIMER_HH
