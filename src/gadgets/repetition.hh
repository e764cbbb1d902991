/**
 * @file
 * Repetition gadgets (paper sections 2.3 and 7.1).
 *
 * A repetition gadget runs a staged attack many times, accumulating the
 * per-stage timing so the total becomes visible to a coarse timer. The
 * paper shows this can fail: a stage whose timing anti-correlates with
 * the signal (e.g. the victim-load stage of flush+reload) cancels the
 * accumulated difference. Wrapping that stage in a racing gadget whose
 * baseline outlasts it makes the stage constant-time and restores the
 * signal (Fig. 7).
 */

#ifndef HR_GADGETS_REPETITION_HH
#define HR_GADGETS_REPETITION_HH

#include <string>
#include <vector>

#include "gadgets/path.hh"
#include "gadgets/timing_source.hh"

namespace hr
{

/** Per-stage accumulated cycles over all rounds. */
struct StageBreakdown
{
    std::vector<std::string> names;
    std::vector<Cycle> cycles;

    Cycle total() const;
    /** Stage share of the total, in percent. */
    double percent(std::size_t stage) const;
};

/**
 * Runs a sequence of stage programs round-robin for a number of rounds,
 * accumulating per-stage cycles.
 */
class RepetitionGadget
{
  public:
    /** Stage: a program plus a per-round setup hook (may be empty). */
    struct Stage
    {
        std::string name;
        Program program;
        std::function<void(Machine &)> setup; ///< run before each round
    };

    RepetitionGadget(Machine &machine, std::vector<Stage> stages);

    /** Execute `rounds` rounds; returns accumulated per-stage cycles. */
    StageBreakdown run(int rounds);

  private:
    Machine &machine_;
    std::vector<Stage> stages_;
};

/**
 * Wrap a payload expression in a constant-time racing envelope: the
 * payload races a baseline path longer than the payload's worst case,
 * so the envelope's duration is the baseline's regardless of the
 * payload's cache behaviour (section 7.1's fix).
 */
Program makeConstantTimeStage(const TargetExpr &payload, Opcode ref_op,
                              int ref_ops, Addr sync_addr,
                              const std::string &name = "const_stage");

/** Line layout of the flush+reload round (paper section 7.1, Fig. 7). */
struct FlushReloadStages
{
    Addr probeAddr = 0x600'0000; ///< the shared line being probed
    Addr otherAddr = 0x608'0000; ///< victim's alternative (kept warm)
    Addr syncAddr = 0x100'0000;  ///< for the racing envelope
    int envelopeOps = 260;       ///< baseline > worst-case load time
};

/**
 * Build the evict / victim-load / reload repetition gadget of Fig. 7.
 * @p same_addr selects which line the victim stage touches; @p racing
 * hides the load stage inside a constant-time racing envelope.
 */
RepetitionGadget makeFlushReloadGadget(Machine &machine,
                                       const FlushReloadStages &stages,
                                       bool same_addr, bool racing);

/** Configuration of the repetition TimingSource. */
struct RepetitionSourceConfig
{
    int rounds = 200;         ///< flush+reload rounds per observation
    bool racing = true;       ///< hide the load stage in a racing envelope
    FlushReloadStages stages; ///< line layout and envelope length
};

/**
 * The flush+reload repetition harness as a TimingSource (registry
 * name repetition). secret == true: the victim touches a *different*
 * line, so every reload stage misses. The per-stage cycle breakdown
 * rides in TimingSample::aux. With racing == false the two states are
 * designed to be inseparable (the paper's cancellation failure), so
 * calibration is lenient.
 */
class RepetitionSource : public TimingSource
{
  public:
    RepetitionSource(Machine &machine, const RepetitionSourceConfig &config)
        : TimingSource(machine), config_(config)
    {
    }

    std::string name() const override { return "repetition"; }
    void calibrate() override;
    TimingSample sample(bool secret) override;

  private:
    RepetitionSourceConfig config_;
    Calibration calibration_;
    bool calibrated_ = false;

    TimingSample observe(bool secret);
};

} // namespace hr

#endif // HR_GADGETS_REPETITION_HH
