/**
 * @file
 * Pipeline: a composed attack stack of TimingSource stages.
 *
 * Zero or more encoder stages feed one final amplifier stage, read
 * with the coarse browser clock — the way the paper stacks racing
 * gadgets, repetition, and magnifiers in Figs. 7-11. The registry
 * ships two (hacky_pipeline: pa_race -> plru_pa_magnifier;
 * reorder_pipeline: reorder_race -> plru_reorder_magnifier); compose
 * your own with then() — any encoder source can feed any amplifier
 * source whose input is a cache line, as long as all stages are bound
 * to the pipeline's machine.
 */

#ifndef HR_GADGETS_PIPELINE_HH
#define HR_GADGETS_PIPELINE_HH

#include <memory>
#include <string>
#include <vector>

#include "gadgets/timing_source.hh"
#include "timer/coarse_timer.hh"

namespace hr
{

/** Configuration of a Pipeline's readout. */
struct PipelineConfig
{
    /**
     * Repetitions per observation: the amplified duration accumulates
     * across rounds (the repetition composition of section 7.1).
     */
    int rounds = 1;
    TimerConfig timer; ///< the coarse clock (ghz follows the machine)
};

/** A composed encoder(s) -> amplifier stack read with a coarse clock. */
class Pipeline : public TimingSource
{
  public:
    /** An empty stack; @p name "" derives one from the stage names. */
    explicit Pipeline(Machine &machine, std::string name = "",
                      const PipelineConfig &config = {});

    /**
     * Append a stage bound to the same machine; all but the last must
     * be encoders and the last an amplifier.
     */
    Pipeline &then(std::unique_ptr<TimingSource> stage);

    std::string name() const override;
    void calibrate() override;
    TimingSample sample(bool secret) override;

  private:
    std::string name_;
    std::vector<std::unique_ptr<TimingSource>> stages_;
    int rounds_;
    CoarseTimer clock_;
    Calibration calibration_;
    bool calibrated_ = false;

    TimingSource &amplifier() const;
    double observeNs(bool present);
};

} // namespace hr

#endif // HR_GADGETS_PIPELINE_HH
