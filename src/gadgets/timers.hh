/**
 * @file
 * The registry's "timer" sources: clocks an attacker reads directly,
 * as opposed to gadgets that encode or amplify.
 *
 *   coarse_timer    the bare quantized browser clock timing an op
 *                   chain — the threat-model baseline, and why
 *                   magnification is needed at all;
 *   smt_contention  a sibling context's counting progress over the
 *                   measured work is the reading (no clock API);
 *   l1_contention   a sibling context's attributed L1 misses over one
 *                   co-run read whether the primary touched its set.
 *
 * The two contention timers need a machine with >= 2 contexts.
 */

#ifndef HR_GADGETS_TIMERS_HH
#define HR_GADGETS_TIMERS_HH

#include <string>

#include "gadgets/timing_source.hh"
#include "timer/coarse_timer.hh"

namespace hr
{

/** Configuration of the coarse_timer source. */
struct CoarseTimerSourceConfig
{
    TimerConfig timer;             ///< the clock (ghz follows the machine)
    Opcode targetOp = Opcode::Add; ///< timed op chain
    int slowOps = 400;             ///< chain length, secret == true
    int fastOps = 10;              ///< chain length, secret == false
};

/**
 * The bare coarse clock timing an op chain directly. Failing to
 * separate the states is its expected behaviour at browser
 * resolutions, so calibration is lenient.
 */
class CoarseTimerSource : public TimingSource
{
  public:
    CoarseTimerSource(Machine &machine,
                      const CoarseTimerSourceConfig &config);

    std::string name() const override { return "coarse_timer"; }
    void calibrate() override;
    TimingSample sample(bool secret) override;

  private:
    CoarseTimerSourceConfig config_;
    CoarseTimer clock_;
    Calibration calibration_;
    bool calibrated_ = false;

    double observeNs(bool slow);
};

/** Configuration of the smt_contention timer. */
struct SmtContentionConfig
{
    Opcode targetOp = Opcode::Mul; ///< measured chain and counter op
    int slowOps = 48;              ///< measured chain, secret == true
    int fastOps = 16;              ///< measured chain, secret == false
    int counterUnroll = 8;         ///< counter ops per loop iteration
};

/**
 * SMT port-pressure progress timer. Instead of reading any clock, the
 * attacker co-runs a counting thread on a sibling hardware context;
 * how far the counter progressed while the measured work ran IS the
 * time reading (TimingSample::ns carries the count).
 */
class SmtContentionTimer : public TimingSource
{
  public:
    SmtContentionTimer(Machine &machine, const SmtContentionConfig &config);

    std::string name() const override { return "smt_contention"; }
    void calibrate() override;
    TimingSample sample(bool secret) override;

  private:
    Program measured_[2]; ///< [fast, slow]
    Program counter_;
    Calibration calibration_;
    bool calibrated_ = false;

    double observeCount(bool slow);
};

/** Configuration of the l1_contention timer. */
struct L1ContentionConfig
{
    int set = 5;         ///< the L1 set the probe keeps resident
    int evictLines = 0;  ///< primary's conflicting lines; 0 = L1 assoc
    int repeats = 4;     ///< evict + window rounds per observation
    int windowOps = 200; ///< ALU padding per round (probe reaction time)
};

/**
 * L1 set-occupancy timer. A sibling context keeps one L1 set resident
 * and counts its own (attributed) misses; the primary either evicts
 * that set or leaves it alone, so the sibling's miss count reads out
 * the secret (TimingSample::ns carries the count).
 */
class L1ContentionTimer : public TimingSource
{
  public:
    L1ContentionTimer(Machine &machine, const L1ContentionConfig &config);

    std::string name() const override { return "l1_contention"; }
    void calibrate() override;
    TimingSample sample(bool secret) override;

  private:
    int set_;
    Program primary_[2]; ///< [fast, slow]
    Program probe_;
    Calibration calibration_;
    bool calibrated_ = false;

    Addr lineFor(int set, int tag) const;
    double observeMisses(bool slow);
};

} // namespace hr

#endif // HR_GADGETS_TIMERS_HH
