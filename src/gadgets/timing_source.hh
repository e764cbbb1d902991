/**
 * @file
 * TimingSource: the one interface every timing primitive speaks.
 *
 * The paper's contribution is a *family* of interchangeable gadgets —
 * racing gadgets that encode "was this slower than the reference?"
 * into microarchitectural state, magnifiers that stretch that state
 * into coarse-clock-visible durations, repetition harnesses, and the
 * composed hacky timers. TimingSource gives them a common surface.
 * Every source is bound to one Machine at construction (the gadget
 * classes are the sources: PlruMagnifier, ArithMagnifier, HackyTimer,
 * ... keep their machine-bound constructors), and then offers:
 *
 *   - calibrate(): establish decision thresholds from the two known
 *     input states;
 *   - sample(secret): one complete observation of a secret bit,
 *     returning a TimingSample. The polarity convention is uniform:
 *     secret == true is the state that reads *slow*, so a working
 *     source satisfies sample(true) slower than sample(false) and,
 *     once calibrated, bit == secret.
 *
 * GadgetRegistry::make builds any source by name on a given machine
 * (or returns nullptr when the gadget cannot run there).
 *
 * Sources that can participate in composed attack pipelines
 * additionally implement the encoder/amplifier hooks (see Pipeline in
 * gadgets/pipeline.hh): an encoder writes the bit into cache state as
 * the presence/absence (or insertion order) of the amplifier's input
 * line(s); an amplifier primes its state, amplifies it into a long
 * duration, and can force either input state for calibration.
 */

#ifndef HR_GADGETS_TIMING_SOURCE_HH
#define HR_GADGETS_TIMING_SOURCE_HH

#include <string>
#include <utility>
#include <vector>

#include "sim/machine.hh"
#include "timer/calibration.hh"

namespace hr
{

/** One observation produced by a TimingSource. */
struct TimingSample
{
    Cycle cycles = 0;  ///< raw duration of the observation
    double ns = 0.0;   ///< duration as the source's clock reports it
    bool bit = false;  ///< decoded secret guess (valid after calibrate)

    /** Source-specific extras, e.g. per-stage cycle breakdowns. */
    std::vector<std::pair<std::string, double>> aux;

    double auxValue(const std::string &key, double def = 0.0) const;
};

/**
 * Fast/slow polarity measurement summary (see measurePolarities):
 * per-trial means of the raw cycle cost and of the source's own
 * reading (ns for clock-based sources, counts for contention timers),
 * plus the decoded-bit accuracy over all 2 x trials samples.
 */
struct PolarityStats
{
    double fastCycles = 0;  ///< mean sample cycles, secret == false
    double slowCycles = 0;  ///< mean sample cycles, secret == true
    double fastReading = 0; ///< mean TimingSample::ns, secret == false
    double slowReading = 0; ///< mean TimingSample::ns, secret == true
    int correct = 0;        ///< samples whose bit matched the secret
    int trials = 0;         ///< trials per polarity

    double
    accuracy() const
    {
        return trials > 0
                   ? static_cast<double>(correct) / (2.0 * trials)
                   : 0.0;
    }
};

class TimingSource;

/**
 * The standard accuracy protocol shared by `hr_bench sweep` and the
 * accuracy scenarios: @p trials rounds of one fast (secret == false)
 * then one slow (secret == true) observation, against a source that
 * has already been calibrated.
 */
PolarityStats measurePolarities(TimingSource &source, int trials);

/** The unified gadget abstraction, bound to one machine. */
class TimingSource
{
  public:
    explicit TimingSource(Machine &machine) : machine_(machine) {}
    virtual ~TimingSource() = default;

    /** The machine this source runs on. */
    Machine &machine() const { return machine_; }

    /** Registry-stable identifier, e.g. "plru_pa_magnifier". */
    virtual std::string name() const = 0;

    /** Establish decision thresholds. Default: nothing to calibrate. */
    virtual void calibrate() {}

    /** One complete observation of @p secret (true = slow state). */
    virtual TimingSample sample(bool secret) = 0;

    // ---- pipeline composition hooks -------------------------------
    //
    // Defaults refuse: a source advertises a role by overriding the
    // corresponding is*() predicate together with its hooks. One
    // pipeline observation runs, per round:
    //
    //   encoder.primeEncoder()   (training; may pollute the target)
    //   amplifier.prepare()      (prime the magnifier state)
    //   encoder.transmit()       (the attack run: write the bit)
    //   amplifier.amplify()      (stretch the state, read the clock)
    //
    // The bit travels as the presence/absence (or, for order-encoded
    // amplifiers, primary-before-secondary insertion order) of the
    // amplifier's input line(s): transmit(true) makes the primary
    // line present / first.

    /** True if this source can encode a bit into cache state. */
    virtual bool isEncoder() const { return false; }

    /** True if this source can amplify cache state into a duration. */
    virtual bool isAmplifier() const { return false; }

    /**
     * Encoder: target the amplifier's input line(s). @p primary is the
     * line whose presence/order carries the bit; @p secondary is the
     * counterpart line for order-encoded amplifiers (0 if unused).
     */
    virtual void bindTarget(Addr primary, Addr secondary);

    /**
     * Encoder: per-observation training for the @p present polarity
     * (runs before the amplifier primes, because training may pollute
     * the target line).
     */
    virtual void primeEncoder(bool present);

    /**
     * Encoder: the attack run. @p present selects the target state to
     * write: primary line present (or inserted first).
     */
    virtual void transmit(bool present);

    /** Amplifier: prime the magnifier state (before each transmit). */
    virtual void prepare();

    /** Amplifier: the input line(s) an encoder should target. */
    virtual std::pair<Addr, Addr> inputLines();

    /** Amplifier: does a *present* (or first-inserted) input read slow? */
    virtual bool presentMeansSlow() const { return true; }

    /** Amplifier: directly force the slow/fast input state. */
    virtual void forceInput(bool slow);

    /** Amplifier: stretch the current state into a duration. */
    virtual Cycle amplify();

  protected:
    Machine &machine_;
};

/**
 * Base of the amplifier-role sources (the magnifiers): calibrate and
 * sample are defined once over the amplifier hooks — prime, force the
 * input state, amplify — so a magnifier only implements the hooks.
 */
class Amplifier : public TimingSource
{
  public:
    using TimingSource::TimingSource;

    bool isAmplifier() const override { return true; }
    void calibrate() override;
    TimingSample sample(bool secret) override;

  private:
    Calibration calibration_;
    bool calibrated_ = false;
};

} // namespace hr

#endif // HR_GADGETS_TIMING_SOURCE_HH
