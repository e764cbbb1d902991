/**
 * @file
 * Modulator/Demodulator: bits <-> gadget invocations over any
 * TimingSource.
 *
 * The paper's gadgets are demonstrated as one-shot timing primitives;
 * their real-world payoff is a communication channel. The modem layer
 * is the symbol level of that channel: a Modulator turns one payload
 * bit into one gadget invocation that leaves the bit in the shared
 * microarchitecture (and produces the receiver's raw observable), and
 * a Demodulator turns the observable back into a bit with a two-point
 * threshold, exactly the way every composed timer in the paper ends.
 *
 * Two modulation schemes to start:
 *
 *   ook  on/off keying through TimingSource::sample — the transmitter
 *        selects the slow (bit = 1) or fast (bit = 0) input state and
 *        the symbol is the source's own reading (ns for clock-backed
 *        sources, progress/miss counts for the contention timers).
 *        Works for every registered gadget.
 *
 *   rs2  2-ary replacement-state symbols through the amplifier hooks —
 *        the transmitter writes the bit directly into cache
 *        replacement state (prepare + forceInput) and the receiver
 *        independently stretches that state into a duration (amplify).
 *        This is the real transmitter/receiver split: the bit lives in
 *        the medium (the shared hierarchy) between the two halves.
 *        Requires an amplifier-role source.
 *
 * Polarity is uniform with the rest of the library: bit == 1 is the
 * state that reads slow.
 */

#ifndef HR_CHANNEL_MODEM_HH
#define HR_CHANNEL_MODEM_HH

#include <memory>
#include <string>

#include "gadgets/timing_source.hh"
#include "timer/calibration.hh"

namespace hr
{

/** How a payload bit becomes a gadget invocation. */
enum class Modulation
{
    Ook, ///< on/off keying via TimingSource::sample
    Rs2, ///< 2-ary replacement-state symbols via the amplifier hooks
};

/** Parse "ook" / "rs2" (fatal on anything else). */
Modulation modulationFromName(const std::string &name);
std::string modulationName(Modulation modulation);

/** The receiver-visible outcome of one transmitted symbol. */
struct SymbolReading
{
    double reading = 0.0; ///< raw observable the demodulator decides on
    Cycle cycles = 0;     ///< simulated cycles the symbol occupied
};

/**
 * Drives one TimingSource as the channel's symbol transmitter, on the
 * machine the source is bound to.
 */
class Modulator
{
  public:
    /** Fatal if @p scheme is rs2 and @p source is not an amplifier. */
    Modulator(std::unique_ptr<TimingSource> source, Modulation scheme);

    const TimingSource &source() const { return *source_; }
    Modulation scheme() const { return scheme_; }

    /**
     * Transmit one symbol: encode @p bit into the source's machine and
     * return the receiver's raw observable for it.
     */
    SymbolReading transmit(bool bit);

  private:
    std::unique_ptr<TimingSource> source_;
    Modulation scheme_;
};

/**
 * Threshold receiver: decides each symbol against a midpoint
 * calibrated from the two known input states. Polarity is learned,
 * not assumed: a source whose bit == 1 state reads consistently
 * *faster* (the transient P/A race, whose probe-hit path is the
 * short one) decodes just as well with the decision inverted.
 * Calibration is lenient — a channel over a source that cannot
 * separate its states at all (the bare coarse_timer) still runs and
 * simply fails to carry data.
 */
class Demodulator
{
  public:
    /**
     * Two-point calibration through @p modulator: @p rounds
     * observations per polarity, decided against the midpoint of the
     * per-polarity means.
     */
    void calibrate(Modulator &modulator, int rounds = 2);

    bool calibrated() const { return calibrated_; }

    /** True iff calibration separated the two states (either sign). */
    bool separable() const
    {
        return calibrated_ &&
               calibration_.fastNs != calibration_.slowNs;
    }

    /** True iff the bit == 1 state reads *below* the threshold. */
    bool inverted() const { return inverted_; }

    /** Decide one symbol observable. */
    bool decide(double reading) const;

    const Calibration &calibration() const { return calibration_; }

  private:
    Calibration calibration_;
    bool inverted_ = false;
    bool calibrated_ = false;
};

} // namespace hr

#endif // HR_CHANNEL_MODEM_HH
