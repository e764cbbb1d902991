/**
 * @file
 * End-to-end covert channel: transmitter -> medium -> receiver over
 * any registered TimingSource.
 *
 * A Channel composes the modem layer (channel/modem.hh) and the frame
 * layer (channel/frame.hh) into one driver: payload bits are framed,
 * ECC-coded, modulated one symbol per gadget invocation into the
 * shared microarchitecture, threshold-demodulated, re-synchronized on
 * the frame preambles, and error-corrected back to payload bits. The
 * driver runs on a leased/pooled Machine; on a multi-context machine
 * an optional noise workload (sim/noise.hh) co-runs on a sibling
 * hardware context through the Machine::setBackground / coRun driver,
 * so every symbol is transmitted against live neighbor contention.
 *
 * ChannelStats reports what the gadget actually carries: raw and
 * effective capacity in bits per simulated second, bit-error rate,
 * sync-failure rate, and a Shannon capacity estimate computed from
 * the measured symbol confusion matrix.
 */

#ifndef HR_CHANNEL_CHANNEL_HH
#define HR_CHANNEL_CHANNEL_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "channel/frame.hh"
#include "channel/modem.hh"
#include "util/params.hh"

namespace hr
{

/** Full configuration of one channel instance. */
struct ChannelConfig
{
    std::string gadget;      ///< GadgetRegistry name of the source
    ParamSet gadgetParams;   ///< forwarded to GadgetRegistry::make
    Modulation modulation = Modulation::Ook;
    FrameConfig frame;
    int frames = 2;          ///< frames per run() transmission
    int calibrationRounds = 2;

    /** Noise workload co-run on context 1 ("idle" = none). */
    std::string noise = "idle";
    ParamSet noiseParams;
};

/** Measured outcome of one (or more accumulated) transmissions. */
struct ChannelStats
{
    int framesSent = 0;
    int framesSynced = 0;
    int symbolsSent = 0;
    int symbolErrors = 0;        ///< demodulated bit != transmitted bit
    int payloadBitsSent = 0;     ///< over all frames
    int payloadBitsSynced = 0;   ///< over frames that synced
    int payloadErrors = 0;       ///< post-ECC errors over synced frames
    std::uint64_t confusion[2][2] = {}; ///< [sent][decoded] symbol counts
    Cycle cycles = 0;            ///< simulated cycles of the transmission
    double seconds = 0;          ///< simulated seconds of the transmission

    void accumulate(const ChannelStats &other);

    /** Channel symbols per simulated second (1 bit each, 2-ary). */
    double rawBitsPerSec() const;

    /** Correctly delivered payload bits per simulated second. */
    double effectiveBitsPerSec() const;

    /** Post-ECC payload BER over synced frames (1.0 if nothing synced). */
    double ber() const;

    /** Pre-ECC channel-symbol error rate. */
    double symbolErrorRate() const;

    /** Fraction of frames whose preamble was never found. */
    double syncFailureRate() const;

    /**
     * Shannon estimate: mutual information (bits/symbol) of the
     * empirical symbol confusion matrix.
     */
    double shannonBitsPerSymbol() const;

    /** shannonBitsPerSymbol scaled to the measured symbol rate. */
    double shannonBitsPerSec() const;
};

/** The end-to-end transmitter/receiver stack. */
class Channel
{
  public:
    /** Validates the gadget name and its parameter keys. */
    explicit Channel(ChannelConfig config);

    const ChannelConfig &config() const { return config_; }
    const Demodulator &demodulator() const { return demod_; }

    /**
     * True if the gadget/scheme/noise combination runs on @p machine.
     * Builds the gadget there; a prepare() on the same machine that
     * follows reuses it instead of building it again.
     */
    bool compatible(Machine &machine);

    /**
     * Build the gadget on @p machine (unless compatible() just did),
     * install the configured noise neighbor (contexts >= 2), and
     * calibrate the demodulator. Call once per leased machine before
     * run(); fatal if the gadget cannot run on @p machine.
     */
    void prepare(Machine &machine);

    /**
     * Transmit @p payload — zero-padded to a whole number of frames
     * of config().frame.payloadBits each — and return the measured
     * stats. Requires prepare() on the same machine. config().frames
     * is the conventional payload sizing used by the scenarios and
     * the registry, not a limit.
     */
    ChannelStats run(Machine &machine, const std::vector<bool> &payload);

    /**
     * Transmit @p symbols raw — no framing, preamble, or ECC: one
     * modulator invocation and one hard demodulator decision per
     * symbol, accumulated straight into the confusion matrix.
     * Requires prepare() on the same machine. This is the per-symbol
     * measurement the capacity scenarios compare against the static
     * QIF bound: shannonBitsPerSymbol() of the returned stats is the
     * measured MI of the bare physical channel, the quantity the
     * per-trial bound log2(#observer classes) upper-bounds.
     */
    ChannelStats measureSymbols(Machine &machine,
                                const std::vector<bool> &symbols);

  private:
    ChannelConfig config_;
    std::unique_ptr<Modulator> modulator_; ///< null: cannot run there
    /** The machine compatible() built modulator_ on, until prepare(). */
    Machine *builtBy_ = nullptr;
    Demodulator demod_;

    /** Build the modulator's gadget on @p machine. */
    void bind(Machine &machine);

    /** Fatal unless prepare() ran on @p machine. */
    void requirePrepared(const Machine &machine, const char *who) const;
};

} // namespace hr

#endif // HR_CHANNEL_CHANNEL_HH
