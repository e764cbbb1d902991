#include "channel/channel.hh"

#include <algorithm>
#include <cmath>

#include "gadgets/gadget_registry.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/noise.hh"
#include "util/log.hh"

namespace hr
{

namespace
{

/** xlog2x with the information-theoretic 0 log 0 = 0 convention. */
double
entropyTerm(double p)
{
    return p > 0 ? -p * std::log2(p) : 0.0;
}

} // namespace

void
ChannelStats::accumulate(const ChannelStats &other)
{
    framesSent += other.framesSent;
    framesSynced += other.framesSynced;
    symbolsSent += other.symbolsSent;
    symbolErrors += other.symbolErrors;
    payloadBitsSent += other.payloadBitsSent;
    payloadBitsSynced += other.payloadBitsSynced;
    payloadErrors += other.payloadErrors;
    for (int s = 0; s < 2; ++s)
        for (int d = 0; d < 2; ++d)
            confusion[s][d] += other.confusion[s][d];
    cycles += other.cycles;
    seconds += other.seconds;
}

double
ChannelStats::rawBitsPerSec() const
{
    return seconds > 0 ? symbolsSent / seconds : 0.0;
}

double
ChannelStats::effectiveBitsPerSec() const
{
    if (seconds <= 0)
        return 0.0;
    const int good = payloadBitsSynced - payloadErrors;
    return good > 0 ? good / seconds : 0.0;
}

double
ChannelStats::ber() const
{
    if (payloadBitsSynced > 0)
        return static_cast<double>(payloadErrors) / payloadBitsSynced;
    // A transmission that never synced delivered nothing: count it as
    // total loss rather than a spuriously clean 0.
    return framesSent > 0 ? 1.0 : 0.0;
}

double
ChannelStats::symbolErrorRate() const
{
    return symbolsSent > 0
               ? static_cast<double>(symbolErrors) / symbolsSent
               : 0.0;
}

double
ChannelStats::syncFailureRate() const
{
    return framesSent > 0
               ? 1.0 - static_cast<double>(framesSynced) / framesSent
               : 0.0;
}

double
ChannelStats::shannonBitsPerSymbol() const
{
    double total = 0;
    for (int s = 0; s < 2; ++s)
        for (int d = 0; d < 2; ++d)
            total += static_cast<double>(confusion[s][d]);
    if (total <= 0)
        return 0.0;
    // I(X;Y) = H(Y) - H(Y|X) over the empirical joint distribution.
    double h_y = 0, h_y_given_x = 0;
    for (int d = 0; d < 2; ++d) {
        const double p_y =
            static_cast<double>(confusion[0][d] + confusion[1][d]) /
            total;
        h_y += entropyTerm(p_y);
    }
    for (int s = 0; s < 2; ++s) {
        const double n_x =
            static_cast<double>(confusion[s][0] + confusion[s][1]);
        if (n_x <= 0)
            continue;
        double h = 0;
        for (int d = 0; d < 2; ++d)
            h += entropyTerm(static_cast<double>(confusion[s][d]) / n_x);
        h_y_given_x += n_x / total * h;
    }
    const double mi = h_y - h_y_given_x;
    return mi > 0 ? mi : 0.0;
}

double
ChannelStats::shannonBitsPerSec() const
{
    return seconds > 0 ? shannonBitsPerSymbol() * symbolsSent / seconds
                       : 0.0;
}

Channel::Channel(ChannelConfig config) : config_(std::move(config))
{
    const GadgetInfo &gadget =
        GadgetRegistry::instance().resolve(config_.gadget);
    config_.gadgetParams.requireKeys(GadgetRegistry::paramKeys(gadget),
                                     "gadget '" + gadget.name + "'");
    fatalIf(config_.frames < 1, "channel: frames must be >= 1");
    fatalIf(config_.calibrationRounds < 1,
            "channel: calibration rounds must be >= 1");
    (void)frameChannelBits(config_.frame); // validate framing knobs
    (void)noiseWorkload(config_.noise);    // validate the noise name
}

void
Channel::bind(Machine &machine)
{
    demod_ = Demodulator();
    std::unique_ptr<TimingSource> source = GadgetRegistry::instance().make(
        config_.gadget, machine, config_.gadgetParams);
    modulator_ = source ? std::make_unique<Modulator>(std::move(source),
                                                      config_.modulation)
                        : nullptr;
}

bool
Channel::compatible(Machine &machine)
{
    if (config_.noise != "idle" && machine.contexts() < 2)
        return false;
    bind(machine);
    builtBy_ = &machine;
    return modulator_ != nullptr;
}

void
Channel::prepare(Machine &machine)
{
    if (builtBy_ != &machine)
        bind(machine);
    builtBy_ = nullptr;
    fatalIf(!modulator_, "channel: gadget " + config_.gadget +
                             " cannot run on this machine");
    if (machine.contexts() >= 2 && config_.noise != "idle") {
        // The neighbor co-runs inside every symbol's machine run, so
        // calibration below sees the same contention transmission
        // will. "idle" leaves any caller-installed background alone
        // (the detector scenario pairs a channel with its own benign
        // sibling workload) instead of clearing context 1.
        installNoise(machine, 1, config_.noise, config_.noiseParams);
    }
    demod_.calibrate(*modulator_, config_.calibrationRounds);
}

void
Channel::requirePrepared(const Machine &machine, const char *who) const
{
    fatalIf(!demod_.calibrated(),
            std::string("channel: ") + who + " before prepare");
    fatalIf(&modulator_->source().machine() != &machine,
            std::string("channel: ") + who +
                " on a machine other than the prepared one");
}

ChannelStats
Channel::run(Machine &machine, const std::vector<bool> &payload)
{
    HR_TRACE_SCOPE("channel", "channel.run");
    requirePrepared(machine, "run");
    const int frame_payload = config_.frame.payloadBits;
    const int frames =
        payload.empty()
            ? 1
            : static_cast<int>((payload.size() +
                                static_cast<std::size_t>(frame_payload) -
                                1) /
                               static_cast<std::size_t>(frame_payload));

    ChannelStats stats;
    std::vector<bool> sent_payload;   // zero-padded to whole frames
    std::vector<bool> received_bits;  // the demodulated symbol stream
    const Cycle t0 = machine.now();
    for (int frame = 0; frame < frames; ++frame) {
        std::vector<bool> chunk(static_cast<std::size_t>(frame_payload),
                                false);
        for (int i = 0; i < frame_payload; ++i) {
            const std::size_t index = static_cast<std::size_t>(
                frame * frame_payload + i);
            if (index < payload.size())
                chunk[static_cast<std::size_t>(i)] = payload[index];
        }
        sent_payload.insert(sent_payload.end(), chunk.begin(),
                            chunk.end());

        // Transmit the frame symbol by symbol; the demodulator's
        // hard decisions are all the receiver keeps.
        for (bool bit : encodeFrame(config_.frame, chunk)) {
            const SymbolReading symbol = modulator_->transmit(bit);
            const bool decoded = demod_.decide(symbol.reading);
            received_bits.push_back(decoded);
            ++stats.symbolsSent;
            stats.symbolErrors += decoded != bit ? 1 : 0;
            ++stats.confusion[bit ? 1 : 0][decoded ? 1 : 0];
        }
    }
    stats.cycles = machine.now() - t0;
    stats.seconds = machine.toNs(stats.cycles) / 1e9;

    // Receiver side: re-sync on each preamble and error-correct. The
    // scan may skip a frame whose preamble was destroyed and lock
    // onto the *next* frame, so the decoded payload is compared
    // against the frame the preamble position actually belongs to,
    // not the loop index — a resynced frame that arrived intact must
    // not be scored against its lost predecessor's bits.
    const std::size_t frame_len =
        static_cast<std::size_t>(frameChannelBits(config_.frame));
    std::size_t pos = 0;
    for (int frame = 0; frame < frames; ++frame) {
        stats.framesSent += 1;
        stats.payloadBitsSent += frame_payload;
        const FrameDecode decode =
            decodeFrame(config_.frame, received_bits, pos);
        pos = decode.nextPos;
        if (!decode.synced) {
            HR_TRACE_INSTANT1("channel", "channel.frame_sync_lost",
                              "frame", frame);
            continue;
        }
        HR_TRACE_INSTANT1("channel", "channel.frame_synced", "frame",
                          frame);
        const int src_frame = std::min(
            frames - 1, static_cast<int>(decode.syncPos / frame_len));
        stats.framesSynced += 1;
        stats.payloadBitsSynced += frame_payload;
        for (int i = 0; i < frame_payload; ++i) {
            const bool sent = sent_payload[static_cast<std::size_t>(
                src_frame * frame_payload + i)];
            stats.payloadErrors +=
                decode.payload[static_cast<std::size_t>(i)] != sent ? 1
                                                                    : 0;
        }
    }

    // Logical channel traffic: the same at any --jobs.
    Metrics &met = metrics();
    met.channelFramesSent.add(
        static_cast<std::uint64_t>(stats.framesSent));
    met.channelFramesSynced.add(
        static_cast<std::uint64_t>(stats.framesSynced));
    met.channelSymbolsSent.add(
        static_cast<std::uint64_t>(stats.symbolsSent));
    met.channelSymbolErrors.add(
        static_cast<std::uint64_t>(stats.symbolErrors));
    return stats;
}

ChannelStats
Channel::measureSymbols(Machine &machine,
                        const std::vector<bool> &symbols)
{
    requirePrepared(machine, "measureSymbols");
    ChannelStats stats;
    const Cycle t0 = machine.now();
    for (bool bit : symbols) {
        const SymbolReading symbol = modulator_->transmit(bit);
        const bool decoded = demod_.decide(symbol.reading);
        ++stats.symbolsSent;
        stats.symbolErrors += decoded != bit ? 1 : 0;
        ++stats.confusion[bit ? 1 : 0][decoded ? 1 : 0];
    }
    stats.cycles = machine.now() - t0;
    stats.seconds = machine.toNs(stats.cycles) / 1e9;
    Metrics &met = metrics();
    met.channelSymbolsSent.add(
        static_cast<std::uint64_t>(stats.symbolsSent));
    met.channelSymbolErrors.add(
        static_cast<std::uint64_t>(stats.symbolErrors));
    return stats;
}

} // namespace hr
