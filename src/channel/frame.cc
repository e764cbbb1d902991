#include "channel/frame.hh"

#include "obs/log.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace hr
{

namespace
{

/** Validate the knobs every entry point depends on. */
void
checkConfig(const FrameConfig &config)
{
    fatalIf(config.payloadBits < 1, "frame: payload_bits must be >= 1");
    fatalIf(config.ecc == Ecc::Repetition && config.repeat < 1,
            "frame: repetition repeat must be >= 1");
}

/**
 * Hamming(7,4) code word: positions 1..7 hold p1 p2 d1 p3 d2 d3 d4,
 * with each parity bit covering the positions whose index has the
 * corresponding bit set — so the syndrome IS the error position.
 */
void
hammingEncodeBlock(const bool d[4], std::vector<bool> &out)
{
    const bool p1 = d[0] ^ d[1] ^ d[3];
    const bool p2 = d[0] ^ d[2] ^ d[3];
    const bool p3 = d[1] ^ d[2] ^ d[3];
    const bool word[7] = {p1, p2, d[0], p3, d[1], d[2], d[3]};
    for (bool bit : word)
        out.push_back(bit);
}

/** Returns whether the syndrome flipped a bit. */
bool
hammingDecodeBlock(const bool w_in[7], bool d[4])
{
    bool w[7];
    for (int i = 0; i < 7; ++i)
        w[i] = w_in[i];
    const int s1 = (w[0] ^ w[2] ^ w[4] ^ w[6]) ? 1 : 0;
    const int s2 = (w[1] ^ w[2] ^ w[5] ^ w[6]) ? 2 : 0;
    const int s3 = (w[3] ^ w[4] ^ w[5] ^ w[6]) ? 4 : 0;
    const int syndrome = s1 | s2 | s3;
    if (syndrome != 0)
        w[syndrome - 1] = !w[syndrome - 1];
    d[0] = w[2];
    d[1] = w[4];
    d[2] = w[5];
    d[3] = w[6];
    return syndrome != 0;
}

} // namespace

Ecc
eccFromName(const std::string &name)
{
    if (name == "none")
        return Ecc::None;
    if (name == "repetition")
        return Ecc::Repetition;
    if (name == "hamming74")
        return Ecc::Hamming74;
    fatal("unknown ecc '" + name + "' (none, repetition, hamming74)");
}

std::string
eccName(Ecc ecc)
{
    switch (ecc) {
      case Ecc::None: return "none";
      case Ecc::Repetition: return "repetition";
      case Ecc::Hamming74: return "hamming74";
    }
    return "?";
}

const std::vector<bool> &
framePreamble()
{
    static const std::vector<bool> kPreamble = {true,  false, true,
                                                false, true,  false,
                                                true,  true};
    return kPreamble;
}

int
codedBits(const FrameConfig &config)
{
    checkConfig(config);
    switch (config.ecc) {
      case Ecc::None:
        return config.payloadBits;
      case Ecc::Repetition:
        return config.payloadBits * config.repeat;
      case Ecc::Hamming74:
        // Payload padded with zeros to a multiple of 4 data bits.
        return (config.payloadBits + 3) / 4 * 7;
    }
    return config.payloadBits;
}

int
frameChannelBits(const FrameConfig &config)
{
    return static_cast<int>(framePreamble().size()) + codedBits(config);
}

std::vector<bool>
eccEncode(const FrameConfig &config, const std::vector<bool> &payload)
{
    checkConfig(config);
    fatalIf(static_cast<int>(payload.size()) != config.payloadBits,
            "eccEncode: payload must be exactly payload_bits long");
    std::vector<bool> coded;
    coded.reserve(static_cast<std::size_t>(codedBits(config)));
    switch (config.ecc) {
      case Ecc::None:
        coded = payload;
        break;
      case Ecc::Repetition:
        for (bool bit : payload)
            for (int r = 0; r < config.repeat; ++r)
                coded.push_back(bit);
        break;
      case Ecc::Hamming74:
        for (int base = 0; base < config.payloadBits; base += 4) {
            bool d[4] = {false, false, false, false};
            for (int i = 0; i < 4 && base + i < config.payloadBits; ++i)
                d[i] = payload[static_cast<std::size_t>(base + i)];
            hammingEncodeBlock(d, coded);
        }
        break;
    }
    return coded;
}

std::vector<bool>
eccDecode(const FrameConfig &config, const std::vector<bool> &coded)
{
    checkConfig(config);
    fatalIf(static_cast<int>(coded.size()) != codedBits(config),
            "eccDecode: coded length must be exactly codedBits()");
    std::vector<bool> payload;
    payload.reserve(static_cast<std::size_t>(config.payloadBits));
    std::uint64_t corrections = 0;
    switch (config.ecc) {
      case Ecc::None:
        payload = coded;
        break;
      case Ecc::Repetition:
        for (int bit = 0; bit < config.payloadBits; ++bit) {
            int ones = 0;
            for (int r = 0; r < config.repeat; ++r)
                ones += coded[static_cast<std::size_t>(
                            bit * config.repeat + r)]
                            ? 1
                            : 0;
            // The copies disagreed: the majority vote corrected at
            // least one flipped symbol for this payload bit.
            if (ones > 0 && ones < config.repeat)
                ++corrections;
            payload.push_back(2 * ones > config.repeat);
        }
        break;
      case Ecc::Hamming74:
        for (int base = 0; base < config.payloadBits; base += 4) {
            bool w[7];
            const std::size_t word =
                static_cast<std::size_t>(base / 4) * 7;
            for (int i = 0; i < 7; ++i)
                w[i] = coded[word + static_cast<std::size_t>(i)];
            bool d[4];
            if (hammingDecodeBlock(w, d))
                ++corrections;
            for (int i = 0; i < 4 && base + i < config.payloadBits; ++i)
                payload.push_back(d[i]);
        }
        break;
    }
    if (corrections > 0) {
        metrics().channelEccBitsCorrected.add(corrections);
        HR_TRACE_INSTANT1("channel", "channel.ecc_corrected", "bits",
                          corrections);
    }
    return payload;
}

std::vector<bool>
encodeFrame(const FrameConfig &config, const std::vector<bool> &payload)
{
    std::vector<bool> bits = framePreamble();
    const std::vector<bool> coded = eccEncode(config, payload);
    bits.insert(bits.end(), coded.begin(), coded.end());
    return bits;
}

FrameDecode
decodeFrame(const FrameConfig &config, const std::vector<bool> &bits,
            std::size_t pos)
{
    const std::vector<bool> &preamble = framePreamble();
    const std::size_t frame_bits =
        static_cast<std::size_t>(frameChannelBits(config));
    const std::size_t coded =
        static_cast<std::size_t>(codedBits(config));

    FrameDecode out;
    // Scan up to one frame length of slack for the preamble; a match
    // must leave a whole coded payload in the stream.
    const std::size_t last_start =
        pos + frame_bits < bits.size() + 1 ? pos + frame_bits : pos;
    for (std::size_t start = pos; start <= last_start; ++start) {
        if (start + preamble.size() + coded > bits.size())
            break;
        bool match = true;
        for (std::size_t i = 0; i < preamble.size() && match; ++i)
            match = bits[start + i] == preamble[i];
        if (!match)
            continue;
        std::vector<bool> coded_bits(
            bits.begin() +
                static_cast<std::ptrdiff_t>(start + preamble.size()),
            bits.begin() + static_cast<std::ptrdiff_t>(
                               start + preamble.size() + coded));
        out.synced = true;
        out.syncPos = start;
        out.nextPos = start + preamble.size() + coded;
        out.payload = eccDecode(config, coded_bits);
        return out;
    }
    out.synced = false;
    out.nextPos = pos + frame_bits; // skip this frame, try the next
    return out;
}

} // namespace hr
