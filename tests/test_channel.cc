/**
 * @file
 * Covert-channel subsystem tests: ECC round trips (Hamming(7,4)
 * single-error correction, repetition majority), frame sync with
 * offset and corrupted preambles, modem polarity learning, the
 * end-to-end Channel driver and its stats, pooled transmissions
 * against fresh machines, the channel registry round trip,
 * channel-sweep determinism across --jobs, and the --seed plumbing
 * into per-trial machine sub-streams.
 */

#include <gtest/gtest.h>

#include "channel/channel_registry.hh"
#include "exp/machine_pool.hh"
#include "exp/registry.hh"
#include "exp/runner.hh"
#include "exp/sweep.hh"
#include "sim/profiles.hh"
#include "util/log.hh"

namespace hr
{
namespace
{

std::vector<bool>
bitsOf(const std::string &pattern)
{
    std::vector<bool> bits;
    for (char c : pattern)
        bits.push_back(c == '1');
    return bits;
}

TEST(FrameEcc, HammingRoundTripAndSingleErrorCorrection)
{
    FrameConfig config;
    config.payloadBits = 8;
    config.ecc = Ecc::Hamming74;
    const std::vector<bool> payload = bitsOf("10110010");
    const std::vector<bool> coded = eccEncode(config, payload);
    ASSERT_EQ(static_cast<int>(coded.size()), codedBits(config));
    EXPECT_EQ(codedBits(config), 14); // two 7-bit words
    EXPECT_EQ(eccDecode(config, coded), payload);

    // Any single flipped bit per code word is corrected.
    for (std::size_t e = 0; e < coded.size(); ++e) {
        std::vector<bool> damaged = coded;
        damaged[e] = !damaged[e];
        EXPECT_EQ(eccDecode(config, damaged), payload)
            << "error at " << e;
    }
}

TEST(FrameEcc, HammingPadsPartialBlocks)
{
    FrameConfig config;
    config.payloadBits = 6; // 4 + 2, second block padded
    config.ecc = Ecc::Hamming74;
    const std::vector<bool> payload = bitsOf("110101");
    EXPECT_EQ(codedBits(config), 14);
    EXPECT_EQ(eccDecode(config, eccEncode(config, payload)), payload);
}

TEST(FrameEcc, RepetitionMajorityDecodes)
{
    FrameConfig config;
    config.payloadBits = 4;
    config.ecc = Ecc::Repetition;
    config.repeat = 3;
    const std::vector<bool> payload = bitsOf("1010");
    std::vector<bool> coded = eccEncode(config, payload);
    ASSERT_EQ(coded.size(), 12u);
    // One flip per repetition group never changes the majority.
    coded[1] = !coded[1];
    coded[5] = !coded[5];
    EXPECT_EQ(eccDecode(config, coded), payload);
}

TEST(Frame, EncodeDecodeWithScanOffset)
{
    FrameConfig config;
    config.payloadBits = 8;
    config.ecc = Ecc::None;
    const std::vector<bool> payload = bitsOf("01100111");
    std::vector<bool> stream = bitsOf("0011"); // leading junk
    const std::vector<bool> frame = encodeFrame(config, payload);
    stream.insert(stream.end(), frame.begin(), frame.end());

    const FrameDecode decode = decodeFrame(config, stream, 0);
    ASSERT_TRUE(decode.synced);
    EXPECT_EQ(decode.payload, payload);
    EXPECT_EQ(decode.nextPos, stream.size());
}

TEST(Frame, CorruptedPreambleIsASyncFailureNotAWrongDecode)
{
    FrameConfig config;
    config.payloadBits = 8;
    config.ecc = Ecc::None;
    std::vector<bool> frame =
        encodeFrame(config, bitsOf("11110000"));
    frame[0] = !frame[0];
    frame[3] = !frame[3]; // break the preamble beyond recognition
    const FrameDecode decode = decodeFrame(config, frame, 0);
    EXPECT_FALSE(decode.synced);
    // The receiver skips one frame length so later frames can lock.
    EXPECT_EQ(decode.nextPos,
              static_cast<std::size_t>(frameChannelBits(config)));
}

TEST(Frame, ScanRecoversTheNextFrameAfterALostPreamble)
{
    FrameConfig config;
    config.payloadBits = 8;
    config.ecc = Ecc::None;
    const std::vector<bool> p1 = bitsOf("10000001");
    const std::vector<bool> p2 = bitsOf("01111110");
    std::vector<bool> stream = encodeFrame(config, p1);
    stream[1] = !stream[1]; // kill frame 1's preamble
    stream[4] = !stream[4];
    const std::vector<bool> f2 = encodeFrame(config, p2);
    stream.insert(stream.end(), f2.begin(), f2.end());

    // The scan window extends one frame length past the corrupted
    // preamble, so the receiver locks straight onto frame 2: frame
    // 1's payload is lost, frame 2's arrives intact — and syncPos
    // tells the channel which sent frame the payload belongs to
    // (Channel::run scores it against frame syncPos / frame length,
    // not the consuming loop iteration).
    FrameDecode first = decodeFrame(config, stream, 0);
    ASSERT_TRUE(first.synced);
    EXPECT_EQ(first.payload, p2);
    EXPECT_EQ(first.syncPos,
              static_cast<std::size_t>(frameChannelBits(config)));
    FrameDecode second = decodeFrame(config, stream, first.nextPos);
    EXPECT_FALSE(second.synced);
}

/** Synthetic source whose bit == 1 state reads *faster* (inverted). */
class InvertedSource final : public TimingSource
{
  public:
    using TimingSource::TimingSource;

    std::string name() const override { return "inverted_test"; }

    TimingSample
    sample(bool secret) override
    {
        TimingSample s;
        s.ns = secret ? 10.0 : 20.0;
        s.cycles = 40;
        return s;
    }
};

TEST(Modem, DemodulatorLearnsInvertedPolarity)
{
    Machine machine;
    Modulator modulator(std::make_unique<InvertedSource>(machine),
                        Modulation::Ook);
    Demodulator demod;
    demod.calibrate(modulator);
    EXPECT_TRUE(demod.separable());
    EXPECT_TRUE(demod.inverted());
    EXPECT_TRUE(demod.decide(10.0));
    EXPECT_FALSE(demod.decide(20.0));
}

TEST(Modem, Rs2RequiresAnAmplifier)
{
    Machine machine;
    EXPECT_THROW(Modulator(std::make_unique<InvertedSource>(machine),
                           Modulation::Rs2),
                 std::runtime_error);
    EXPECT_THROW(modulationFromName("qam"), std::runtime_error);
    EXPECT_EQ(modulationFromName("ook"), Modulation::Ook);
    EXPECT_EQ(modulationName(Modulation::Rs2), "rs2");
}

TEST(ChannelStats, CapacityAndShannonMath)
{
    ChannelStats stats;
    stats.symbolsSent = 100;
    stats.symbolErrors = 0;
    stats.framesSent = 2;
    stats.framesSynced = 2;
    stats.payloadBitsSent = 32;
    stats.payloadBitsSynced = 32;
    stats.payloadErrors = 0;
    stats.confusion[0][0] = 50;
    stats.confusion[1][1] = 50;
    stats.seconds = 0.01;
    EXPECT_DOUBLE_EQ(stats.rawBitsPerSec(), 10000.0);
    EXPECT_DOUBLE_EQ(stats.effectiveBitsPerSec(), 3200.0);
    EXPECT_DOUBLE_EQ(stats.ber(), 0.0);
    EXPECT_DOUBLE_EQ(stats.syncFailureRate(), 0.0);
    // Error-free 2-ary symbols carry exactly 1 bit each.
    EXPECT_DOUBLE_EQ(stats.shannonBitsPerSymbol(), 1.0);

    // A coin-flip channel carries nothing.
    ChannelStats coin;
    coin.confusion[0][0] = coin.confusion[0][1] = 25;
    coin.confusion[1][0] = coin.confusion[1][1] = 25;
    EXPECT_DOUBLE_EQ(coin.shannonBitsPerSymbol(), 0.0);

    // Nothing synced => BER reports total loss, not a clean zero.
    ChannelStats lost;
    lost.framesSent = 2;
    EXPECT_DOUBLE_EQ(lost.ber(), 1.0);
}

TEST(ChannelRegistry, RoundTripAndResolution)
{
    auto &registry = ChannelRegistry::instance();
    const auto channels = registry.all();
    ASSERT_GE(channels.size(), 12u);
    for (const ChannelInfo *info : channels) {
        SCOPED_TRACE(info->name);
        // Every registered channel must construct through its
        // defaults (gadget resolvable, params valid).
        Channel channel(registry.makeConfig(info->name));
        EXPECT_EQ(channel.config().gadget, info->gadget);
        EXPECT_EQ(modulationName(channel.config().modulation),
                  info->modulation);
    }
    EXPECT_EQ(registry.resolve("rs2_plru_pa").gadget,
              "plru_pa_magnifier");
    EXPECT_EQ(registry.resolve("ook_co").name, "ook_coarse_timer");
    EXPECT_THROW(registry.resolve("rs2_plru"), std::runtime_error);
    EXPECT_THROW(registry.resolve("nope"), std::runtime_error);
    // Unknown parameter keys fail up front with a suggestion.
    ParamSet typo;
    typo.set("framebits", "8");
    EXPECT_THROW(registry.makeConfig("rs2_plru_pa", typo),
                 std::runtime_error);
}

TEST(Channel, EndToEndErrorFreeOverPlruMagnifier)
{
    Machine machine(machineConfigForProfile("plru"));
    ParamSet overrides;
    overrides.set("frame_bits", "8");
    Channel channel(ChannelRegistry::instance().makeConfig(
        "rs2_plru_pa", overrides));
    ASSERT_TRUE(channel.compatible(machine));
    channel.prepare(machine);
    EXPECT_TRUE(channel.demodulator().separable());

    const std::vector<bool> payload = bitsOf("1011001101001110");
    const ChannelStats stats = channel.run(machine, payload);
    EXPECT_EQ(stats.framesSent, 2);
    EXPECT_EQ(stats.framesSynced, 2);
    EXPECT_EQ(stats.payloadBitsSent, 16);
    EXPECT_EQ(stats.payloadErrors, 0);
    EXPECT_EQ(stats.symbolErrors, 0);
    EXPECT_DOUBLE_EQ(stats.ber(), 0.0);
    EXPECT_GT(stats.rawBitsPerSec(), 0.0);
    EXPECT_GT(stats.effectiveBitsPerSec(), 0.0);
    // Error-free, so the MI equals the entropy of the transmitted
    // symbol distribution — just under 1 bit for a non-50/50 payload.
    EXPECT_GT(stats.shannonBitsPerSymbol(), 0.97);
    EXPECT_LE(stats.shannonBitsPerSymbol(), 1.0);
    // Raw capacity counts preamble + ECC overhead; effective strips
    // it, so it must be strictly smaller.
    EXPECT_LT(stats.effectiveBitsPerSec(), stats.rawBitsPerSec());
}

TEST(Channel, PooledRunsMatchFreshMachines)
{
    ParamSet overrides;
    overrides.set("ecc", "none");
    overrides.set("frame_bits", "8");
    const ChannelConfig config =
        ChannelRegistry::instance().makeConfig("ook_arith", overrides);
    const MachineConfig machine_config =
        machineConfigForProfile("default");

    // Repeated and distinct payloads alike.
    std::vector<std::vector<bool>> payloads;
    for (int p = 0; p < 6; ++p) {
        std::vector<bool> payload;
        for (int i = 0; i < 8; ++i)
            payload.push_back(((p / 2) >> (i % 3)) & 1);
        payloads.push_back(payload);
    }

    // prepare() folds into the pool's base state; every lease of the
    // one pooled machine restores it before the next transmission.
    Channel pooled(config);
    MachinePool pool(machine_config, [&](Machine &machine) {
        pooled.prepare(machine);
    });
    Channel fresh(config);
    for (std::size_t i = 0; i < payloads.size(); ++i) {
        SCOPED_TRACE("payload " + std::to_string(i));
        auto lease = pool.lease();
        const ChannelStats got = pooled.run(lease.machine(), payloads[i]);
        Machine machine(machine_config);
        fresh.prepare(machine);
        const ChannelStats want = fresh.run(machine, payloads[i]);
        EXPECT_EQ(got.framesSent, want.framesSent);
        EXPECT_EQ(got.framesSynced, want.framesSynced);
        EXPECT_EQ(got.symbolsSent, want.symbolsSent);
        EXPECT_EQ(got.symbolErrors, want.symbolErrors);
        EXPECT_EQ(got.payloadErrors, want.payloadErrors);
        EXPECT_EQ(got.cycles, want.cycles);
        for (int s = 0; s < 2; ++s)
            for (int d = 0; d < 2; ++d)
                EXPECT_EQ(got.confusion[s][d], want.confusion[s][d]);
    }
    EXPECT_EQ(pool.machinesBuilt(), 1u);
}

TEST(Channel, IncompatibleCombinationsReportNotThrow)
{
    Machine machine(machineConfigForProfile("default"));
    // PLRU magnifier on the default (non-PLRU) L1.
    Channel plru(
        ChannelRegistry::instance().makeConfig("rs2_plru_pa"));
    EXPECT_FALSE(plru.compatible(machine));
    // Noise on a single-context machine.
    ParamSet noisy;
    noisy.set("noise", "pointer_chase");
    Channel noised(
        ChannelRegistry::instance().makeConfig("ook_arith", noisy));
    EXPECT_FALSE(noised.compatible(machine));
    // The same channel without noise runs on one context.
    Channel clean(
        ChannelRegistry::instance().makeConfig("ook_arith"));
    EXPECT_TRUE(clean.compatible(machine));
}

TEST(ChannelSweep, JobsDoNotChangeResults)
{
    SweepOptions serial;
    serial.channel = "rs2_plru_pa";
    serial.profile = "plru";
    serial.trials = 1;
    serial.jobs = 1;
    serial.grid.push_back(parseSweepAxis("frame_bits=4,8"));
    SweepOptions wide = serial;
    wide.jobs = 4;
    const std::string render1 =
        runChannelSweep(serial).render(Format::Json);
    const std::string render4 =
        runChannelSweep(wide).render(Format::Json);
    EXPECT_EQ(render1, render4);
    EXPECT_NE(render1.find("\"passed\": true"), std::string::npos);
}

// ---- --seed plumbing into per-trial machine sub-streams ------------

TEST(SeedPlumbing, MachineConfigMixesTheTrialSeed)
{
    ScenarioContext a(2, 1, 1, "noisy", {}, nullptr);
    ScenarioContext b(2, 1, 2, "noisy", {}, nullptr);
    // Different trial indices and different base seeds reach
    // different machine noise streams; the plain profile config is
    // untouched.
    EXPECT_NE(a.machineConfig(0).memory.rngSeed,
              a.machineConfig(1).memory.rngSeed);
    EXPECT_NE(a.machineConfig(0).memory.rngSeed,
              b.machineConfig(0).memory.rngSeed);
    EXPECT_EQ(a.machineConfig().memory.rngSeed,
              b.machineConfig().memory.rngSeed);
}

/** Cold-miss heavy program whose cycle count exposes latency jitter. */
Program
jitterProbe()
{
    ProgramBuilder builder("jitter_probe");
    RegId r = builder.movImm(0);
    for (int i = 0; i < 128; ++i)
        builder.loadOrderedInto(r,
                                0x70'0000 + static_cast<Addr>(i) * 64);
    builder.halt();
    return builder.take();
}

TEST(SeedPlumbing, SeededMachinesDifferAcrossSeedsNotWithin)
{
    ScenarioContext a(2, 1, 1, "noisy", {}, nullptr);
    ScenarioContext b(2, 1, 2, "noisy", {}, nullptr);
    auto run_once = [](const MachineConfig &config) {
        Machine machine(config);
        Program prog = jitterProbe();
        return machine.run(prog).cycles();
    };
    const Cycle a0 = run_once(a.machineConfig(0));
    EXPECT_EQ(a0, run_once(a.machineConfig(0)));
    EXPECT_NE(a0, run_once(a.machineConfig(1)));
    EXPECT_NE(a0, run_once(b.machineConfig(0)));

    // reseedMachine reproduces fresh construction with the same mix.
    Machine pooled(a.machineConfig());
    ScenarioContext::reseedMachine(pooled, a.machineConfig(),
                                   a.indexSeed(0));
    Program prog = jitterProbe();
    EXPECT_EQ(pooled.run(prog).cycles(), a0);
}

TEST(SeedPlumbing, RunnerSeedChangesChannelResults)
{
    Scenario &scenario = ScenarioRegistry::instance().resolve(
        "fig_channel_ber_vs_noise");
    RunOptions options;
    options.trials = 1;
    options.jobs = 2;
    options.seed = 1;
    options.params.set("quick", "1");
    RunOptions reseeded = options;
    reseeded.seed = 99;

    // Byte-identical across reruns of the same seed...
    const std::string first =
        ExperimentRunner(options).run(scenario).render(Format::Json);
    const std::string again =
        ExperimentRunner(options).run(scenario).render(Format::Json);
    EXPECT_EQ(first, again);
    // ...and a different payload/noise stream under a new seed.
    const std::string other = ExperimentRunner(reseeded)
                                  .run(scenario)
                                  .render(Format::Json);
    EXPECT_NE(first, other);
}

} // namespace
} // namespace hr
