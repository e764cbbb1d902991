/**
 * @file
 * Magnifier-gadget tests (paper section 6): each magnifier must turn a
 * one-shot state difference into a large, repeat-scalable timing
 * difference.
 */

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "gadgets/arbitrary_magnifier.hh"
#include "gadgets/arith_magnifier.hh"
#include "gadgets/plru_magnifier.hh"
#include "gadgets/plru_pattern.hh"
#include "gadgets/racing.hh"
#include "util/rng.hh"

namespace hr
{
namespace
{

class PlruMagnifierTest : public ::testing::Test
{
  protected:
    PlruMagnifierTest() : machine_(MachineConfig::plruProfile()) {}

    Machine machine_;
};

TEST_F(PlruMagnifierTest, PresentMissesEveryOtherAccessForever)
{
    auto config = PlruMagnifier::makeConfig(machine_, 3, 400);
    PlruMagnifier magnifier(machine_, config,
                            PlruVariant::PresenceAbsence);
    magnifier.prime();
    machine_.warm(config.a, 1); // "present" input
    MagnifierResult result = magnifier.traverse();
    // 3 misses per 6-access period, indefinitely.
    EXPECT_NEAR(static_cast<double>(result.l1Misses),
                3.0 * config.repeats, 6.0);
    // A must still be resident at the end (never evicted).
    EXPECT_EQ(machine_.probeLevel(config.a), 1);
}

TEST_F(PlruMagnifierTest, AbsentHasNoMisses)
{
    auto config = PlruMagnifier::makeConfig(machine_, 3, 400);
    PlruMagnifier magnifier(machine_, config,
                            PlruVariant::PresenceAbsence);
    magnifier.prime(); // A absent
    MagnifierResult result = magnifier.traverse();
    EXPECT_LE(result.l1Misses, 2u);
}

TEST_F(PlruMagnifierTest, TimingGapScalesWithRepeats)
{
    Cycle previous_gap = 0;
    for (int repeats : {100, 200, 400, 800}) {
        auto config = PlruMagnifier::makeConfig(machine_, 3, repeats);
        PlruMagnifier magnifier(machine_, config,
                                PlruVariant::PresenceAbsence);
        magnifier.prime();
        const Cycle fast = magnifier.traverse().cycles;
        magnifier.prime();
        machine_.warm(config.a, 1);
        const Cycle slow = magnifier.traverse().cycles;
        ASSERT_GT(slow, fast);
        const Cycle gap = slow - fast;
        EXPECT_GT(gap, previous_gap)
            << "gap must grow with repeats (repeats=" << repeats << ")";
        previous_gap = gap;
    }
    // 800 repeats must exceed a 5 us browser tick (10000 cycles @2GHz).
    EXPECT_GT(previous_gap, 10000u);
}

TEST_F(PlruMagnifierTest, LoadBasedPrimingMatchesWarmPriming)
{
    auto config = PlruMagnifier::makeConfig(machine_, 3, 100);
    PlruMagnifier magnifier(machine_, config,
                            PlruVariant::PresenceAbsence);

    // Realistic attacker priming via loads only.
    for (Addr a : {config.a, config.b, config.c, config.d, config.e})
        machine_.flushLine(a);
    Program prime = magnifier.buildPrimeProgram();
    machine_.run(prime);
    machine_.settle();
    machine_.warm(config.a, 2);

    machine_.warm(config.a, 1);
    MagnifierResult result = magnifier.traverse();
    EXPECT_NEAR(static_cast<double>(result.l1Misses),
                3.0 * config.repeats, 6.0);
    EXPECT_EQ(machine_.probeLevel(config.a), 1);
}

TEST_F(PlruMagnifierTest, ReorderVariantDistinguishesInsertionOrder)
{
    auto config = PlruMagnifier::makeConfig(machine_, 3, 400);
    PlruMagnifier magnifier(machine_, config, PlruVariant::Reorder);

    // Case 1: A inserted before B's touch.
    magnifier.prime();
    machine_.warm(config.a, 1); // A arrives...
    machine_.warm(config.b, 1); // ...then B is touched
    const MagnifierResult a_first = magnifier.traverse();

    // Case 2: B touched before A arrives.
    magnifier.prime();
    machine_.warm(config.b, 1);
    machine_.warm(config.a, 1);
    const MagnifierResult b_first = magnifier.traverse();

    EXPECT_GT(a_first.l1Misses, static_cast<std::uint64_t>(
                                    config.repeats));
    EXPECT_LE(b_first.l1Misses, 8u)
        << "B-first must evict A and then stop missing (Fig. 4)";
    EXPECT_GT(a_first.cycles, b_first.cycles + 10000);
}

TEST_F(PlruMagnifierTest, EndToEndWithReorderRace)
{
    // Full section 6.2 pipeline: a non-transient reorder race feeds the
    // reorder magnifier; a slow expression must yield a slow traversal.
    auto config = PlruMagnifier::makeConfig(machine_, 3, 400);
    PlruMagnifier magnifier(machine_, config, PlruVariant::Reorder);

    ReorderRaceConfig race_config;
    race_config.addrA = config.a;
    race_config.addrB = config.b;
    race_config.refOp = Opcode::Add;
    race_config.refOps = 60;

    // Fast expression: measurement path finishes first -> A's fill
    // lands before B's touch -> misses forever.
    magnifier.prime();
    {
        ReorderRace race(machine_, race_config,
                         TargetExpr::opChain(Opcode::Add, 5));
        race.run();
        machine_.settle();
    }
    const Cycle fast_expr_cycles = magnifier.traverse().cycles;

    // Slow expression: B's touch lands first -> A evicted -> all hits.
    magnifier.prime();
    {
        ReorderRace race(machine_, race_config,
                         TargetExpr::opChain(Opcode::Add, 150));
        race.run();
        machine_.settle();
    }
    const Cycle slow_expr_cycles = magnifier.traverse().cycles;

    EXPECT_GT(fast_expr_cycles, slow_expr_cycles + 10000)
        << "insertion order must be magnified into a large timing gap";
}

TEST(PlruPattern, FinderRecoversTheW4Pattern)
{
    auto pattern = findPinPattern(4);
    ASSERT_TRUE(pattern.has_value());
    EXPECT_GE(pattern->missesPerPeriod, 1);
    EXPECT_LE(pattern->accesses.size(), 6u)
        << "W=4 admits a 6-access period (B,C,E,C,D,C)";
    EXPECT_TRUE(validatePinPattern(4, *pattern));
}

TEST(PlruPattern, FinderMatchesParentTable)
{
    // The answers of the earlier map-based search, measured over
    // assoc {2, 4, 8, 16} x max_len 2..20: each associativity has no
    // pattern below its shortest period and the same pattern from
    // there on. Covered here: every point at assoc 2 and 4, and a
    // spread at 8 and 16, where a search costs ~0.3 s and ~1 s.
    struct Expected
    {
        int assoc;
        std::vector<int> maxLens;
        std::size_t period; ///< shortest max_len with a pattern; 0: none
        std::vector<int> accesses;
    };
    std::vector<int> every;
    for (int len = 2; len <= 20; ++len)
        every.push_back(len);
    for (const Expected &e :
         {Expected{2, every, 0, {}},
          Expected{4, every, 6, {1, 3, 2, 4, 3, 2}},
          Expected{8, {7, 8, 16, 20}, 8, {1, 6, 7, 2, 5, 6, 7, 2}},
          Expected{16, {9, 10, 16}, 10,
                   {1, 10, 11, 14, 2, 9, 10, 12, 15, 2}}}) {
        for (int len : e.maxLens) {
            SCOPED_TRACE("assoc=" + std::to_string(e.assoc) +
                         " max_len=" + std::to_string(len));
            const std::optional<PinPattern> pattern =
                findPinPattern(e.assoc, len);
            if (e.period == 0 || static_cast<std::size_t>(len) < e.period) {
                EXPECT_FALSE(pattern.has_value());
                continue;
            }
            ASSERT_TRUE(pattern.has_value());
            EXPECT_EQ(pattern->leadIn, std::vector<int>{2});
            EXPECT_EQ(pattern->accesses, e.accesses);
            EXPECT_EQ(pattern->missesPerPeriod, 2);
            EXPECT_TRUE(validatePinPattern(e.assoc, *pattern));
        }
    }
}

TEST(PlruPattern, PackedTransitionMatchesSetModel)
{
    // The search's packed state must follow PlruSetModel::access on
    // generated access sequences, from the cold (all-invalid) set on:
    // the same miss flag, and the same contents and tree bits through
    // a pack/unpack round trip.
    EXPECT_EQ(PlruStateCodec(8).words(), 1);
    EXPECT_EQ(PlruStateCodec(16).words(), 2);
    Rng rng(0x5eed);
    for (int assoc : {2, 4, 8, 16}) {
        const PlruStateCodec codec(assoc);
        for (int sequence = 0; sequence < 1000; ++sequence) {
            PlruSetModel model(assoc);
            std::vector<std::uint64_t> key(
                static_cast<std::size_t>(codec.words()));
            codec.pack(model, key.data());
            const auto length = rng.range(1, 8 * assoc);
            for (std::int64_t i = 0; i < length; ++i) {
                const auto line = static_cast<int>(rng.range(0, assoc + 1));
                SCOPED_TRACE("assoc=" + std::to_string(assoc) +
                             " sequence=" + std::to_string(sequence) +
                             " access=" + std::to_string(i));
                ASSERT_EQ(codec.access(key.data(), line), model.access(line));
                const PlruSetModel unpacked = codec.unpack(key.data());
                ASSERT_EQ(unpacked.contents(), model.contents());
                ASSERT_EQ(unpacked.bits(), model.bits());
                std::vector<std::uint64_t> repacked(key.size());
                codec.pack(unpacked, repacked.data());
                ASSERT_EQ(repacked, key);
                ASSERT_EQ(codec.wayOf(key.data(), 0), model.wayOf(0));
            }
        }
    }
}

TEST(PlruPattern, MeetInTheMiddleAgreesWithExactBfs)
{
    // The W = 8 graph outgrows the expansion cap, so leaves are in
    // play. On seeded (v, u, bound) triples the meet-in-the-middle
    // check must say "path" exactly when the bounded BFS finds u, and
    // the BFS path must be a shortest path from v to u. u is the end of
    // a short random walk over expanded nodes, and v its start, any
    // expanded node, or a leaf, so both answers occur.
    PlruPinGraph graph(8);
    const auto expanded = static_cast<std::int64_t>(graph.expanded());
    const auto nodes = static_cast<std::int64_t>(graph.nodes());
    ASSERT_LT(expanded, nodes);
    Rng rng(0x3117);
    int paths = 0, leaves = 0;
    for (int trial = 0; trial < 2500; ++trial) {
        const auto start = static_cast<int>(rng.range(0, expanded - 1));
        int u = start;
        for (auto steps = rng.range(1, 10); steps > 0; --steps) {
            const int t = graph.next(static_cast<std::size_t>(u),
                                     static_cast<int>(rng.range(1, 9)));
            if (t >= 0 && t < expanded)
                u = t;
        }
        int v = start;
        switch (rng.range(0, 3)) {
          case 0:
            v = static_cast<int>(rng.range(0, expanded - 1));
            break;
          case 1:
            v = static_cast<int>(rng.range(expanded, nodes - 1));
            ++leaves;
            break;
        }
        if (v == u)
            continue;
        const auto bound = static_cast<int>(rng.range(1, 15));
        SCOPED_TRACE("v=" + std::to_string(v) + " u=" + std::to_string(u) +
                     " bound=" + std::to_string(bound));
        const bool meets = graph.reaches(v, u, bound);
        const std::vector<int> path = graph.shortestPath(v, u, bound);
        ASSERT_EQ(meets, !path.empty());
        if (path.empty())
            continue;
        ++paths;
        ASSERT_LE(path.size(), static_cast<std::size_t>(bound));
        int at = v;
        for (int line : path)
            at = graph.next(static_cast<std::size_t>(at), line);
        ASSERT_EQ(at, u);
        ASSERT_FALSE(
            graph.reaches(v, u, static_cast<int>(path.size()) - 1));
    }
    EXPECT_GT(paths, 500);
    EXPECT_GT(leaves, 300);
}

TEST(PlruPattern, TwoWayCacheAdmitsNoPinPattern)
{
    // With W = 2, filling the only non-pinned way necessarily points
    // the tree at the pinned line, so no miss-bearing cycle can avoid
    // evicting it. The finder must prove this by exhaustion.
    EXPECT_FALSE(findPinPattern(2, 20).has_value());
}

TEST(PlruPattern, SetModelMatchesFig3Walkthrough)
{
    // Replay Fig. 3 exactly: ids 0=A 1=B 2=C 3=D 4=E.
    PlruSetModel model(4);
    // Fig. 3(1): [B C D E], candidate B.
    EXPECT_TRUE(model.access(1)); // B: miss (cold fill)
    EXPECT_TRUE(model.access(2)); // C
    EXPECT_TRUE(model.access(3)); // D
    EXPECT_TRUE(model.access(4)); // E
    EXPECT_FALSE(model.access(3)); // D again: hit, sets candidate B
    EXPECT_EQ(model.evictionCandidate(), 1);

    // (1)->(2): A fills over B, candidate becomes E.
    EXPECT_TRUE(model.access(0));
    EXPECT_EQ(model.render(), "[A C D E]");
    EXPECT_EQ(model.evictionCandidate(), 4);

    // P/A pattern (B,C,E,C,D,C): misses at B, E, D; A never evicted.
    EXPECT_TRUE(model.access(1));  // (2)->(3) B evicts E
    EXPECT_EQ(model.render(), "[A C D B]");
    EXPECT_FALSE(model.access(2)); // (3)->(4) C hit
    EXPECT_TRUE(model.access(4));  // (4)->(5) E evicts D
    EXPECT_EQ(model.render(), "[A C E B]");
    EXPECT_EQ(model.evictionCandidate(), 0) << "A is candidate at (5)";
    EXPECT_FALSE(model.access(2)); // (5)->(6) C hit protects A
    EXPECT_TRUE(model.access(3));  // (6)->(7) D evicts B
    EXPECT_EQ(model.render(), "[A C E D]");
    EXPECT_FALSE(model.access(2)); // (7)->(8) C hit
    EXPECT_TRUE(model.contains(0)) << "A survived the whole period";
}

TEST(ArbitraryMagnifier, DelayedInputCreatesCascade)
{
    // Deterministic per-set policy: the chain reaction is clean.
    MachineConfig mc = MachineConfig::randomL1Profile();
    mc.memory.l1.policy = PolicyKind::Lru;
    Machine machine(mc);
    ArbitraryMagnifierConfig config;
    config.numSets = 32;
    config.repeats = 40;
    ArbitraryMagnifier magnifier(machine, config);
    const Cycle delta = magnifier.measureDelta();
    // The cascade must dwarf the initial ~200-cycle input delay.
    EXPECT_GT(delta, 10000u);
}

TEST(ArbitraryMagnifier, DeltaGrowsWithRepeats)
{
    MachineConfig mc = MachineConfig::randomL1Profile();
    mc.memory.l1.policy = PolicyKind::Lru;
    Machine machine(mc);
    Cycle previous = 0;
    for (int repeats : {10, 40, 160}) {
        ArbitraryMagnifierConfig config;
        config.numSets = 32;
        config.repeats = repeats;
        ArbitraryMagnifier magnifier(machine, config);
        const Cycle delta = magnifier.measureDelta();
        EXPECT_GT(delta, previous * 2) << "repeats=" << repeats;
        previous = delta;
    }
    // 160 iterations must beat a 5 us browser tick by a wide margin.
    EXPECT_GT(previous, 100000u);
}

TEST(ArbitraryMagnifier, WithoutPrefetchingSaturates)
{
    MachineConfig mc = MachineConfig::randomL1Profile();
    mc.memory.l1.policy = PolicyKind::Lru;
    Machine machine(mc);
    ArbitraryMagnifierConfig config;
    config.numSets = 32;
    config.prefetch = false;

    config.repeats = 4;
    ArbitraryMagnifier small(machine, config);
    const Cycle small_delta = small.measureDelta();

    config.repeats = 64;
    ArbitraryMagnifier large(machine, config);
    const Cycle large_delta = large.measureDelta();

    // Without restoration the chain reaction dies after the first pass:
    // growth must be far less than proportional (16x repeats).
    EXPECT_LT(large_delta, small_delta * 8)
        << "prefetch-free magnification must be bounded by the set count";
}

TEST(ArbitraryMagnifier, WorksAcrossReplacementPolicies)
{
    // Section 6.3's point: any per-set policy is exploitable. Random
    // replacement is the weakest in our model: restoring prefetch
    // fills evict already-restored lines, so its magnification is
    // noise-bounded but still present (see EXPERIMENTS.md).
    for (PolicyKind policy : {PolicyKind::Random, PolicyKind::Lru,
                              PolicyKind::Nru, PolicyKind::Srrip}) {
        MachineConfig mc = MachineConfig::randomL1Profile();
        mc.memory.l1.policy = policy;
        Machine machine(mc);
        ArbitraryMagnifierConfig config;
        config.numSets = 32;
        config.repeats = 40;
        ArbitraryMagnifier magnifier(machine, config);
        const Cycle floor =
            policy == PolicyKind::Random ? 400u : 4000u;
        EXPECT_GT(magnifier.measureDelta(), floor)
            << "policy=" << policyKindName(policy);
    }
}

TEST(ArithMagnifier, DelayedInputCreatesContention)
{
    Machine machine;
    ArithMagnifierConfig config;
    config.stages = 500;
    ArithMagnifier magnifier(machine, config);
    const Cycle delta = magnifier.measureDelta();
    EXPECT_GT(delta, 500u)
        << "divider contention must amplify the initial delay";
}

TEST(ArithMagnifier, DeltaGrowsWithStages)
{
    Machine machine;
    Cycle previous = 0;
    for (int stages : {200, 800, 3200}) {
        ArithMagnifierConfig config;
        config.stages = stages;
        ArithMagnifier magnifier(machine, config);
        const Cycle delta = magnifier.measureDelta();
        EXPECT_GT(delta, previous) << "stages=" << stages;
        previous = delta;
    }
}

TEST(ArithMagnifier, UsesNoCacheBeyondTheHeads)
{
    Machine machine;
    ArithMagnifierConfig config;
    config.stages = 100;
    ArithMagnifier magnifier(machine, config);
    const auto &l1 = machine.hierarchy().l1();
    magnifier.run(true);
    const std::uint64_t misses_before = l1.stats().misses;
    magnifier.run(true);
    // Only sync + two head lines can miss per run.
    EXPECT_LE(l1.stats().misses - misses_before, 3u);
}

TEST(ArithMagnifier, TimerInterruptFreezesTheDelta)
{
    // Fig. 12's saturation: once the runtime crosses the interrupt
    // interval, the drain re-aligns the paths and the delta stops
    // growing.
    MachineConfig mc;
    mc.withInterrupts(0.05); // 100k cycles: small for test speed
    Machine machine(mc);

    ArithMagnifierConfig config;
    config.stages = 3200; // runtime spans several interrupt intervals
    ArithMagnifier capped(machine, config);
    const Cycle capped_delta = capped.measureDelta();

    Machine free_machine; // no interrupts
    ArithMagnifier free(free_machine, config);
    const Cycle free_delta = free.measureDelta();

    EXPECT_LT(capped_delta, free_delta)
        << "pipeline resets must limit stateless magnification";
}

} // namespace
} // namespace hr
