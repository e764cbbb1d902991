/**
 * @file
 * Program id and decoded-image lifecycle tests.
 *
 * The contract under test: a Machine assigns a Program its id and its
 * decoded image together on the first run, and later runs and copies
 * reuse both; a size-changing in-place mutation gets a fresh id and a
 * new image instead of a stale one; the image lives exactly as long as
 * the Programs that carry it; and ids are process-unique and never
 * recycled (pool reuse or snapshot/restore must not make two different
 * programs collide on one id).
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exp/machine_pool.hh"
#include "isa/decoded_program.hh"
#include "isa/program.hh"
#include "obs/metrics.hh"
#include "sim/machine.hh"
#include "sim/profiles.hh"

namespace hr
{
namespace
{

Program
makeLoads(int count, const std::string &name = "dc_loads")
{
    ProgramBuilder builder(name);
    RegId acc = builder.movImm(1);
    for (int i = 0; i < count; ++i) {
        RegId v =
            builder.loadAbsolute(0x4000 + static_cast<Addr>(i) * 0x40);
        acc = builder.binop(Opcode::Add, acc, v);
    }
    builder.halt();
    return builder.take();
}

TEST(ProgramImage, FirstRunAssignsIdAndImage)
{
    Machine machine(machineConfigForProfile("default"));
    Program program = makeLoads(8);
    EXPECT_EQ(program.id, 0u); // builders always hand out unassigned
    EXPECT_EQ(program.decoded, nullptr);

    const std::uint64_t misses = metrics().decodeMisses.value();
    machine.run(program);
    EXPECT_NE(program.id, 0u);
    ASSERT_NE(program.decoded, nullptr);
    EXPECT_EQ(program.decoded->code.size(), program.code.size());
    EXPECT_EQ(metrics().decodeMisses.value(), misses + 1);
}

TEST(ProgramImage, SecondRunReusesIdAndImage)
{
    Machine machine(machineConfigForProfile("default"));
    Program program = makeLoads(8);
    machine.run(program);
    const std::uint64_t id = program.id;
    const DecodedProgram *image = program.decoded.get();

    const std::uint64_t hits = metrics().decodeHits.value();
    const std::uint64_t misses = metrics().decodeMisses.value();
    machine.run(program);
    EXPECT_EQ(program.id, id);
    EXPECT_EQ(program.decoded.get(), image);
    EXPECT_EQ(metrics().decodeHits.value(), hits + 1);
    EXPECT_EQ(metrics().decodeMisses.value(), misses);
}

TEST(ProgramImage, CopyAfterFirstRunSharesImage)
{
    Machine machine(machineConfigForProfile("default"));
    Program program = makeLoads(8);
    machine.run(program);

    // Decoding reads no machine state, so the copy reuses the image on
    // a machine of another configuration too.
    Program copy = program;
    Machine plru(machineConfigForProfile("plru"));
    const std::uint64_t misses = metrics().decodeMisses.value();
    plru.run(copy);
    EXPECT_EQ(copy.id, program.id);
    EXPECT_EQ(copy.decoded.get(), program.decoded.get());
    EXPECT_EQ(metrics().decodeMisses.value(), misses);
}

TEST(ProgramImage, SizeChangingMutationGetsFreshIdAndImage)
{
    Machine machine(machineConfigForProfile("default"));
    Program program = makeLoads(8);
    machine.run(program);
    const std::uint64_t old_id = program.id;
    const std::shared_ptr<const DecodedProgram> before = program.decoded;

    // Grow the program under its live id: the next run must detect the
    // mismatch, re-decode, and move the program to a fresh id so the
    // stale image is never executed for the new code.
    Program grown = makeLoads(12);
    program.code = grown.code;
    program.numRegs = grown.numRegs;
    const std::uint64_t invalidations =
        metrics().decodeInvalidations.value();
    machine.run(program);
    EXPECT_NE(program.id, old_id);
    EXPECT_NE(program.decoded.get(), before.get());
    EXPECT_EQ(program.decoded->code.size(), grown.code.size());
    EXPECT_EQ(metrics().decodeInvalidations.value(), invalidations + 1);
}

TEST(ProgramImage, SameSizeMutationNeedsIdReset)
{
    Machine machine(machineConfigForProfile("default"));
    Program program = makeLoads(8);
    machine.run(program);
    const std::uint64_t old_id = program.id;
    program.code[1].imm += 0x40; // same size: undetectable in O(1)
#ifndef NDEBUG
    EXPECT_THROW(machine.run(program), std::runtime_error);
#endif
    // The sanctioned way: reset the id, which re-decodes.
    program.id = 0;
    machine.run(program);
    EXPECT_NE(program.id, old_id);
    EXPECT_EQ(program.decoded->code[1].imm, program.code[1].imm);
}

TEST(ProgramImage, ImageIsFreedWithItsProgram)
{
    // Neither the machine nor its pool keeps an image alive once the
    // last Program carrying it is gone.
    MachinePool pool(machineConfigForProfile("default"));
    auto lease = pool.lease();
    std::weak_ptr<const DecodedProgram> image;
    {
        Program program = makeLoads(8);
        lease.machine().run(program);
        image = program.decoded;
        EXPECT_FALSE(image.expired());
    }
    EXPECT_TRUE(image.expired());
}

TEST(ProgramId, AllocationIsUniqueAcrossThreads)
{
    // Regression for the id-collision lifecycle bug: ids come from one
    // process-global atomic counter, so concurrent trial builders can
    // never mint the same id for different programs.
    constexpr int kThreads = 8;
    constexpr int kPerThread = 1000;
    std::vector<std::vector<std::uint64_t>> ids(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            ids[static_cast<std::size_t>(t)].reserve(kPerThread);
            for (int i = 0; i < kPerThread; ++i)
                ids[static_cast<std::size_t>(t)].push_back(
                    allocateProgramId());
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    std::set<std::uint64_t> unique;
    for (const auto &batch : ids)
        for (std::uint64_t id : batch) {
            EXPECT_NE(id, 0u); // 0 is reserved for "unassigned"
            unique.insert(id);
        }
    EXPECT_EQ(unique.size(),
              static_cast<std::size_t>(kThreads) * kPerThread);
}

TEST(ProgramId, RestoreNeverRollsBackIds)
{
    // Snapshot/restore rolls machine state back but must not roll the
    // id allocator back: a program decoded after the restore point
    // must not collide with one decoded before it.
    Machine machine(machineConfigForProfile("default"));
    Machine::Snapshot snap = machine.snapshot();
    Program before = makeLoads(8, "dc_before");
    machine.run(before);
    machine.restore(snap);
    Program after = makeLoads(10, "dc_after");
    machine.run(after);
    EXPECT_NE(after.id, before.id);
    EXPECT_NE(after.decoded.get(), before.decoded.get());
}

} // namespace
} // namespace hr
