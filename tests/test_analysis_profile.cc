/**
 * @file
 * How the analyzer picks a gadget's profile when the caller names
 * none: one build per candidate profile, on the machine the recording
 * then uses, and with the target's own params. Kept out of
 * test_analysis.cc because it registers gadgets, and the registry is
 * process-wide: every `analyze --all` in the same binary would see
 * them.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "analysis/capacity.hh"
#include "analysis/leakage.hh"
#include "gadgets/gadget_registry.hh"

namespace hr
{
namespace
{

int reorderBuilds = 0;
int neverBuilds = 0;

/** Register the counting gadgets once: plru_reorder_magnifier (no
 * build on default, builds on plru) and one that fits no profile. */
void
registerCountingGadgets()
{
    static const bool registered = [] {
        GadgetInfo reorder;
        reorder.name = "counting_reorder";
        reorder.kind = "amplifier";
        reorder.description = "plru_reorder_magnifier, counting builds";
        reorder.factory = [](Machine &machine, const ParamSet &) {
            ++reorderBuilds;
            return GadgetRegistry::instance().make(
                "plru_reorder_magnifier", machine);
        };
        GadgetRegistry::instance().add(std::move(reorder));
        GadgetInfo never;
        never.name = "counting_never";
        never.kind = "amplifier";
        never.description = "builds on no profile, counting tries";
        never.factory = [](Machine &,
                           const ParamSet &) -> std::unique_ptr<TimingSource> {
            ++neverBuilds;
            return nullptr;
        };
        GadgetRegistry::instance().add(std::move(never));
        return true;
    }();
    (void)registered;
}

TEST(AnalysisProfile, OneBuildPerCandidateProfile)
{
    // default fails, plru builds, and that build is the one recorded
    // and validated: two factory calls. Resolving the profile on a
    // bare machine first made it three.
    registerCountingGadgets();
    reorderBuilds = 0;
    const LeakageReport report =
        analyzeGadget("counting_reorder", "", {}, /*validate=*/true);
    EXPECT_EQ(reorderBuilds, 2);
    EXPECT_EQ(report.profile, "plru");
    EXPECT_EQ(report.status, "ok");
    EXPECT_EQ(report.leakClass, "cache_order");
    EXPECT_TRUE(report.validation.ran);
    EXPECT_TRUE(report.validation.passed);

    reorderBuilds = 0;
    const CapacityReport capacity =
        analyzeGadgetCapacity("counting_reorder", "", {});
    EXPECT_EQ(reorderBuilds, 2);
    EXPECT_EQ(capacity.profile, "plru");
    EXPECT_EQ(capacity.status, "ok");

    // A named profile is the only candidate.
    reorderBuilds = 0;
    EXPECT_EQ(analyzeGadget("counting_reorder", "default", {}, false).status,
              "incompatible");
    EXPECT_EQ(reorderBuilds, 1);
}

TEST(AnalysisProfile, NoFittingProfileFallsBackToSmt2Plru)
{
    registerCountingGadgets();
    neverBuilds = 0;
    const LeakageReport report =
        analyzeGadget("counting_never", "", {}, /*validate=*/true);
    EXPECT_EQ(neverBuilds, 4);
    EXPECT_EQ(report.profile, "smt2_plru");
    EXPECT_EQ(report.status, "incompatible");
    EXPECT_FALSE(report.validation.ran);
}

TEST(AnalysisProfile, ParamsThatChangeCompatibilityChangeTheProfile)
{
    // An 8-way set (default) has no pin pattern shorter than 8 accesses
    // and a 4-way one (plru) has one of 6, so max_len=7 moves
    // plru_pin_magnifier from default to plru. Resolving on the
    // defaults picked default and then failed to build there.
    ParamSet short_period;
    short_period.set("max_len", "7");
    const LeakageReport report = analyzeGadget(
        "plru_pin_magnifier", "", short_period, /*validate=*/true);
    EXPECT_EQ(report.profile, "plru");
    EXPECT_EQ(report.status, "ok");
    EXPECT_TRUE(report.validation.passed);
    const CapacityReport capacity =
        analyzeGadgetCapacity("plru_pin_magnifier", "", short_period);
    EXPECT_EQ(capacity.profile, "plru");
    EXPECT_EQ(capacity.status, "ok");

    const LeakageReport defaults =
        analyzeGadget("plru_pin_magnifier", "", {}, /*validate=*/false);
    EXPECT_EQ(defaults.profile, "default");
    EXPECT_EQ(defaults.status, "ok");
    // Named, the profile is kept even where the params do not fit.
    EXPECT_EQ(analyzeGadget("plru_pin_magnifier", "default", short_period,
                            false)
                  .status,
              "incompatible");
}

TEST(AnalysisProfile, GadgetErrorStopsOnTheProfileItHappenedOn)
{
    ParamSet bad;
    bad.set("max_len", "0");
    const LeakageReport report =
        analyzeGadget("plru_pin_magnifier", "", bad, /*validate=*/true);
    EXPECT_EQ(report.profile, "default");
    EXPECT_NE(report.status.find("error: "), std::string::npos);
    EXPECT_NE(report.status.find("max_len"), std::string::npos);
}

} // namespace
} // namespace hr
