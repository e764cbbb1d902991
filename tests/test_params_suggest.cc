/**
 * @file
 * ParamSet unknown-key validation and typo-suggestion tests, plus the
 * registry close-match behaviour they feed (`hr_bench run <typo>` and
 * `hr_bench sweep --grid <typo>` must fail usefully).
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "exp/registry.hh"
#include "gadgets/gadget_registry.hh"
#include "util/params.hh"

namespace hr
{
namespace
{

std::string
messageOf(const std::function<void()> &action)
{
    try {
        action();
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "";
}

TEST(ParamSuggest, EditDistanceBasics)
{
    EXPECT_EQ(editDistance("", ""), 0u);
    EXPECT_EQ(editDistance("abc", "abc"), 0u);
    EXPECT_EQ(editDistance("abc", ""), 3u);
    EXPECT_EQ(editDistance("kitten", "sitting"), 3u);
    EXPECT_EQ(editDistance("slowops", "slow_ops"), 1u);
}

TEST(ParamSuggest, ClosestMatchPicksNearest)
{
    const std::vector<std::string> keys = {"slow_ops", "fast_ops",
                                           "counter_unroll"};
    EXPECT_EQ(closestMatch("slowops", keys), "slow_ops");
    EXPECT_EQ(closestMatch("fast_osp", keys), "fast_ops");
    // Nothing plausibly close: no suggestion.
    EXPECT_EQ(closestMatch("zzzzzzzzzz", keys), "");
}

TEST(ParamSuggest, RequireKeysListsValidAndSuggests)
{
    ParamSet params;
    params.set("slowops", "8");
    const std::string message = messageOf([&] {
        params.requireKeys({"slow_ops", "fast_ops"}, "gadget 'x'");
    });
    EXPECT_NE(message.find("unknown parameter 'slowops'"),
              std::string::npos);
    EXPECT_NE(message.find("did you mean 'slow_ops'?"),
              std::string::npos);
    EXPECT_NE(message.find("slow_ops, fast_ops"), std::string::npos);

    // Valid keys pass silently.
    ParamSet good;
    good.set("fast_ops", "4");
    EXPECT_NO_THROW(
        good.requireKeys({"slow_ops", "fast_ops"}, "gadget 'x'"));
}

TEST(ParamSuggest, GadgetMakeRejectsTypoWithSuggestion)
{
    ParamSet params;
    params.set("slowops", "8");
    const std::string message = messageOf([&] {
        Machine machine;
        GadgetRegistry::instance().make("smt_contention", machine, params);
    });
    EXPECT_NE(message.find("did you mean 'slow_ops'?"),
              std::string::npos);
}

TEST(ParamSuggest, GadgetResolveSuggestsName)
{
    const std::string message = messageOf([&] {
        GadgetRegistry::instance().resolve("smt_contenton");
    });
    EXPECT_NE(message.find("did you mean 'smt_contention'?"),
              std::string::npos);
}

TEST(ParamSuggest, ScenarioResolveSuggestsName)
{
    // The registry is empty in this test binary unless scenarios were
    // linked; register nothing and just exercise the no-match path.
    const std::string message = messageOf(
        [&] { ScenarioRegistry::instance().resolve("no_such_name"); });
    EXPECT_NE(message.find("no scenario matches"), std::string::npos);
}

} // namespace
} // namespace hr
