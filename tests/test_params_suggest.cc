/**
 * @file
 * ParamSet unknown-key validation and typo-suggestion tests, plus the
 * registry close-match behaviour they feed (`hr_bench run <typo>` and
 * `hr_bench sweep --grid <typo>` must fail usefully), and a walk over
 * every registered gadget's and channel's parameter declaration.
 */

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>

#include "channel/channel_registry.hh"
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

TEST(ParamSuggest, CheckListsValidKeysAndSuggests)
{
    const ParamSchema schema = {intKey("slow_ops"), intKey("fast_ops")};
    ParamSet params;
    params.set("slowops", "8");
    const std::string message =
        messageOf([&] { params.check(schema, "gadget 'x'"); });
    EXPECT_NE(message.find("unknown parameter 'slowops'"),
              std::string::npos);
    EXPECT_NE(message.find("did you mean 'slow_ops'?"),
              std::string::npos);
    EXPECT_NE(message.find("slow_ops, fast_ops"), std::string::npos);

    // Valid keys pass silently.
    ParamSet good;
    good.set("fast_ops", "4");
    EXPECT_NO_THROW(good.check(schema, "gadget 'x'"));
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

/** Every registered gadget's and channel's declaration, by subject. */
std::vector<std::pair<std::string, const ParamSchema *>>
registeredSchemas()
{
    std::vector<std::pair<std::string, const ParamSchema *>> out;
    for (const GadgetInfo *info : GadgetRegistry::instance().all())
        out.emplace_back("gadget '" + info->name + "'", &info->params);
    for (const ChannelInfo *info : ChannelRegistry::instance().all())
        out.emplace_back("channel '" + info->name + "'", &info->params);
    return out;
}

TEST(ParamSchema, EveryIntegerKeyHoldsItsBounds)
{
    // Checks only: no machine is built, so this walk stays cheap.
    for (const auto &[subject, schema] : registeredSchemas()) {
        for (const ParamSpec &spec : *schema) {
            if (spec.type != ParamSpec::Type::Int)
                continue;
            SCOPED_TRACE(subject + " " + spec.key);
            const auto lo = static_cast<long long>(spec.min);
            const auto hi = static_cast<long long>(spec.max);
            EXPECT_LE(hi, std::numeric_limits<int>::max());
            for (const long long inside : {lo, hi}) {
                const ParamSet ok = {{spec.key, std::to_string(inside)}};
                EXPECT_NO_THROW(ok.check(*schema, subject));
            }
            for (const long long outside : {lo - 1, hi + 1}) {
                const ParamSet bad = {
                    {spec.key, std::to_string(outside)}};
                const std::string message =
                    messageOf([&] { bad.check(*schema, subject); });
                EXPECT_NE(message.find(spec.key + " must be "),
                          std::string::npos)
                    << message;
            }
        }
    }
}

std::set<std::string>
keysOf(const ParamSchema &schema)
{
    std::set<std::string> keys;
    for (const ParamSpec &spec : schema)
        keys.insert(spec.key);
    return keys;
}

TEST(ParamSchema, CompositesDeclareTheUnionOfTheirParts)
{
    const GadgetRegistry &gadgets = GadgetRegistry::instance();
    const std::set<std::string> pipeline_own = {"rounds", "resolution_ns",
                                                "jitter_ns"};
    for (const auto &[pipeline, encoder, amplifier] :
         {std::tuple<const char *, const char *, const char *>{
              "hacky_pipeline", "pa_race", "plru_pa_magnifier"},
          {"reorder_pipeline", "reorder_race",
           "plru_reorder_magnifier"}}) {
        SCOPED_TRACE(pipeline);
        std::set<std::string> expected = pipeline_own;
        for (const char *stage : {encoder, amplifier}) {
            const std::set<std::string> keys =
                keysOf(gadgets.resolve(stage).params);
            expected.insert(keys.begin(), keys.end());
        }
        EXPECT_EQ(keysOf(gadgets.resolve(pipeline).params), expected);
    }

    // A channel declares its gadget's keys plus the same channel-level
    // keys as every other channel.
    std::set<std::string> channel_level;
    for (const ChannelInfo *info : ChannelRegistry::instance().all()) {
        SCOPED_TRACE(info->name);
        std::set<std::string> own = keysOf(info->params);
        for (const std::string &key :
             keysOf(gadgets.resolve(info->gadget).params)) {
            EXPECT_EQ(own.erase(key), 1u) << key;
        }
        if (channel_level.empty())
            channel_level = own;
        EXPECT_EQ(own, channel_level);
    }
    EXPECT_TRUE(channel_level.count("frame_bits"));
}

TEST(ParamSchema, MergeRejectsAKeyDeclaredDifferently)
{
    const ParamSchema schema =
        mergeKeys({intKey("set", 0), intKey("repeats", 1)},
                  {intKey("set", 0), boolKey("racing")});
    EXPECT_EQ(keyList(schema), "set,repeats,racing");
    EXPECT_THROW(mergeKeys(schema, {intKey("repeats", 0)}),
                 std::runtime_error);
}

} // namespace
} // namespace hr
