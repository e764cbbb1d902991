/**
 * @file
 * String-keyed parameter set with typed accessors, and the declared
 * key schema it is checked against.
 *
 * ParamSet is the universal "loose configuration" currency: scenario
 * parameters (`--param key=value`), gadget construction overrides
 * (GadgetRegistry::make), and sweep grid points all travel as one of
 * these. Every gadget, channel, noise workload and scenario declares
 * the keys it reads once, as a ParamSchema (name, type, inclusive
 * bounds); ParamSet::check() validates a set against it before
 * anything is built. Defaults stay in the consumers' config structs.
 */

#ifndef HR_UTIL_PARAMS_HH
#define HR_UTIL_PARAMS_HH

#include <initializer_list>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace hr
{

/** Levenshtein edit distance (typo suggestions). */
std::size_t editDistance(const std::string &a, const std::string &b);

/**
 * The candidate closest to @p needle by edit distance, or "" when
 * nothing is close enough to plausibly be a typo (distance must be
 * under half the needle's length, and at most 4).
 */
std::string closestMatch(const std::string &needle,
                         const std::vector<std::string> &candidates);

/**
 * The one integer parser (parameter values, `--grid lo:hi[:step]`, CLI
 * flags): all of @p text in base 10; empty on junk or overflow.
 */
std::optional<long long> parseInteger(const std::string &text);

/** One declared parameter key: its type and inclusive bounds. */
struct ParamSpec
{
    enum class Type { Int, Real, Choice };
    std::string key;
    Type type = Type::Int;
    /** Inclusive bounds (Int and Real; Real values must be finite). */
    double min = std::numeric_limits<int>::min();
    double max = std::numeric_limits<int>::max();
    std::vector<std::string> choices; ///< the names a Choice accepts
};

/** The keys one gadget, channel, noise workload or scenario reads. */
using ParamSchema = std::vector<ParamSpec>;

/** An integer key in [@p min, INT_MAX]. */
inline ParamSpec
intKey(std::string key, int min = std::numeric_limits<int>::min())
{
    return {std::move(key), ParamSpec::Type::Int, static_cast<double>(min),
            std::numeric_limits<int>::max(), {}};
}

/** A finite real key, at least @p min. */
inline ParamSpec
realKey(std::string key, double min)
{
    return {std::move(key), ParamSpec::Type::Real, min,
            std::numeric_limits<double>::max(), {}};
}

/** A key naming one of @p choices. */
inline ParamSpec
choiceKey(std::string key, std::vector<std::string> choices)
{
    return {std::move(key), ParamSpec::Type::Choice, 0, 0,
            std::move(choices)};
}

/** A boolean key; getBool reads the first four spellings as true. */
inline ParamSpec
boolKey(std::string key)
{
    return choiceKey(std::move(key), {"1", "true", "yes", "on", "0",
                                      "false", "no", "off"});
}

/** The declaration of @p key in @p schema; nullptr if undeclared. */
const ParamSpec *findKey(const ParamSchema &schema, const std::string &key);

/** @p into plus @p other's new keys (fatal if one differs in both). */
ParamSchema mergeKeys(ParamSchema into, const ParamSchema &other);

/** The keys in declaration order, joined by @p separator. */
std::string keyList(const ParamSchema &schema, const char *separator = ",");

/**
 * Fatal unless @p schema declares @p key, naming @p subject (e.g.
 * "gadget 'pa_race'"), listing the valid keys and suggesting the
 * nearest ("did you mean 'slow_ops'?").
 */
void requireKey(const ParamSchema &schema, const std::string &key,
                const std::string &subject);

/** String-keyed parameters with typed accessors. */
class ParamSet
{
  public:
    ParamSet() = default;
    ParamSet(std::initializer_list<std::pair<const std::string,
                                             std::string>> entries)
        : entries_(entries)
    {
    }

    void set(const std::string &key, const std::string &value);

    /** Parse "key=value" (fatal if '=' is missing). */
    void setFromArg(const std::string &arg);

    bool has(const std::string &key) const;
    std::string get(const std::string &key, const std::string &def) const;
    /** As an int / finite real / bool (fatal, naming the key, if not). */
    int getInt(const std::string &key, int def) const;
    double getDouble(const std::string &key, double def) const;
    bool getBool(const std::string &key, bool def) const;

    /** Union: entries of @p other override entries of *this. */
    ParamSet overriddenBy(const ParamSet &other) const;

    /**
     * Fatal unless @p schema declares every key (requireKey) and each
     * value is its declared type, in bounds: "KEY must be >= MIN (got V)".
     */
    void check(const ParamSchema &schema,
               const std::string &subject) const;

    const std::map<std::string, std::string> &entries() const
    {
        return entries_;
    }

  private:
    std::map<std::string, std::string> entries_;
};

} // namespace hr

#endif // HR_UTIL_PARAMS_HH
