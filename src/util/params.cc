#include "util/params.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <tuple>

#include "obs/log.hh"

namespace hr
{

std::size_t
editDistance(const std::string &a, const std::string &b)
{
    // Single-row Levenshtein; fine for key/name-sized strings.
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t diag = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::size_t sub =
                diag + (a[i - 1] == b[j - 1] ? 0 : 1);
            diag = row[j];
            row[j] = std::min({row[j] + 1, row[j - 1] + 1, sub});
        }
    }
    return row[b.size()];
}

std::string
closestMatch(const std::string &needle,
             const std::vector<std::string> &candidates)
{
    std::string best;
    std::size_t best_distance = ~std::size_t{0};
    for (const std::string &candidate : candidates) {
        const std::size_t d = editDistance(needle, candidate);
        if (d < best_distance) {
            best_distance = d;
            best = candidate;
        }
    }
    const std::size_t cutoff =
        std::min<std::size_t>(4, needle.size() > 1 ? needle.size() / 2
                                                   : 1);
    return best_distance <= cutoff ? best : std::string();
}

std::optional<long long>
parseInteger(const std::string &text)
{
    char *end = nullptr;
    errno = 0;
    const long long v = std::strtoll(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0' || errno == ERANGE)
        return std::nullopt;
    return v;
}

namespace
{

/** A bound as the range messages print it ("0", "2147483647"). */
std::string
boundText(double bound)
{
    char text[32];
    std::snprintf(text, sizeof text, "%.17g", bound);
    return text;
}

/**
 * Parse @p text as @p spec declares it: an Int or Real value, or a
 * Choice's index. Fatal, naming the key, if it is not one. Int bounds
 * lie within int, so every accepted integer is exact as a double.
 */
double
parseAs(const ParamSpec &spec, const std::string &text)
{
    const std::string got = " (got " + text + ")";
    if (spec.type == ParamSpec::Type::Choice) {
        const auto it =
            std::find(spec.choices.begin(), spec.choices.end(), text);
        if (it != spec.choices.end())
            return static_cast<double>(it - spec.choices.begin());
        std::string names;
        for (const std::string &name : spec.choices)
            names += (names.empty() ? "" : ", ") + name;
        fatal(spec.key + " must be one of " + names + got);
    }
    double v = 0;
    if (spec.type == ParamSpec::Type::Int) {
        const std::optional<long long> parsed = parseInteger(text);
        if (!parsed)
            fatal(spec.key + " must be a base-10 integer in [" +
                  boundText(spec.min) + ", " + boundText(spec.max) + "]" +
                  got);
        v = static_cast<double>(*parsed);
    } else {
        char *end = nullptr;
        v = std::strtod(text.c_str(), &end);
        if (end == text.c_str() || *end != '\0' || !std::isfinite(v))
            fatal(spec.key + " must be a finite number" + got);
    }
    if (v < spec.min)
        fatal(spec.key + " must be >= " + boundText(spec.min) + got);
    if (v > spec.max)
        fatal(spec.key + " must be <= " + boundText(spec.max) + got);
    return v;
}

} // namespace

const ParamSpec *
findKey(const ParamSchema &schema, const std::string &key)
{
    for (const ParamSpec &spec : schema)
        if (spec.key == key)
            return &spec;
    return nullptr;
}

ParamSchema
mergeKeys(ParamSchema into, const ParamSchema &other)
{
    for (const ParamSpec &spec : other) {
        const ParamSpec *mine = findKey(into, spec.key);
        fatalIf(mine && std::tie(mine->type, mine->min, mine->max,
                                 mine->choices) !=
                            std::tie(spec.type, spec.min, spec.max,
                                     spec.choices),
                "parameter " + spec.key + " is declared differently by "
                "two merged schemas");
        if (!mine)
            into.push_back(spec);
    }
    return into;
}

std::string
keyList(const ParamSchema &schema, const char *separator)
{
    std::string joined;
    for (const ParamSpec &spec : schema)
        joined += (joined.empty() ? "" : separator) + spec.key;
    return joined;
}

void
requireKey(const ParamSchema &schema, const std::string &key,
           const std::string &subject)
{
    if (findKey(schema, key))
        return;
    std::vector<std::string> keys;
    for (const ParamSpec &spec : schema)
        keys.push_back(spec.key);
    const std::string suggestion = closestMatch(key, keys);
    fatal(subject + ": unknown parameter '" + key + "'" +
          (suggestion.empty() ? ""
                              : " (did you mean '" + suggestion + "'?)") +
          "; valid keys: " +
          (keys.empty() ? "(none)" : keyList(schema, ", ")));
}

void
ParamSet::set(const std::string &key, const std::string &value)
{
    entries_[key] = value;
}

void
ParamSet::setFromArg(const std::string &arg)
{
    const auto eq = arg.find('=');
    fatalIf(eq == std::string::npos || eq == 0,
            "parameter must be key=value, got '" + arg + "'");
    set(arg.substr(0, eq), arg.substr(eq + 1));
}

bool
ParamSet::has(const std::string &key) const
{
    return entries_.count(key) != 0;
}

std::string
ParamSet::get(const std::string &key, const std::string &def) const
{
    const auto it = entries_.find(key);
    return it == entries_.end() ? def : it->second;
}

int
ParamSet::getInt(const std::string &key, int def) const
{
    const auto it = entries_.find(key);
    return it == entries_.end()
               ? def
               : static_cast<int>(parseAs(intKey(key), it->second));
}

double
ParamSet::getDouble(const std::string &key, double def) const
{
    const auto it = entries_.find(key);
    return it == entries_.end()
               ? def
               : parseAs(realKey(key, std::numeric_limits<double>::lowest()),
                         it->second);
}

bool
ParamSet::getBool(const std::string &key, bool def) const
{
    const auto it = entries_.find(key);
    return it == entries_.end() ? def
                                : parseAs(boolKey(key), it->second) < 4;
}

ParamSet
ParamSet::overriddenBy(const ParamSet &other) const
{
    ParamSet merged = *this;
    for (const auto &[key, value] : other.entries_)
        merged.entries_[key] = value;
    return merged;
}

void
ParamSet::check(const ParamSchema &schema, const std::string &subject) const
{
    for (const auto &[key, value] : entries_) {
        requireKey(schema, key, subject);
        parseAs(*findKey(schema, key), value);
    }
}

} // namespace hr
