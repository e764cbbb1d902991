#include "util/params.hh"

#include <algorithm>
#include <cstdlib>

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

long long
ParamSet::getInt(const std::string &key, long long def) const
{
    const auto it = entries_.find(key);
    if (it == entries_.end())
        return def;
    char *end = nullptr;
    const long long v = std::strtoll(it->second.c_str(), &end, 0);
    fatalIf(end == it->second.c_str() || *end != '\0',
            "parameter " + key + ": '" + it->second + "' is not an integer");
    return v;
}

double
ParamSet::getDouble(const std::string &key, double def) const
{
    const auto it = entries_.find(key);
    if (it == entries_.end())
        return def;
    char *end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    fatalIf(end == it->second.c_str() || *end != '\0',
            "parameter " + key + ": '" + it->second + "' is not a number");
    return v;
}

bool
ParamSet::getBool(const std::string &key, bool def) const
{
    const auto it = entries_.find(key);
    if (it == entries_.end())
        return def;
    const std::string &v = it->second;
    if (v == "1" || v == "true" || v == "yes" || v == "on")
        return true;
    if (v == "0" || v == "false" || v == "no" || v == "off")
        return false;
    fatal("parameter " + key + ": '" + v + "' is not a boolean");
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
ParamSet::requireKeys(const std::vector<std::string> &allowed,
                      const std::string &subject) const
{
    for (const auto &[key, value] : entries_) {
        if (std::find(allowed.begin(), allowed.end(), key) !=
            allowed.end()) {
            continue;
        }
        std::string known;
        for (const std::string &name : allowed)
            known += (known.empty() ? "" : ", ") + name;
        if (known.empty())
            known = "(none)";
        const std::string suggestion = closestMatch(key, allowed);
        fatal(subject + ": unknown parameter '" + key + "'" +
              (suggestion.empty() ? ""
                                  : " (did you mean '" + suggestion +
                                        "'?)") +
              "; valid keys: " + known);
    }
}

} // namespace hr
