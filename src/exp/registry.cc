#include "exp/registry.hh"

#include <algorithm>

#include "obs/log.hh"
#include "util/params.hh"

namespace hr
{

ScenarioRegistry &
ScenarioRegistry::instance()
{
    static ScenarioRegistry registry;
    return registry;
}

void
ScenarioRegistry::add(std::unique_ptr<Scenario> scenario)
{
    fatalIf(find(scenario->name()) != nullptr,
            "duplicate scenario name '" + scenario->name() + "'");
    scenarios_.push_back(std::move(scenario));
}

Scenario *
ScenarioRegistry::find(const std::string &name) const
{
    for (const auto &scenario : scenarios_)
        if (scenario->name() == name)
            return scenario.get();
    return nullptr;
}

Scenario &
ScenarioRegistry::resolve(const std::string &name) const
{
    if (Scenario *exact = find(name))
        return *exact;
    std::vector<Scenario *> matches;
    for (const auto &scenario : scenarios_)
        if (scenario->name().rfind(name, 0) == 0)
            matches.push_back(scenario.get());
    if (matches.size() == 1)
        return *matches.front();
    if (matches.empty()) {
        std::string known;
        std::vector<std::string> names;
        for (Scenario *scenario : all()) {
            known += "\n  " + scenario->name();
            names.push_back(scenario->name());
        }
        const std::string suggestion = closestMatch(name, names);
        fatal("no scenario matches '" + name + "'" +
              (suggestion.empty()
                   ? ""
                   : "; did you mean '" + suggestion + "'?") +
              "; known:" + known);
    }
    std::string candidates;
    for (Scenario *scenario : matches)
        candidates += "\n  " + scenario->name();
    fatal("'" + name + "' is ambiguous; candidates:" + candidates);
}

std::vector<Scenario *>
ScenarioRegistry::all() const
{
    std::vector<Scenario *> out;
    out.reserve(scenarios_.size());
    for (const auto &scenario : scenarios_)
        out.push_back(scenario.get());
    std::sort(out.begin(), out.end(), [](Scenario *a, Scenario *b) {
        return a->name() < b->name();
    });
    return out;
}

ScenarioRegistrar::ScenarioRegistrar(std::unique_ptr<Scenario> scenario)
{
    ScenarioRegistry::instance().add(std::move(scenario));
}

} // namespace hr
