#include "exp/scenario.hh"

#include "exp/parallel.hh"
#include "obs/log.hh"
#include "obs/progress.hh"
#include "sim/profiles.hh"

namespace hr
{

ScenarioContext::ScenarioContext(
    int trials, int jobs, std::uint64_t base_seed, std::string profile_name,
    ParamSet params, bool lockstep)
    : trials_(trials), jobs_(jobs), lockstep_(lockstep),
      baseSeed_(base_seed),
      profileName_(std::move(profile_name)), params_(std::move(params))
{
    fatalIf(trials_ < 1, "trial count must be >= 1");
    fatalIf(jobs_ < 1, "job count must be >= 1");
}

MachineConfig
ScenarioContext::machineConfig() const
{
    MachineConfig config = machineConfigForProfile(profileName_);
    // The forwarding engine is a pure-speedup knob: flipping it only
    // bypasses the periodic-loop fast path.
    config.core.lockstep = lockstep_;
    return config;
}

MachineConfig
ScenarioContext::machineConfig(int index) const
{
    MachineConfig config = machineConfig();
    const std::uint64_t mix = indexSeed(index);
    config.memory.rngSeed ^= mix;
    config.memory.l1.rngSeed ^= mix;
    config.memory.l2.rngSeed ^= mix;
    config.memory.l3.rngSeed ^= mix;
    return config;
}

void
ScenarioContext::reseedMachine(Machine &machine,
                               const MachineConfig &base,
                               std::uint64_t mix)
{
    // The machine's own configuration supplies the base seeds, so
    // @p base must agree with it (it always has: pools are built from
    // the config passed here).
    const HierarchyConfig &own = machine.config().memory;
    fatalIf(base.memory.rngSeed != own.rngSeed ||
                base.memory.l1.rngSeed != own.l1.rngSeed ||
                base.memory.l2.rngSeed != own.l2.rngSeed ||
                base.memory.l3.rngSeed != own.l3.rngSeed,
            "reseedMachine: base config noise seeds differ from the "
            "machine's own configuration");
    machine.reseedNoise(mix);
}

void
ScenarioContext::reseedMachine(Machine &machine, int index) const
{
    reseedMachine(machine, machineConfig(), indexSeed(index));
}

void
ScenarioContext::forEachIndex(int count, const IndexBody &body) const
{
    parallelFor(count, jobs_, [&](int index) {
        body(index);
        progressAdvance();
    });
}

} // namespace hr
