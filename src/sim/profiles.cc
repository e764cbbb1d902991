#include "sim/profiles.hh"

#include "obs/log.hh"
#include "util/params.hh"

namespace hr
{

namespace
{

MachineConfig
makeNoisy()
{
    return MachineConfig::noisyProfile();
}

MachineConfig
makeRandomL1()
{
    return MachineConfig::randomL1Profile();
}

/**
 * plruProfile with the memory-latency jitter of noisyProfile: the
 * Fig. 10 distribution experiment needs realistic spread on top of the
 * 4-way tree-PLRU L1.
 */
MachineConfig
makeNoisyPlru()
{
    MachineConfig config = MachineConfig::plruProfile();
    config.memory.l3Jitter = 8;
    config.memory.memJitter = 30;
    return config;
}

/** Small LLC for brisk eviction-set generation (section 7.4). */
MachineConfig
makeSmallLlc()
{
    MachineConfig config = MachineConfig::plruProfile();
    config.memory.l3.numSets = 256;
    config.memory.l3.assoc = 16;
    config.memory.l3.policy = PolicyKind::Lru;
    return config;
}

/** Two hardware contexts on the default core (contention timers). */
MachineConfig
makeSmt2()
{
    MachineConfig config;
    config.contexts = 2;
    return config;
}

/**
 * Two hardware contexts over the 4-way tree-PLRU L1: the home of the
 * noisy-neighbor sweeps, where the paper's PLRU gadgets run against a
 * co-resident workload.
 */
MachineConfig
makeSmt2Plru()
{
    MachineConfig config = MachineConfig::plruProfile();
    config.contexts = 2;
    return config;
}

const std::vector<MachineProfile> &
profileTable()
{
    static const std::vector<MachineProfile> kProfiles = {
        {"default", "Coffee-Lake-like baseline core and hierarchy",
         &MachineConfig::defaultProfile},
        {"effective_window",
         "small (64-entry) ROB modelling the JIT-expanded 54-JS-op "
         "window of Fig. 8/9",
         &MachineConfig::effectiveWindowProfile},
        {"noisy", "default profile plus L3/memory latency jitter",
         &makeNoisy},
        {"plru", "4-way tree-PLRU 32KB L1 (the paper's W = 4 example)",
         &MachineConfig::plruProfile},
        {"noisy_plru",
         "plru profile plus memory-latency jitter (Fig. 10 spread)",
         &makeNoisyPlru},
        {"random_l1", "8-way random-replacement L1 (section 6.3)",
         &makeRandomL1},
        {"small_llc",
         "plru profile with a 256-set LRU LLC (section 7.4 evsets)",
         &makeSmallLlc},
        {"smt2",
         "default profile with two SMT hardware contexts (contention "
         "timers)",
         &makeSmt2},
        {"smt2_plru",
         "plru profile with two SMT hardware contexts (noisy-neighbor "
         "sweeps)",
         &makeSmt2Plru},
    };
    return kProfiles;
}

} // namespace

const std::vector<MachineProfile> &
machineProfiles()
{
    return profileTable();
}

bool
hasMachineProfile(const std::string &name)
{
    for (const auto &profile : profileTable())
        if (profile.name == name)
            return true;
    return false;
}

MachineConfig
machineConfigForProfile(const std::string &name)
{
    for (const auto &profile : profileTable())
        if (profile.name == name)
            return profile.make();
    std::vector<std::string> names;
    std::string known;
    for (const auto &profile : profileTable()) {
        names.push_back(profile.name);
        known += (known.empty() ? "" : ", ") + profile.name;
    }
    const std::string suggestion = closestMatch(name, names);
    fatal("unknown machine profile '" + name + "'" +
          (suggestion.empty() ? ""
                              : " (did you mean '" + suggestion + "'?)") +
          "; known: " + known);
}

} // namespace hr
