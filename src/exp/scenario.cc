#include "exp/scenario.hh"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "obs/log.hh"
#include "obs/progress.hh"
#include "sim/profiles.hh"

namespace hr
{

ScenarioContext::ScenarioContext(
    int trials, int jobs, std::uint64_t base_seed, std::string profile_name,
    ParamSet params, std::function<void(const std::string &)> progress,
    bool lockstep)
    : trials_(trials), jobs_(jobs), lockstep_(lockstep),
      baseSeed_(base_seed),
      profileName_(std::move(profile_name)), params_(std::move(params)),
      progress_(std::move(progress))
{
    fatalIf(trials_ < 1, "trial count must be >= 1");
    fatalIf(jobs_ < 1, "job count must be >= 1");
}

MachineConfig
ScenarioContext::machineConfig() const
{
    MachineConfig config = machineConfigForProfile(profileName_);
    // The forwarding engine is a pure-speedup knob, deliberately
    // outside machineConfigFingerprint: flipping it must not split
    // DecodeCache sharing, only bypass the periodic-loop fast path.
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
ScenarioContext::note(const std::string &text) const
{
    if (progress_)
        progress_(text);
}

void
ScenarioContext::forEachIndex(int count, const IndexBody &body) const
{
    if (count <= 0)
        return;
    const int workers = std::min(jobs_, count);
    if (workers <= 1) {
        for (int i = 0; i < count; ++i) {
            body(i);
            progressAdvance();
        }
        return;
    }

    std::atomic<int> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex error_mutex;

    auto work = [&]() {
        for (;;) {
            const int i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= count || failed.load(std::memory_order_relaxed))
                return;
            try {
                body(i);
                progressAdvance();
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!error)
                    error = std::current_exception();
                failed.store(true, std::memory_order_relaxed);
                return;
            }
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(workers - 1));
    for (int t = 1; t < workers; ++t)
        threads.emplace_back(work);
    work();
    for (auto &thread : threads)
        thread.join();
    if (error)
        std::rethrow_exception(error);
}

} // namespace hr
