#include "attacks/flush_reload.hh"

#include "obs/log.hh"

namespace hr
{

FlushReloadRepetition::FlushReloadRepetition(
    Machine &machine, const FlushReloadConfig &config)
    : machine_(machine), config_(config)
{
}

RepetitionGadget
FlushReloadRepetition::makeGadget(bool same_addr, bool racing)
{
    FlushReloadStages stages;
    stages.probeAddr = config_.probeAddr;
    stages.otherAddr = config_.otherAddr;
    stages.syncAddr = config_.syncAddr;
    stages.envelopeOps = config_.envelopeOps;
    return makeFlushReloadGadget(machine_, stages, same_addr, racing);
}

FlushReloadOutcome
FlushReloadRepetition::runVariant(bool racing)
{
    FlushReloadOutcome outcome;
    machine_.warm(config_.otherAddr, 1);
    RepetitionGadget same = makeGadget(true, racing);
    outcome.sameAddr = same.run(config_.rounds);
    machine_.warm(config_.otherAddr, 1);
    RepetitionGadget diff = makeGadget(false, racing);
    outcome.diffAddr = diff.run(config_.rounds);
    return outcome;
}

FlushReloadOutcome
FlushReloadRepetition::runPlain()
{
    return runVariant(false);
}

FlushReloadOutcome
FlushReloadRepetition::runWithRacingGadget()
{
    return runVariant(true);
}

} // namespace hr
