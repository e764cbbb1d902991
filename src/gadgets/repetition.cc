#include "gadgets/repetition.hh"

#include "obs/log.hh"

namespace hr
{

Cycle
StageBreakdown::total() const
{
    Cycle sum = 0;
    for (Cycle c : cycles)
        sum += c;
    return sum;
}

double
StageBreakdown::percent(std::size_t stage) const
{
    const Cycle sum = total();
    if (sum == 0)
        return 0.0;
    return 100.0 * static_cast<double>(cycles.at(stage)) /
           static_cast<double>(sum);
}

RepetitionGadget::RepetitionGadget(Machine &machine,
                                   std::vector<Stage> stages)
    : machine_(machine), stages_(std::move(stages))
{
    fatalIf(stages_.empty(), "RepetitionGadget: no stages");
}

StageBreakdown
RepetitionGadget::run(int rounds)
{
    StageBreakdown breakdown;
    for (const auto &stage : stages_)
        breakdown.names.push_back(stage.name);
    breakdown.cycles.assign(stages_.size(), 0);

    for (int round = 0; round < rounds; ++round) {
        for (std::size_t s = 0; s < stages_.size(); ++s) {
            if (stages_[s].setup)
                stages_[s].setup(machine_);
            RunResult result = machine_.run(stages_[s].program);
            breakdown.cycles[s] += result.cycles();
        }
    }
    return breakdown;
}

RepetitionGadget
makeFlushReloadGadget(Machine &machine, const FlushReloadStages &stages,
                      bool same_addr, bool racing)
{
    const Addr victim_addr =
        same_addr ? stages.probeAddr : stages.otherAddr;

    // Stage 1: evict — flush the probe line (an eviction-set traversal
    // in a browser; modelled by the clflush-like harness primitive so
    // the stage itself has constant cost).
    RepetitionGadget::Stage evict;
    evict.name = "evict";
    {
        ProgramBuilder builder("fr_evict");
        RegId r = builder.movImm(0);
        builder.opChain(Opcode::Add, 40, r, 1); // fixed eviction work
        builder.halt();
        evict.program = builder.take();
    }
    evict.setup = [probe = stages.probeAddr](Machine &m) {
        m.flushLine(probe);
    };

    // Stage 2: load — the victim's access (same or different line).
    RepetitionGadget::Stage load;
    load.name = "load";
    if (racing) {
        load.program = makeConstantTimeStage(
            TargetExpr::loadLatency(victim_addr), Opcode::Add,
            stages.envelopeOps, stages.syncAddr, "fr_load_raced");
        load.setup = [sync = stages.syncAddr](Machine &m) {
            m.flushLine(sync);
        };
    } else {
        ProgramBuilder builder("fr_load");
        builder.loadAbsolute(victim_addr);
        builder.halt();
        load.program = builder.take();
    }

    // Stage 3: reload — the attacker's probe access.
    RepetitionGadget::Stage reload;
    reload.name = "reload";
    {
        ProgramBuilder builder("fr_reload");
        builder.loadAbsolute(stages.probeAddr);
        builder.halt();
        reload.program = builder.take();
    }

    return RepetitionGadget(machine, {std::move(evict), std::move(load),
                                      std::move(reload)});
}

Program
makeConstantTimeStage(const TargetExpr &payload, Opcode ref_op,
                      int ref_ops, Addr sync_addr, const std::string &name)
{
    ProgramBuilder builder(name);
    RegId sync = builder.loadAbsolute(sync_addr);

    SeqBuilder measurement(builder);
    embedExpression(measurement, sync, payload);

    SeqBuilder baseline(builder);
    RegId base = baseline.binopImm(Opcode::And, sync, 0);
    baseline.opChain(ref_op, static_cast<std::size_t>(ref_ops), base, 1);

    builder.appendInterleaved({measurement.take(), baseline.take()});
    builder.halt();
    return builder.take();
}

void
RepetitionSource::calibrate()
{
    calibration_ = calibrateThresholdLenient(
        [&](bool slow) { return observe(slow).ns; });
    calibrated_ = true;
}

TimingSample
RepetitionSource::sample(bool secret)
{
    TimingSample s = observe(secret);
    s.bit = calibrated_ && calibration_.isSlow(s.ns);
    return s;
}

TimingSample
RepetitionSource::observe(bool secret)
{
    machine_.warm(config_.stages.otherAddr, 1);
    RepetitionGadget gadget = makeFlushReloadGadget(
        machine_, config_.stages, /*same_addr=*/!secret, config_.racing);
    const StageBreakdown breakdown = gadget.run(config_.rounds);
    TimingSample s;
    s.cycles = breakdown.total();
    s.ns = machine_.toNs(s.cycles);
    for (std::size_t i = 0; i < breakdown.names.size(); ++i)
        s.aux.emplace_back(breakdown.names[i],
                           static_cast<double>(breakdown.cycles[i]));
    return s;
}

} // namespace hr
