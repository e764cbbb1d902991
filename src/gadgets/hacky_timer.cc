#include "gadgets/hacky_timer.hh"

#include "obs/log.hh"
#include "timer/calibration.hh"

namespace hr
{

HackyTimer::HackyTimer(Machine &machine, const HackyTimerConfig &config)
    : TimingSource(machine), config_(config), coarse_(config.timer)
{
    fatalIf(config_.timer.ghz != machine_.config().ghz,
            "HackyTimer: timer clock must match the machine clock");

    magConfig_ = PlruMagnifier::makeConfig(
        machine_, config_.plruSet,
        config_.magnifierRepeats > 0 ? config_.magnifierRepeats
                                     : autoRepeats(),
        config_.plruTagBase);
    magnifier_ = std::make_unique<PlruMagnifier>(
        machine_, magConfig_, PlruVariant::PresenceAbsence);

    TransientPaRaceConfig race_config;
    race_config.syncAddr = config_.syncAddr;
    race_config.probeAddr = magConfig_.a; // probe is the magnified line
    race_config.refOp = config_.refOp;
    race_config.refOps = config_.refOps;
    race_config.trainRounds = config_.trainRounds;
    race_ = std::make_unique<TransientPaRace>(
        machine_, race_config,
        TargetExpr::loadIndirect(TransientPaRace::kArgReg));
}

int
HackyTimer::autoRepeats() const
{
    // Each pattern period contributes roughly three L1 misses versus
    // six hits; size the traversal so the slow/fast gap spans several
    // timer ticks.
    const auto &mem = machine_.config().memory;
    const double per_period =
        3.0 * static_cast<double>(mem.l2Latency - mem.l1Latency);
    const double target_cycles =
        4.0 * config_.timer.resolutionNs * machine_.config().ghz;
    const int repeats = static_cast<int>(target_cycles / per_period) + 1;
    return std::max(repeats, 16);
}

double
HackyTimer::magnifyAndTime()
{
    const Cycle t0 = machine_.now();
    const double begin = coarse_.nowNs(t0);
    magnifier_->traverse();
    const double end = coarse_.nowNs(machine_.now());
    stats_.cyclesSpent += machine_.now() - t0;
    return end - begin;
}

void
HackyTimer::calibrate()
{
    // Known-fast: probe absent. Known-slow: probe present (inserted the
    // same way the racing gadget would insert it).
    thresholdNs_ = calibrateThreshold(
                       [&](bool slow) {
                           magnifier_->prime();
                           if (slow)
                               machine_.warm(magConfig_.a, 1);
                           return magnifyAndTime();
                       },
                       "HackyTimer::calibrate")
                       .thresholdNs;
}

TimingSample
HackyTimer::sample(bool secret)
{
    if (thresholdNs_ < 0)
        calibrate();
    if (secret)
        machine_.flushLine(kScratch);
    else
        machine_.warm(kScratch, 1);
    const Cycle t0 = machine_.now();
    TimingSample s;
    s.bit = loadIsSlow(kScratch);
    s.cycles = machine_.now() - t0;
    s.ns = machine_.toNs(s.cycles);
    return s;
}

bool
HackyTimer::decide(double observed_ns)
{
    panicIf(thresholdNs_ < 0, "HackyTimer used before calibrate()");
    return observed_ns > thresholdNs_;
}

bool
HackyTimer::loadIsSlow(Addr target)
{
    ++stats_.queries;
    const Cycle t0 = machine_.now();
    race_->train(static_cast<std::int64_t>(config_.trainAddr));
    magnifier_->prime();
    race_->runAttack(static_cast<std::int64_t>(target));
    stats_.cyclesSpent += machine_.now() - t0;
    return decide(magnifyAndTime());
}

bool
HackyTimer::exprIsSlow(const TargetExpr &expr)
{
    ++stats_.queries;
    TransientPaRaceConfig race_config;
    race_config.syncAddr = config_.syncAddr;
    race_config.probeAddr = magConfig_.a;
    race_config.refOp = config_.refOp;
    race_config.refOps = config_.refOps;
    race_config.trainRounds = config_.trainRounds;
    TransientPaRace race(machine_, race_config, expr);

    const Cycle t0 = machine_.now();
    race.train();
    magnifier_->prime();
    race.runAttack();
    stats_.cyclesSpent += machine_.now() - t0;
    return decide(magnifyAndTime());
}

} // namespace hr
