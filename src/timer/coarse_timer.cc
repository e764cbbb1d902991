#include "timer/coarse_timer.hh"

#include <cmath>

#include "obs/log.hh"

namespace hr
{

CoarseTimer::CoarseTimer(const TimerConfig &config)
    : config_(config), rng_(config.rngSeed)
{
    fatalIf(config_.ghz <= 0, "CoarseTimer: bad clock");
    fatalIf(config_.resolutionNs <= 0, "CoarseTimer: bad resolution");
}

double
CoarseTimer::exactNs(Cycle cycle) const
{
    return static_cast<double>(cycle) / config_.ghz;
}

double
CoarseTimer::nowNs(Cycle cycle)
{
    double t = exactNs(cycle);
    if (config_.jitterNs > 0)
        t += rng_.uniform() * config_.jitterNs;
    return std::floor(t / config_.resolutionNs) * config_.resolutionNs;
}

double
CoarseTimer::elapsedNs(Cycle start, Cycle end)
{
    // A zero-length interval reads exactly zero: drawing jitter
    // independently for both endpoints could otherwise report a full
    // tick for no elapsed time at all.
    if (start == end)
        return 0.0;
    // Independent edge fuzzing can also quantize the end before the
    // start; a real clock read never goes backwards, so clamp.
    const double elapsed = nowNs(end) - nowNs(start);
    return elapsed < 0.0 ? 0.0 : elapsed;
}

bool
CoarseTimer::distinguishable(Cycle a, Cycle b) const
{
    const double da = exactNs(a);
    const double db = exactNs(b);
    return std::abs(da - db) >= config_.resolutionNs;
}

} // namespace hr
