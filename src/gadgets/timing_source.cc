#include "gadgets/timing_source.hh"

#include "util/log.hh"

namespace hr
{

double
TimingSample::auxValue(const std::string &key, double def) const
{
    for (const auto &[name, value] : aux)
        if (name == key)
            return value;
    return def;
}

void
TimingSource::bindTarget(Addr, Addr)
{
    fatal(name() + " is not an encoder (bindTarget unsupported)");
}

void
TimingSource::primeEncoder(bool)
{
    fatal(name() + " is not an encoder (primeEncoder unsupported)");
}

void
TimingSource::transmit(bool)
{
    fatal(name() + " is not an encoder (transmit unsupported)");
}

void
TimingSource::prepare()
{
    fatal(name() + " is not an amplifier (prepare unsupported)");
}

std::pair<Addr, Addr>
TimingSource::inputLines()
{
    fatal(name() + " is not an amplifier (inputLines unsupported)");
}

void
TimingSource::forceInput(bool)
{
    fatal(name() + " is not an amplifier (forceInput unsupported)");
}

Cycle
TimingSource::amplify()
{
    fatal(name() + " is not an amplifier (amplify unsupported)");
}

void
Amplifier::calibrate()
{
    calibration_ = calibrateThreshold(
        [&](bool slow) {
            prepare();
            forceInput(slow);
            return machine_.toNs(amplify());
        },
        name() + "::calibrate");
    calibrated_ = true;
}

TimingSample
Amplifier::sample(bool secret)
{
    prepare();
    forceInput(secret);
    TimingSample s;
    s.cycles = amplify();
    s.ns = machine_.toNs(s.cycles);
    s.bit = calibrated_ && calibration_.isSlow(s.ns);
    return s;
}

PolarityStats
measurePolarities(TimingSource &source, int trials)
{
    PolarityStats stats;
    stats.trials = trials;
    double fast_cycles = 0, slow_cycles = 0;
    double fast_reading = 0, slow_reading = 0;
    for (int t = 0; t < trials; ++t) {
        for (bool secret : {false, true}) {
            const TimingSample s = source.sample(secret);
            (secret ? slow_cycles : fast_cycles) +=
                static_cast<double>(s.cycles);
            (secret ? slow_reading : fast_reading) += s.ns;
            stats.correct += s.bit == secret ? 1 : 0;
        }
    }
    if (trials > 0) {
        stats.fastCycles = fast_cycles / trials;
        stats.slowCycles = slow_cycles / trials;
        stats.fastReading = fast_reading / trials;
        stats.slowReading = slow_reading / trials;
    }
    return stats;
}

} // namespace hr
