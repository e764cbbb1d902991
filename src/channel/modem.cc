#include "channel/modem.hh"

#include "obs/log.hh"

namespace hr
{

Modulation
modulationFromName(const std::string &name)
{
    if (name == "ook")
        return Modulation::Ook;
    if (name == "rs2")
        return Modulation::Rs2;
    fatal("unknown modulation '" + name + "' (ook, rs2)");
}

std::string
modulationName(Modulation modulation)
{
    switch (modulation) {
      case Modulation::Ook: return "ook";
      case Modulation::Rs2: return "rs2";
    }
    return "?";
}

Modulator::Modulator(std::unique_ptr<TimingSource> source,
                     Modulation scheme)
    : source_(std::move(source)), scheme_(scheme)
{
    fatalIf(source_ == nullptr, "Modulator: null timing source");
    fatalIf(scheme_ == Modulation::Rs2 && !source_->isAmplifier(),
            "rs2 modulation needs an amplifier-role source; " +
                source_->name() + " is not one");
}

SymbolReading
Modulator::transmit(bool bit)
{
    SymbolReading symbol;
    if (scheme_ == Modulation::Ook) {
        // The source performs one complete encode+measure observation;
        // its own reading (ns or a contention count) is the symbol.
        const TimingSample s = source_->sample(bit);
        symbol.reading = s.ns;
        symbol.cycles = s.cycles;
        return symbol;
    }
    // rs2: the transmitter writes the bit into replacement state, the
    // receiver stretches that state into a duration. Between the two
    // halves the bit exists only in the shared hierarchy (the medium).
    Machine &machine = source_->machine();
    const Cycle t0 = machine.now();
    source_->prepare();
    source_->forceInput(/*slow=*/bit);
    const Cycle amplified = source_->amplify();
    symbol.reading = machine.toNs(amplified);
    symbol.cycles = machine.now() - t0;
    return symbol;
}

void
Demodulator::calibrate(Modulator &modulator, int rounds)
{
    fatalIf(rounds < 1, "Demodulator: calibration rounds must be >= 1");
    // Lenient on purpose: an inseparable channel (the bare coarse
    // clock) is a valid experiment outcome, reported as symbol noise.
    calibration_ = calibrateThresholdLenient([&](bool slow) {
        double total = 0;
        for (int round = 0; round < rounds; ++round)
            total += modulator.transmit(slow).reading;
        return total / rounds;
    });
    // Learn the polarity instead of assuming slow-means-one: some
    // sources' bit == 1 observation is the consistently *short* one.
    inverted_ = calibration_.slowNs < calibration_.fastNs;
    calibrated_ = true;
}

bool
Demodulator::decide(double reading) const
{
    fatalIf(!calibrated_, "Demodulator: decide before calibrate");
    return calibration_.isSlow(reading) != inverted_;
}

} // namespace hr
