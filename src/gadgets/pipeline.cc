#include "gadgets/pipeline.hh"

#include "obs/log.hh"

namespace hr
{
namespace
{

TimerConfig
machineClock(const Machine &machine, TimerConfig config)
{
    config.ghz = machine.config().ghz;
    return config;
}

} // namespace

Pipeline::Pipeline(Machine &machine, std::string name,
                   const PipelineConfig &config)
    : TimingSource(machine), name_(std::move(name)),
      rounds_(config.rounds), clock_(machineClock(machine, config.timer))
{
    fatalIf(rounds_ < 1, "pipeline: rounds must be >= 1");
}

Pipeline &
Pipeline::then(std::unique_ptr<TimingSource> stage)
{
    fatalIf(&stage->machine() != &machine_,
            "pipeline: stage " + stage->name() +
                " is bound to another machine");
    stages_.push_back(std::move(stage));
    return *this;
}

std::string
Pipeline::name() const
{
    if (!name_.empty())
        return name_;
    std::string joined;
    for (const auto &stage : stages_)
        joined += (joined.empty() ? "" : "|") + stage->name();
    return "pipeline(" + joined + ")";
}

TimingSource &
Pipeline::amplifier() const
{
    fatalIf(stages_.empty(), "pipeline: no stages (use then())");
    TimingSource &amp = *stages_.back();
    fatalIf(!amp.isAmplifier(),
            "pipeline: final stage " + amp.name() + " is not an "
            "amplifier");
    return amp;
}

double
Pipeline::observeNs(bool present)
{
    TimingSource &amp = amplifier();
    const auto lines = amp.inputLines();
    for (std::size_t i = 0; i + 1 < stages_.size(); ++i) {
        TimingSource &encoder = *stages_[i];
        fatalIf(!encoder.isEncoder(), "pipeline: stage " +
                                          encoder.name() +
                                          " is not an encoder");
        encoder.bindTarget(lines.first, lines.second);
        encoder.primeEncoder(present);
    }
    amp.prepare();
    for (std::size_t i = 0; i + 1 < stages_.size(); ++i)
        stages_[i]->transmit(present);
    const double begin = clock_.nowNs(machine_.now());
    amp.amplify();
    return clock_.nowNs(machine_.now()) - begin;
}

void
Pipeline::calibrate()
{
    TimingSource &amp = amplifier();
    calibration_ = calibrateThreshold(
        [&](bool slow) {
            double ns = 0;
            for (int round = 0; round < rounds_; ++round) {
                amp.prepare();
                amp.forceInput(slow);
                const double begin = clock_.nowNs(machine_.now());
                amp.amplify();
                ns += clock_.nowNs(machine_.now()) - begin;
            }
            return ns;
        },
        name() + "::calibrate");
    calibrated_ = true;
}

TimingSample
Pipeline::sample(bool secret)
{
    TimingSource &amp = amplifier();
    // Uniform polarity: secret == true must read slow, whatever the
    // amplifier's input convention.
    const bool present = secret == amp.presentMeansSlow();
    TimingSample s;
    const Cycle t0 = machine_.now();
    for (int round = 0; round < rounds_; ++round)
        s.ns += observeNs(present);
    s.cycles = machine_.now() - t0;
    s.bit = calibrated_ && calibration_.isSlow(s.ns);
    return s;
}

} // namespace hr
