#include "gadgets/timers.hh"

#include "obs/log.hh"

namespace hr
{

// ---------------------------------------------------------------------
// coarse_timer
// ---------------------------------------------------------------------

CoarseTimerSource::CoarseTimerSource(Machine &machine,
                                     const CoarseTimerSourceConfig &config)
    : TimingSource(machine), config_(config), clock_([&] {
          TimerConfig timer = config.timer;
          timer.ghz = machine.config().ghz;
          return timer;
      }())
{
}

void
CoarseTimerSource::calibrate()
{
    calibration_ = calibrateThresholdLenient(
        [&](bool slow) { return observeNs(slow); });
    calibrated_ = true;
}

TimingSample
CoarseTimerSource::sample(bool secret)
{
    const Cycle t0 = machine_.now();
    const double ns = observeNs(secret);
    TimingSample s;
    s.cycles = machine_.now() - t0;
    s.ns = ns;
    s.bit = calibrated_ && calibration_.isSlow(ns);
    return s;
}

double
CoarseTimerSource::observeNs(bool slow)
{
    ProgramBuilder builder("coarse_probe");
    RegId r = builder.movImm(1);
    builder.opChain(config_.targetOp,
                    static_cast<std::size_t>(slow ? config_.slowOps
                                                  : config_.fastOps),
                    r, 1);
    builder.halt();
    Program program = builder.take();
    const Cycle t0 = machine_.now();
    machine_.run(program);
    return clock_.elapsedNs(t0, machine_.now());
}

// ---------------------------------------------------------------------
// smt_contention
// ---------------------------------------------------------------------

SmtContentionTimer::SmtContentionTimer(Machine &machine,
                                       const SmtContentionConfig &config)
    : TimingSource(machine)
{
    fatalIf(machine_.contexts() < 2,
            "smt_contention needs a machine with >= 2 contexts "
            "(use an smt profile)");
    for (int slow = 0; slow < 2; ++slow) {
        ProgramBuilder builder(slow ? "smt_measured_slow"
                                    : "smt_measured_fast");
        RegId r = builder.movImm(3);
        builder.opChain(config.targetOp,
                        static_cast<std::size_t>(slow ? config.slowOps
                                                      : config.fastOps),
                        r, 1);
        builder.halt();
        measured_[slow] = builder.take();
    }
    // The counter: an endless dependent chain on the same
    // functional-unit class, so its progress rate is set by the
    // shared port the measured chain also occupies.
    ProgramBuilder builder("smt_counter");
    RegId r = builder.movImm(1);
    const std::int32_t loop = builder.newLabel();
    builder.bind(loop);
    for (int i = 0; i < config.counterUnroll; ++i)
        builder.chainOpImm(config.targetOp, r, 1);
    builder.jump(loop);
    counter_ = builder.take();
}

void
SmtContentionTimer::calibrate()
{
    calibration_ = calibrateThreshold(
        [&](bool slow) { return observeCount(slow); },
        "smt_contention::calibrate");
    calibrated_ = true;
}

TimingSample
SmtContentionTimer::sample(bool secret)
{
    const Cycle t0 = machine_.now();
    const double count = observeCount(secret);
    TimingSample s;
    s.cycles = machine_.now() - t0;
    s.ns = count; // the attacker's only reading is the count
    s.aux.emplace_back("count", count);
    s.bit = calibrated_ && calibration_.isSlow(count);
    return s;
}

double
SmtContentionTimer::observeCount(bool slow)
{
    const ContextId counter_ctx =
        static_cast<ContextId>(machine_.contexts() - 1);
    const PerfCounters before =
        machine_.core().contextCounters(counter_ctx);
    machine_.coRun(0, measured_[slow ? 1 : 0], {{counter_ctx, &counter_}});
    const PerfCounters after = machine_.core().contextCounters(counter_ctx);
    return static_cast<double>((after - before).committedInstrs);
}

// ---------------------------------------------------------------------
// l1_contention
// ---------------------------------------------------------------------

L1ContentionTimer::L1ContentionTimer(Machine &machine,
                                     const L1ContentionConfig &config)
    : TimingSource(machine), set_(config.set)
{
    fatalIf(machine_.contexts() < 2,
            "l1_contention needs a machine with >= 2 contexts "
            "(use an smt profile)");
    const auto &l1 = machine_.hierarchy().l1().config();
    fatalIf(set_ >= l1.numSets,
            "l1_contention: set out of range for this L1");
    const int evict = config.evictLines > 0 ? config.evictLines : l1.assoc;

    // The probe: endlessly re-touch the target set `assoc` deep; all
    // hits while the set is undisturbed, misses after the primary
    // evicts it.
    {
        ProgramBuilder builder("l1_probe");
        RegId r = builder.movImm(0);
        const std::int32_t loop = builder.newLabel();
        builder.bind(loop);
        for (int way = 0; way < l1.assoc; ++way)
            builder.loadOrderedInto(r, lineFor(set_, 100 + way));
        builder.jump(loop);
        probe_ = builder.take();
    }

    // Primary variants: identical shape, but the slow one walks
    // conflicting tags in the probe's set while the fast one walks a
    // neighboring set. windowOps of ALU padding per repeat give the
    // probe time to observe the damage.
    for (int slow = 0; slow < 2; ++slow) {
        ProgramBuilder builder(slow ? "l1_evict_slow" : "l1_evict_fast");
        RegId r = builder.movImm(0);
        RegId pad = builder.movImm(1);
        const int set = slow ? set_ : (set_ + 1) % l1.numSets;
        for (int rep = 0; rep < config.repeats; ++rep) {
            for (int i = 0; i < evict; ++i)
                builder.loadOrderedInto(r, lineFor(set, 300 + i));
            builder.opChain(Opcode::Add,
                            static_cast<std::size_t>(config.windowOps),
                            pad, 1);
        }
        builder.halt();
        primary_[slow] = builder.take();
    }

    // First-touch warmup: stage every evictor line in the L2 so the
    // first observation's primary runs at the same speed as every
    // later one (otherwise its cold DRAM misses stretch the window and
    // the probe double-counts during calibration).
    for (int slow = 0; slow < 2; ++slow) {
        const int set = slow ? set_ : (set_ + 1) % l1.numSets;
        for (int i = 0; i < evict; ++i)
            machine_.warm(lineFor(set, 300 + i), 2);
    }
}

Addr
L1ContentionTimer::lineFor(int set, int tag) const
{
    const auto &l1 = machine_.hierarchy().l1().config();
    return (static_cast<Addr>(tag) * static_cast<Addr>(l1.numSets) +
            static_cast<Addr>(set)) *
           static_cast<Addr>(l1.lineBytes);
}

void
L1ContentionTimer::calibrate()
{
    calibration_ = calibrateThreshold(
        [&](bool slow) { return observeMisses(slow); },
        "l1_contention::calibrate");
    calibrated_ = true;
}

TimingSample
L1ContentionTimer::sample(bool secret)
{
    const Cycle t0 = machine_.now();
    const double misses = observeMisses(secret);
    TimingSample s;
    s.cycles = machine_.now() - t0;
    s.ns = misses; // the attacker's reading is the miss count
    s.aux.emplace_back("count", misses);
    s.bit = calibrated_ && calibration_.isSlow(misses);
    return s;
}

double
L1ContentionTimer::observeMisses(bool slow)
{
    const ContextId probe_ctx =
        static_cast<ContextId>(machine_.contexts() - 1);
    // Start each observation with the probe's set resident, so a
    // previous slow observation's evictions cannot bleed into this
    // reading (the real attacker's probe loop has warmed the set long
    // before the measured window opens).
    const int assoc = machine_.hierarchy().l1().config().assoc;
    for (int way = 0; way < assoc; ++way)
        machine_.warm(lineFor(set_, 100 + way), 1);
    const ContextAccessStats before = machine_.contextStats(probe_ctx);
    machine_.coRun(0, primary_[slow ? 1 : 0], {{probe_ctx, &probe_}});
    const ContextAccessStats after = machine_.contextStats(probe_ctx);
    return static_cast<double>((after - before).misses);
}

} // namespace hr
