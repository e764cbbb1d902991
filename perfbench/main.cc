/**
 * @file
 * hr_perfbench: runs one benchmark workload in one process on one
 * thread and prints one JSON object of raw measurements on stdout.
 * run.py builds this program and turns the report into the metrics
 * named in BENCHMARK.json.
 *
 *   hr_perfbench --workload NAME --seed N --seconds S [--trace-out FILE]
 *                [--emit]
 *
 * The run: kWarmSpins fixed CPU spins (the host anchor), the process's
 * own set-up, then whole passes until the next one would end after S
 * seconds (at least three). Between items, about once a second, a
 * still-cold forked copy of the process times a sample of cold set-ups.
 * With --trace-out it then repeats set-up and one pass with the flight
 * recorder on and writes the Chrome trace to FILE. --emit prints each
 * pass-one table instead of the report (the CLI parity test reads
 * these).
 */

#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/table.hh"
#include "workload.hh"

namespace
{

using Clock = std::chrono::steady_clock;
using perfbench::Outcome;

/**
 * setup_s is the median of samples, each the fastest of kSetupTries
 * cold set-ups in a row: one sample before the first pass and one
 * between items once kSetupEvery seconds have passed since the last,
 * topped up to at least kSetupSamples after the last pass. On a shared
 * host set-up ran 1.5x slower than usual for seconds at a time, every
 * set-up in the process alike; samples spread over the run see past
 * such a stretch, where samples taken in one burst all fall inside it.
 */
constexpr std::size_t kSetupSamples = 7;
constexpr int kSetupTries = 3;
constexpr double kSetupEvery = 1.0;

/** Anchor spins before the set-ups (about 0.3 s on a quiet host). */
constexpr int kWarmSpins = 5;

/**
 * Passes a run makes even when they overrun --seconds: every item gets
 * at least three timings, a pass apart, so that its fastest one sees past
 * a slow stretch of the host shorter than a pass.
 */
constexpr std::size_t kMinPasses = 3;

double
since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * Host anchor: a fixed dependent integer recurrence. Diagnostic only —
 * it tells how fast the host ran, and never scales a metric.
 */
volatile std::uint64_t gAnchorSink;

double
anchorSeconds()
{
    const auto start = Clock::now();
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (int i = 0; i < 40'000'000; ++i)
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    gAnchorSink = x;
    return since(start);
}

/**
 * Seconds of one cold set-up of @p workload. It runs in a forked copy
 * of a process that has not set anything up yet, so the one-time costs
 * a fresh run pays (lazy registry initialisation, first-touch
 * allocations) count every time, and the parent stays cold for the
 * next one.
 */
double
coldSetupSeconds(perfbench::Workload &workload)
{
    int fds[2];
    if (pipe(fds) != 0)
        throw std::runtime_error("cold set-up: pipe failed");
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid < 0)
        throw std::runtime_error("cold set-up: fork failed");
    if (pid == 0) {
        close(fds[0]);
        double seconds = -1;
        try {
            const auto start = Clock::now();
            workload.setup();
            seconds = since(start);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "hr_perfbench: set-up: %s\n", e.what());
        }
        const bool sent =
            write(fds[1], &seconds, sizeof(seconds)) == sizeof(seconds);
        _exit(sent ? 0 : 1);
    }
    close(fds[1]);
    double seconds = -1;
    const bool got =
        read(fds[0], &seconds, sizeof(seconds)) == sizeof(seconds);
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    if (!got || seconds < 0 || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0)
        throw std::runtime_error("cold set-up failed");
    return seconds;
}

/**
 * Cold set-ups on request, from a copy of the process forked before it
 * sets anything up. The copy stays cold for the whole run, so set-ups
 * can be timed between passes, spread over the run, and each one still
 * starts from nothing set up. The copy ends when the request pipe
 * closes: on destruction, or when this process dies.
 */
class ColdSetups
{
  public:
    explicit ColdSetups(perfbench::Workload &workload)
    {
        int request[2], reply[2];
        if (pipe(request) != 0)
            throw std::runtime_error("cold set-ups: pipe failed");
        if (pipe(reply) != 0) {
            close(request[0]);
            close(request[1]);
            throw std::runtime_error("cold set-ups: pipe failed");
        }
        std::fflush(nullptr);
        pid_ = fork();
        if (pid_ < 0)
            throw std::runtime_error("cold set-ups: fork failed");
        if (pid_ == 0) {
            close(request[1]);
            close(reply[0]);
            char byte;
            while (read(request[0], &byte, 1) == 1) {
                double seconds = -1;
                try {
                    seconds = coldSetupSeconds(workload);
                } catch (const std::exception &e) {
                    std::fprintf(stderr, "hr_perfbench: %s\n", e.what());
                }
                if (write(reply[1], &seconds, sizeof(seconds)) !=
                    sizeof(seconds))
                    break;
            }
            _exit(0);
        }
        close(request[0]);
        close(reply[1]);
        request_ = request[1];
        reply_ = reply[0];
    }

    ColdSetups(const ColdSetups &) = delete;
    ColdSetups &operator=(const ColdSetups &) = delete;

    ~ColdSetups()
    {
        close(request_);
        close(reply_);
        waitpid(pid_, nullptr, 0);
    }

    /** The fastest of kSetupTries cold set-ups in a row. */
    double
    fastest()
    {
        double best = once();
        for (int t = 1; t < kSetupTries; ++t)
            best = std::min(best, once());
        return best;
    }

  private:
    double
    once()
    {
        const char byte = 0;
        double seconds = -1;
        if (write(request_, &byte, 1) != 1 ||
            read(reply_, &seconds, sizeof(seconds)) != sizeof(seconds) ||
            seconds < 0)
            throw std::runtime_error("cold set-up failed");
        return seconds;
    }

    pid_t pid_ = -1;
    int request_ = -1;
    int reply_ = -1;
};

/** The CPUs this process may run on (empty if they cannot be read). */
std::vector<int>
allowedCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> cpus;
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &set))
                cpus.push_back(cpu);
    }
    return cpus;
}

/** Run this thread on @p cpus only; a failure leaves it where it was. */
void
pinTo(const std::vector<int> &cpus)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int cpu : cpus)
        CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof(set), &set);
}

/**
 * High-water resident set so far. Read after the first pass: later
 * passes would let it creep with the pass count, which the host's
 * speed decides.
 */
double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** Registry values (counter/gauge value, histogram sum) by name. */
std::map<std::string, double>
registryValues()
{
    std::map<std::string, double> out;
    for (const hr::MetricSample &row : hr::metrics().snapshot())
        out[row.name] = static_cast<double>(
            row.kind == "histogram" ? row.sum : row.value);
    return out;
}

std::map<std::string, double>
registryDelta(const std::map<std::string, double> &before)
{
    std::map<std::string, double> out = registryValues();
    for (auto &[name, value] : out)
        value -= before.at(name);
    return out;
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

std::string
numList(const std::vector<double> &values)
{
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i)
        out += (i ? ", " : "") + num(values[i]);
    return out + "]";
}

std::string
numMap(const std::map<std::string, double> &values)
{
    std::string out = "{";
    for (const auto &[name, value] : values)
        out += (out.size() > 1 ? ", " : "") + hr::jsonQuote(name) + ": " +
               num(value);
    return out + "}";
}

std::string
heldJson(const Outcome::Held &held)
{
    return numMap({{"cycles", double(held.cycles)},
                   {"instrs", double(held.instrs)},
                   {"rob_full_stalls", double(held.robFullStalls)},
                   {"no_commit_cycles", double(held.noCommitCycles)},
                   {"squashed_instrs", double(held.squashedInstrs)},
                   {"l1_misses", double(held.l1Misses)},
                   {"l2_misses", double(held.l2Misses)},
                   {"l3_misses", double(held.l3Misses)},
                   {"mem_accesses", double(held.memAccesses)}});
}

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

[[noreturn]] void
usage(const std::string &problem)
{
    std::fprintf(stderr, "hr_perfbench: %s\n", problem.c_str());
    std::fprintf(stderr,
                 "usage: hr_perfbench --workload NAME --seed N --seconds S "
                 "[--trace-out FILE] [--emit]\nworkloads:");
    for (const std::string &name : perfbench::workloadNames())
        std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    bool seedGiven = false;
    double seconds = 0;
    std::string traceOut;
    bool emit = false;

    static Args
    parse(int argc, char **argv)
    {
        Args args;
        for (int i = 1; i < argc; ++i) {
            const std::string flag = argv[i];
            if (flag == "--emit") {
                args.emit = true;
                continue;
            }
            if (i + 1 >= argc)
                usage(flag + " needs a value");
            const std::string value = argv[++i];
            try {
                if (flag == "--workload") {
                    args.workload = value;
                } else if (flag == "--seed") {
                    args.seed = std::stoull(value);
                    args.seedGiven = true;
                } else if (flag == "--seconds") {
                    args.seconds = std::stod(value);
                } else if (flag == "--trace-out") {
                    args.traceOut = value;
                } else {
                    usage("unknown option " + flag);
                }
            } catch (const std::logic_error &) {
                usage("bad value for " + flag + ": " + value);
            }
        }
        if (args.workload.empty() || !args.seedGiven || args.seconds <= 0)
            usage("--workload, --seed and a positive --seconds are "
                  "required");
        return args;
    }
};

/** One timed pass; the outcome lands in @p out. */
double
timedPass(perfbench::Workload &workload, Outcome &out)
{
    const auto start = Clock::now();
    {
        HR_TRACE_SCOPE("bench", "bench.pass");
        workload.pass(out);
    }
    return since(start);
}

int
run(const Args &args)
{
    auto workload = perfbench::makeWorkload(args.workload, args.seed);
    if (!workload)
        usage("unknown workload '" + args.workload + "'");

    // The first spins also bring the core up to speed: a fresh process's
    // first spin reads up to 2x slower than later ones, and set-ups
    // timed that early would too.
    std::vector<double> anchors;
    for (int k = 0; k < kWarmSpins; ++k)
        anchors.push_back(anchorSeconds());
    ColdSetups cold(*workload);
    workload->setup();
    std::vector<double> setups{cold.fastest()};
    auto last_sample = Clock::now();
    auto sample_setup = [&] {
        if (since(last_sample) >= kSetupEvery) {
            setups.push_back(cold.fastest());
            last_sample = Clock::now();
        }
    };

    // Passes until the next one would overrun the budget, and at least
    // kMinPasses. Counters are the registry delta over the first pass;
    // every pass must match the first one's digest.
    //
    // Each pass runs pinned to the next allowed CPU in turn. On a shared
    // host one vCPU can run the same code up to 2x slower than another
    // for tens of seconds, and the scheduler keeps a lone thread where
    // it started; rotating lets an item's fastest timing come from the
    // vCPU that was quickest during the run.
    const std::vector<int> cpus = allowedCpus();
    std::vector<Outcome> outcomes;
    std::vector<double> passes;
    std::map<std::string, double> counters;
    double peak_rss_mb = 0; // set-up and the first pass only
    double elapsed = 0;
    while (passes.size() < kMinPasses ||
           elapsed + passes.back() <= args.seconds) {
        if (!cpus.empty())
            pinTo({cpus[passes.size() % cpus.size()]});
        const auto before = registryValues();
        outcomes.emplace_back();
        outcomes.back().onItemStart(sample_setup);
        passes.push_back(timedPass(*workload, outcomes.back()));
        elapsed += passes.back();
        if (passes.size() == 1) {
            counters = registryDelta(before);
            peak_rss_mb = peakRssMb();
        }
        anchors.push_back(anchorSeconds());
    }
    if (!cpus.empty())
        pinTo(cpus);
    while (setups.size() < kSetupSamples)
        setups.push_back(cold.fastest());

    if (args.emit) {
        for (const auto &[label, csv] : outcomes.front().tables())
            std::printf("## %s\n%s", label.c_str(), csv.c_str());
        return 0;
    }

    long attempted = 0, failed = 0;
    std::vector<std::string> failures;
    bool digests_agree = true;
    auto tally = [&](const Outcome &out) {
        attempted += out.attempted();
        failed += out.failed();
        failures.insert(failures.end(), out.failures().begin(),
                        out.failures().end());
        digests_agree &= out.digest() == outcomes.front().digest();
    };
    for (const Outcome &out : outcomes)
        tally(out);

    std::string traced;
    if (!args.traceOut.empty()) {
        // The traced run repeats set-up too, so the pool builds and
        // warm-ups show as spans beside the pass.
        hr::TraceRecorder::enable(1U << 19U);
        const auto before = registryValues();
        Outcome out;
        {
            HR_TRACE_SCOPE("bench", "bench.setup");
            workload->setup();
        }
        const double pass_s = timedPass(*workload, out);
        hr::TraceRecorder::disable();
        const auto traced_counters = registryDelta(before);
        const std::uint64_t dropped = hr::TraceRecorder::droppedEvents();
        const std::uint64_t events = hr::TraceRecorder::bufferedEvents();
        hr::TraceRecorder::writeChromeTrace(args.traceOut);
        hr::TraceRecorder::clear();

        tally(out);
        traced = ", \"traced\": {\"pass_s\": " + num(pass_s) +
                 ", \"events\": " + num(double(events)) +
                 ", \"events_dropped\": " + num(double(dropped)) +
                 ", \"counters\": " + numMap(traced_counters) + "}";
    }

    std::string failure_list = "[";
    for (std::size_t i = 0; i < failures.size() && i < 20; ++i)
        failure_list += (i ? ", " : "") + hr::jsonQuote(failures[i]);
    failure_list += "]";

    std::string item_s = "[";
    for (std::size_t i = 0; i < outcomes.size(); ++i)
        item_s += (i ? ", " : "") + numList(outcomes[i].itemSeconds());
    item_s += "]";

    const Outcome &first = outcomes.front();
    std::printf(
        "{\"workload\": %s, \"seed\": %llu, \"setup_s\": %s, "
        "\"pass_s\": %s, \"item_s\": %s, \"anchor_s\": %s, "
        "\"peak_rss_mb\": %s, "
        "\"attempted\": %ld, \"failed\": %ld, \"failures\": %s, "
        "\"digest\": \"%s\", \"digests_agree\": %s, \"counters\": %s, "
        "\"held\": %s, \"counts\": %s%s}\n",
        hr::jsonQuote(args.workload).c_str(),
        static_cast<unsigned long long>(args.seed), numList(setups).c_str(),
        numList(passes).c_str(), item_s.c_str(), numList(anchors).c_str(),
        num(peak_rss_mb).c_str(), attempted, failed, failure_list.c_str(),
        hex(first.digest()).c_str(), digests_agree ? "true" : "false",
        numMap(counters).c_str(), heldJson(first.held()).c_str(),
        numMap(first.counts()).c_str(), traced.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = Args::parse(argc, argv);
    try {
        return run(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "hr_perfbench: %s\n", e.what());
        return 1;
    }
}
