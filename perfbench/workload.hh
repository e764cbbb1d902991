/**
 * @file
 * The benchmark's workloads: each makes its inputs from the seed, sets
 * up what it needs before the first item (pool builds, warm-ups,
 * registry initialisation), and then runs whole passes over its items.
 *
 * A pass checks its own outputs (items that throw, report an `error:`
 * status, fail a cross-validation or a paper check) and folds every
 * simulated output into a digest, so two passes with one seed can be
 * compared exactly. Spans around the public calls into each layer go
 * to the obs/trace.hh flight recorder; they cost one relaxed load when
 * the recorder is off.
 */

#ifndef HR_PERFBENCH_WORKLOAD_HH
#define HR_PERFBENCH_WORKLOAD_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace hr
{
class Machine;
}

namespace perfbench
{

/** What one pass produced: pass/fail per item, tables, and counts. */
class Outcome
{
  public:
    /** Count one item; a failed one keeps its reason. */
    void item(bool ok, const std::string &what);

    /** A rendered output table (CSV): digested and kept for --emit. */
    void table(const std::string &label, const std::string &csv);

    /** Simulated output that is digested but not printed. */
    void fold(const std::string &text);

    /**
     * Core and cache counters of a machine the workload itself holds,
     * accumulated as the difference from @p before (see hold()).
     */
    struct Held
    {
        std::uint64_t cycles = 0, instrs = 0, robFullStalls = 0,
                      noCommitCycles = 0, squashedInstrs = 0;
        std::uint64_t l1Misses = 0, l2Misses = 0, l3Misses = 0,
                      memAccesses = 0;
    };
    static Held sample(hr::Machine &machine);
    void hold(const Held &before, const Held &after);

    /** Workload-specific count (timer queries, pin-target seconds...). */
    void count(const std::string &name, double value);

    /**
     * Called as each item starts, before its clock does, so the run can
     * do work of its own between items without it being timed.
     */
    void onItemStart(std::function<void()> hook) { itemStart_ = hook; }

    /**
     * Times one item, from construction to the end of its scope. Every
     * pass times the same items in the same order, so a run can take
     * each item's fastest repetition.
     */
    class Lap
    {
      public:
        explicit Lap(Outcome &out) : out_(out)
        {
            if (out_.itemStart_)
                out_.itemStart_();
            start_ = std::chrono::steady_clock::now();
        }
        ~Lap()
        {
            out_.itemSeconds_.push_back(
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start_)
                    .count());
        }
        Lap(const Lap &) = delete;
        Lap &operator=(const Lap &) = delete;

      private:
        Outcome &out_;
        std::chrono::steady_clock::time_point start_;
    };
    const std::vector<double> &itemSeconds() const { return itemSeconds_; }

    long attempted() const { return attempted_; }
    long failed() const { return failed_; }
    const std::vector<std::string> &failures() const { return failures_; }
    std::uint64_t digest() const { return digest_; }
    const std::vector<std::pair<std::string, std::string>> &
    tables() const
    {
        return tables_;
    }
    const Held &held() const { return held_; }
    const std::map<std::string, double> &counts() const { return counts_; }

  private:
    long attempted_ = 0;
    long failed_ = 0;
    std::vector<std::string> failures_;
    std::uint64_t digest_ = 0xcbf29ce484222325ULL; // FNV-1a offset
    std::vector<std::pair<std::string, std::string>> tables_;
    Held held_;
    std::map<std::string, double> counts_;
    std::vector<double> itemSeconds_;
    std::function<void()> itemStart_;
};

/** One benchmark workload. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Everything before the first item. May run several times; each
     * run replaces the state of the previous one.
     */
    virtual void setup() = 0;

    /** One whole pass over the workload's items. */
    virtual void pass(Outcome &out) = 0;
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Build a workload by name, or null if the name is unknown. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed);

} // namespace perfbench

#endif // HR_PERFBENCH_WORKLOAD_HH
