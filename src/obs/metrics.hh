/**
 * @file
 * Unified metrics registry: string-keyed counters, gauges, and
 * histograms behind one deterministic snapshot.
 *
 * Every instrument is a member of the process-wide Metrics singleton
 * and self-registers into its catalog at construction, so the full
 * catalog exists before any experiment runs (`hr_bench metrics` lists
 * every name even in an idle process) and lives in exactly one file —
 * which is what tools/lint_metrics_names.sh lints for the
 * `subsystem.noun_verb` naming convention.
 *
 * Updates are relaxed atomic adds: sums are order-independent, so a
 * metric's final value cannot depend on thread scheduling. Two
 * determinism classes exist, flagged per entry:
 *
 *  - **logical** metrics count logical operations of the workload
 *    (channel frames, runner trials). They are byte-identical for a
 *    fixed seed at any `--jobs`.
 *  - **runtime** metrics describe how the runtime chose to execute
 *    (pool reuse, decoded-image reuse, lockstep forwards). They are
 *    deterministic for a fixed (seed, jobs, flags) tuple but
 *    legitimately differ across worker counts.
 *
 * snapshot() returns name-sorted rows; resetAll() zeroes every value
 * (tests and per-run deltas).
 */

#ifndef HR_OBS_METRICS_HH
#define HR_OBS_METRICS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace hr
{

class Metrics;

namespace obs_detail
{
/** Catalog row: kind + pointers back into the owning instrument. */
struct MetricEntry;
} // namespace obs_detail

/** Monotonic event count. */
class MetricCounter
{
  public:
    MetricCounter(Metrics &registry, const char *name, bool logical);

    void
    add(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void
    reset()
    {
        value_.store(0, std::memory_order_relaxed);
    }

    const char *
    name() const
    {
        return name_;
    }

  private:
    const char *name_;
    std::atomic<std::uint64_t> value_{0};
};

/** Last-set value (configuration echoes, current sizes). */
class MetricGauge
{
  public:
    MetricGauge(Metrics &registry, const char *name, bool logical);

    void
    set(std::uint64_t v)
    {
        value_.store(v, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void
    reset()
    {
        value_.store(0, std::memory_order_relaxed);
    }

    const char *
    name() const
    {
        return name_;
    }

  private:
    const char *name_;
    std::atomic<std::uint64_t> value_{0};
};

/**
 * Power-of-two bucketed histogram: bucket index is the bit width of
 * the observed value (0 lands in bucket 0), clamped to 31. Exposes
 * count/sum plus per-bucket counts; all updates relaxed-atomic, so
 * the aggregate is thread-schedule independent.
 */
class MetricHistogram
{
  public:
    static constexpr std::size_t kBuckets = 32;

    MetricHistogram(Metrics &registry, const char *name, bool logical);

    void
    observe(std::uint64_t v)
    {
        count_.fetch_add(1, std::memory_order_relaxed);
        sum_.fetch_add(v, std::memory_order_relaxed);
        buckets_[bucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
    }

    std::uint64_t
    count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    std::uint64_t
    sum() const
    {
        return sum_.load(std::memory_order_relaxed);
    }

    std::uint64_t
    bucket(std::size_t i) const
    {
        return buckets_[i].load(std::memory_order_relaxed);
    }

    void reset();

    const char *
    name() const
    {
        return name_;
    }

    static std::size_t
    bucketIndex(std::uint64_t v)
    {
        std::size_t width = 0;
        while (v != 0 && width < kBuckets - 1) {
            v >>= 1;
            ++width;
        }
        return width;
    }

  private:
    const char *name_;
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
};

/** One name-sorted row of a metrics snapshot. */
struct MetricSample
{
    std::string name;
    std::string kind;   //!< "counter" | "gauge" | "histogram"
    bool logical = false;
    std::uint64_t value = 0; //!< counter/gauge value, histogram count
    std::uint64_t sum = 0;   //!< histogram only: sum of observations
};

namespace obs_detail
{
struct MetricEntry
{
    enum class Kind
    {
        Counter,
        Gauge,
        Histogram,
    };

    Kind kind;
    bool logical;
    MetricCounter *counter = nullptr;
    MetricGauge *gauge = nullptr;
    MetricHistogram *histogram = nullptr;
};
} // namespace obs_detail

/**
 * The process-wide instrument catalog. All instruments are members,
 * declared after `entries_` so construction order guarantees each
 * constructor registers into a live catalog.
 */
class Metrics
{
  public:
    /** Name-sorted snapshot of every instrument. */
    std::vector<MetricSample> snapshot(bool logicalOnly = false) const;

    /** Zero every instrument (tests, per-run deltas). */
    void resetAll();

    void registerEntry(const obs_detail::MetricEntry &entry);

  private:
    std::vector<obs_detail::MetricEntry> entries_;

  public:
    // ---- machine: ops at the public Machine boundary. Machines built
    // for pool warmup and channel calibration also run ops, and the
    // number of machines built scales with --jobs — so these are
    // runtime-class.
    MetricCounter machineRuns{*this, "machine.runs_total", false};
    MetricHistogram machineRunInstrs{*this, "machine.run_instrs", false};
    MetricCounter machineReseeds{*this, "machine.reseeds_total", false};

    // ---- batch: retired trial batching, always 0. perfbench/run.py
    // --trace 1 reads these three names.
    MetricCounter batchTrials{*this, "batch.trials_total", false};
    MetricCounter batchFollowersReplayed{*this, "batch.followers_replayed",
                                   false};
    MetricCounter batchFollowersStepped{*this, "batch.followers_stepped",
                                  false};

    // ---- decode: per-Program decoded images. aliases_total is
    // retired and always 0; perfbench/run.py --trace 1 reads it.
    MetricCounter decodeHits{*this, "decode.hits_total", false};
    MetricCounter decodeAliases{*this, "decode.aliases_total", false};
    MetricCounter decodeMisses{*this, "decode.misses_total", false};
    MetricCounter decodeInvalidations{*this, "decode.invalidations_total",
                                false};

    // ---- pool: MachinePool lease lifecycle ------------------------
    MetricCounter poolLeases{*this, "pool.leases_total", false};
    MetricCounter poolLeasesReused{*this, "pool.leases_reused", false};
    MetricCounter poolMachinesBuilt{*this, "pool.machines_built", false};

    // ---- lockstep: periodic-loop forwarding engine ----------------
    MetricCounter lockstepForwards{*this, "lockstep.forwards_total", false};
    MetricCounter lockstepPeriodsSkipped{*this, "lockstep.periods_skipped",
                                   false};
    MetricCounter lockstepCyclesSkipped{*this, "lockstep.cycles_skipped",
                                  false};
    MetricCounter lockstepRefusals{*this, "lockstep.refusals_total", false};

    // ---- channel: logical frame/symbol traffic --------------------
    MetricCounter channelFramesSent{*this, "channel.frames_sent", true};
    MetricCounter channelFramesSynced{*this, "channel.frames_synced", true};
    MetricCounter channelSymbolsSent{*this, "channel.symbols_sent", true};
    MetricCounter channelSymbolErrors{*this, "channel.symbol_errors", true};
    MetricCounter channelEccBitsCorrected{*this,
                                    "channel.ecc_bits_corrected", true};

    // ---- runner / sweep: experiment scheduling --------------------
    MetricCounter runnerScenariosRun{*this, "runner.scenarios_run", true};
    MetricCounter runnerTrialsRequested{*this, "runner.trials_requested",
                                  true};
    MetricGauge runnerJobsConfigured{*this, "runner.jobs_configured", false};
    MetricCounter sweepPointsTotal{*this, "sweep.points_total", true};
    MetricCounter sweepPointsFailed{*this, "sweep.points_failed", true};

    // ---- obs: the observability plane itself ----------------------
    MetricCounter progressHeartbeats{*this, "progress.heartbeats_emitted",
                               false};
    MetricCounter traceEventsDropped{*this, "trace.events_dropped", false};
};

/** The singleton registry. */
Metrics &metrics();

/**
 * Render a snapshot as a JSON object string
 * `{"name": value, ..., "hist.name": {"count": c, "sum": s}, ...}` —
 * name-sorted, no trailing newline. Used by run/sweep metadata and
 * `hr_bench metrics`.
 */
std::string renderMetricsJson(const std::vector<MetricSample> &rows);

} // namespace hr

#endif // HR_OBS_METRICS_HH
