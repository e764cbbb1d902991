/**
 * @file
 * Multi-level cache hierarchy with MSHRs and delayed, ordered fills.
 *
 * Fills are applied in data-return order (ready cycle, then issue
 * sequence), so the relative completion order of two racing loads turns
 * into relative cache-insertion order — the exact state the paper's
 * non-transient reorder gadget (section 5.2) transmits through.
 *
 * The L3 is inclusive: a line evicted from it is invalidated in the L1
 * and L2 as well.
 */

#ifndef HR_CACHE_HIERARCHY_HH
#define HR_CACHE_HIERARCHY_HH

#include <cstdint>
#include <map>
#include <optional>
#include <queue>
#include <vector>

#include "cache/cache.hh"
#include "util/rng.hh"
#include "util/types.hh"

namespace hr
{

/** Kinds of memory access the core issues. */
enum class AccessKind : std::uint8_t { Load, Store, Prefetch };

/** Configuration of the whole memory subsystem. */
struct HierarchyConfig
{
    CacheConfig l1{"l1", 64, 8, 64, PolicyKind::TreePlru, 11};
    CacheConfig l2{"l2", 512, 8, 64, PolicyKind::Lru, 22};
    CacheConfig l3{"l3", 4096, 16, 64, PolicyKind::Lru, 33};

    Cycle l1Latency = 4;    ///< load-to-use on an L1 hit
    Cycle l2Latency = 14;   ///< total latency on an L2 hit
    Cycle l3Latency = 44;   ///< total latency on an L3 hit
    Cycle memLatency = 210; ///< total latency on a full miss

    /** Uniform extra cycles [0, jitter] added to L3/memory trips. */
    Cycle l3Jitter = 0;
    Cycle memJitter = 0;

    int l1Mshrs = 10;       ///< max outstanding L1 misses

    std::uint64_t rngSeed = 7; ///< jitter stream seed

    /**
     * Hardware contexts sharing the hierarchy (set by the Machine from
     * MachineConfig::contexts). Sizes the per-context attribution
     * counters and jitter streams (see contextSeed).
     */
    int contexts = 1;
};

/**
 * Per-context attribution of demand traffic through the shared
 * hierarchy. Indices 0..2 are L1..L3; hits[i] counts demand hits whose
 * data was found at level i+1, misses counts L1 demand misses, fills
 * counts lines installed on this context's behalf. These are pure
 * attribution: the per-level CacheStats aggregates count every
 * context's traffic, so on a single-context machine the two agree.
 */
struct ContextAccessStats
{
    std::uint64_t hits[3] = {};
    std::uint64_t misses = 0;
    std::uint64_t fills = 0;
    std::uint64_t memAccesses = 0;

    ContextAccessStats operator-(const ContextAccessStats &o) const
    {
        ContextAccessStats d;
        for (int i = 0; i < 3; ++i)
            d.hits[i] = hits[i] - o.hits[i];
        d.misses = misses - o.misses;
        d.fills = fills - o.fills;
        d.memAccesses = memAccesses - o.memAccesses;
        return d;
    }
};

/** Result of issuing a memory access. */
struct AccessOutcome
{
    bool accepted = true; ///< false: out of MSHRs, retry later
    Cycle readyCycle = 0; ///< when the data (or line) is available
    int level = 0;        ///< 1..3 = cache level, 4 = memory
    bool merged = false;  ///< coalesced onto an in-flight miss
};

/**
 * The memory-side model the out-of-order core talks to.
 *
 * Data values are not stored here — only presence and timing. The
 * Machine keeps the architectural memory image.
 */
class Hierarchy
{
  private:
    struct Inflight
    {
        Cycle ready;
        std::uint64_t seq;
        Addr line;
        int level;          ///< where the data was found
        ContextId ctx = 0;  ///< requesting context (fill attribution)
    };

    struct FillOrder
    {
        bool
        operator()(const Inflight &a, const Inflight &b) const
        {
            if (a.ready != b.ready)
                return a.ready > b.ready;
            return a.seq > b.seq;
        }
    };

  public:
    explicit Hierarchy(const HierarchyConfig &config);

    /**
     * Deep copy of all memory-side state: per-level tag arrays and
     * replacement state, every context's jitter stream and
     * attribution counters, aggregate counters, and in-flight
     * requests (so pending fills replay identically). Move-only.
     */
    class Snapshot
    {
      public:
        Snapshot() = default;
        Snapshot(Snapshot &&) = default;
        Snapshot &operator=(Snapshot &&) = default;

      private:
        friend class Hierarchy;
        Cache::Snapshot l1, l2, l3;
        std::vector<Rng> jitter;
        std::vector<ContextAccessStats> ctxStats;
        std::uint64_t memAccesses = 0;
        std::uint64_t nextSeq = 0;
        std::map<Addr, Inflight> inflight;
        std::priority_queue<Inflight, std::vector<Inflight>, FillOrder>
            fillQueue;
    };

    const HierarchyConfig &config() const { return config_; }

    Cache &l1() { return l1_; }
    Cache &l2() { return l2_; }
    Cache &l3() { return l3_; }
    const Cache &l1() const { return l1_; }
    const Cache &l2() const { return l2_; }
    const Cache &l3() const { return l3_; }

    std::uint64_t memAccesses() const { return memAccesses_; }

    /** Number of hardware contexts sharing this hierarchy. */
    int contexts() const { return config_.contexts; }

    /** Demand-traffic attribution for one context. */
    const ContextAccessStats &contextStats(ContextId ctx) const;

    /**
     * Issue an access at cycle @p now on behalf of context @p ctx.
     *
     * Applies all fills due at or before @p now first, so lookups always
     * see up-to-date state. May refuse (no MSHR) — the core retries.
     * Latency jitter is drawn from the requesting context's own stream,
     * so one context's jitter sequence does not depend on how another
     * context's accesses interleave with it.
     */
    AccessOutcome access(Addr addr, Cycle now, AccessKind kind,
                         ContextId ctx = 0);

    /** Apply every pending fill with ready <= now (in return order). */
    void applyFillsUpTo(Cycle now);

    /** Apply all pending fills regardless of time (end-of-run drain). */
    void drainAllFills();

    /** Cycle of the next pending fill, if any (for event skipping). */
    std::optional<Cycle> nextFillCycle() const;

    /** Number of in-flight line requests. */
    std::size_t inflightCount() const { return inflight_.size(); }

    /** Highest level containing the line: 1, 2, 3, or 0 if nowhere. */
    int probeLevel(Addr addr) const;

    /**
     * Invalidate a line everywhere (clflush-like; used by the harness
     * between attack phases). Cancels any in-flight fill of the line.
     */
    void flushLine(Addr addr);

    /** Invalidate everything and forget in-flight requests. */
    void flushAll();

    /**
     * Test/setup helper: install a line instantly into all levels from
     * L3 up to @p upto_level (1 = into L1/L2/L3, 3 = only L3).
     */
    void warm(Addr addr, int upto_level = 1);

    /** Capture the full memory-side state (see Machine::snapshot). */
    Snapshot snapshot();

    /** Reset to a snapshotted state (geometry must match; reusable). */
    void restore(const Snapshot &snap);

    /**
     * Re-seed every context's jitter stream and per-level replacement
     * randomness as if the hierarchy had been freshly built with these
     * seeds (sweep grid points reuse one pooled machine this way).
     */
    void reseed(std::uint64_t mem_seed, std::uint64_t l1_seed,
                std::uint64_t l2_seed, std::uint64_t l3_seed);

    /**
     * The seed a context's jitter stream starts from: @p base itself
     * for context 0, an independent derived stream for each higher
     * context.
     */
    static std::uint64_t contextSeed(std::uint64_t base, ContextId ctx)
    {
        return base + 0x9e3779b97f4a7c15ull * ctx;
    }

    /**
     * Total random values consumed so far: every context's jitter
     * stream plus every level's Random replacement streams. An
     * unchanged total across a stretch of execution proves that
     * stretch was randomness-free (so reseeding the streams in it
     * would have been behaviorally dead, and a time-shifted repeat of
     * it stays deterministic).
     */
    std::uint64_t rngDraws() const;

    /**
     * Canonical signature of the in-flight request set, with ready
     * times taken relative to @p base and issue sequence numbers
     * relative to the current allocator — equal signatures at two
     * cycles b1 < b2 mean the pending fills are the same set shifted
     * by (b2 - b1). Includes the count of cancelled entries still in
     * the fill queue, so stale flushLine leftovers (which perturb
     * nextFillCycle()) refuse the match instead of hiding.
     */
    std::uint64_t inflightSignature(Cycle base) const;

    /**
     * True while the fill queue holds entries cancelled by flushLine
     * (they still perturb nextFillCycle(), so a fast-forward must
     * refuse until they drain).
     */
    bool hasCancelledFills() const
    {
        return fillQueue_.size() != inflight_.size();
    }

    /**
     * Shift every in-flight request and queued fill @p delta cycles
     * into the future (lockstep fast-forward). Cancelled fill-queue
     * leftovers must not exist (see inflightSignature); the queue is
     * rebuilt from the live set.
     */
    void shiftInflight(Cycle delta);

    /** Aggregate counters bundle for delta capture/extrapolation. */
    struct CountersSample
    {
        CacheStats l1, l2, l3;
        std::vector<ContextAccessStats> ctx;
        std::uint64_t memAccesses = 0;
        std::uint64_t nextSeq = 0;
    };

    /** Capture all monotone counters (cheap; no cache-array walk). */
    CountersSample sampleCounters() const;

    /** Add @p k times the per-field difference @p to - @p from. */
    void applyCountersDelta(const CountersSample &from,
                            const CountersSample &to, std::uint64_t k);

  private:
    HierarchyConfig config_;
    Cache l1_, l2_, l3_;
    /** Each context's jitter stream, seeded contextSeed(rngSeed, ctx). */
    std::vector<Rng> jitter_;
    /** Per-context demand-traffic attribution. */
    std::vector<ContextAccessStats> ctxStats_;
    std::uint64_t memAccesses_ = 0;
    std::uint64_t nextSeq_ = 0;

    /** In-flight requests keyed by L1 line address. */
    std::map<Addr, Inflight> inflight_;
    std::priority_queue<Inflight, std::vector<Inflight>, FillOrder>
        fillQueue_;

    void applyFill(const Inflight &fill);
};

} // namespace hr

#endif // HR_CACHE_HIERARCHY_HH
