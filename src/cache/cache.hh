/**
 * @file
 * A single set-associative cache level: tag array + per-set replacement
 * state. Purely a presence/timing model — data values live in the
 * Machine's memory map, which is sound because the simulated caches are
 * coherent with a single core.
 */

#ifndef HR_CACHE_CACHE_HH
#define HR_CACHE_CACHE_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/replacement.hh"
#include "util/types.hh"

namespace hr
{

/** Geometry and policy of one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    int numSets = 64;
    int assoc = 8;
    int lineBytes = 64;
    PolicyKind policy = PolicyKind::TreePlru;
    std::uint64_t rngSeed = 1; ///< seed for Random replacement streams

    int sizeBytes() const { return numSets * assoc * lineBytes; }
};

/** Hit/miss counters for one level. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t fills = 0;
    std::uint64_t evictions = 0;

    std::uint64_t accesses() const { return hits + misses; }
};

/**
 * One cache level.
 *
 * lookup()/touch()/fill() are separated so the hierarchy can model
 * fills that land later than their lookup (data-return order), which is
 * the mechanism the reorder racing gadget transmits through.
 */
class Cache
{
  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
    };

  public:
    explicit Cache(const CacheConfig &config);

    /**
     * Deep copy of the tag array, replacement state, and stats.
     * Produced by snapshot(), consumed by restore(); move-only.
     */
    class Snapshot
    {
      public:
        Snapshot() = default;
        Snapshot(Snapshot &&) = default;
        Snapshot &operator=(Snapshot &&) = default;

      private:
        friend class Cache;
        std::uint64_t syncId = 0; ///< dirty-tracking identity (see Cache)
        CacheStats stats;
        std::vector<Line> lines;
        std::vector<std::unique_ptr<ReplacementPolicy>> policy;
    };

    const CacheConfig &config() const { return config_; }
    const CacheStats &stats() const { return stats_; }

    /** Set index for an address. */
    int
    setIndex(Addr addr) const
    {
        return static_cast<int>((addr >> lineShift_) & setMask_);
    }

    /** Line-aligned address. */
    Addr lineAddr(Addr addr) const { return addr & ~lineMask_; }

    /**
     * Probe without any state update or stats.
     * @return way holding the line, or -1.
     */
    int probe(Addr addr) const;

    /** True if the line is present (no state change). */
    bool contains(Addr addr) const { return probe(addr) >= 0; }

    /**
     * Access for a (potential) hit: updates stats and, on hit,
     * replacement state.
     * @return true on hit.
     */
    bool
    access(Addr addr)
    {
        if (accessWay(addr) >= 0)
            return true;
        noteMiss();
        return false;
    }

    /**
     * Single-walk access split: on a hit, counts the hit, updates
     * replacement state, and returns the way; on a miss returns -1
     * WITHOUT counting. Callers decide whether the miss is
     * architectural (noteMiss()) or a refused probe that must leave
     * stats untouched (MSHR-full retry).
     */
    int accessWay(Addr addr);

    /** Record a demand miss (see accessWay). */
    void noteMiss() { ++stats_.misses; }

    /**
     * Install a line, evicting if necessary. Invalid ways fill first;
     * otherwise the policy chooses. Touches the new line.
     * @return evicted line address, if any.
     */
    std::optional<Addr> fill(Addr addr);

    /** Drop a line if present. @return true if it was present. */
    bool invalidate(Addr addr);

    /** Drop everything (keeps replacement objects, resets their state). */
    void flushAll();

    /**
     * Capture the full level state. Also rebases the internal
     * dirty-set tracking, so a later restore() of this snapshot only
     * copies back the sets touched in between (the warm-once /
     * restore-per-trial fast path).
     */
    Snapshot snapshot();

    /**
     * Reset to a snapshotted state. The snapshot must come from a
     * cache with identical geometry and policy kind (panics
     * otherwise); it is not consumed and may be restored any number of
     * times.
     */
    void restore(const Snapshot &snap);

    /**
     * Re-seed per-set replacement randomness as if the cache had been
     * built with config.rngSeed = seed (only Random has a stream).
     * @return true if any set's state changed.
     */
    bool reseedPolicies(std::uint64_t seed);

    /** Addresses currently resident in the set holding addr. */
    std::vector<Addr> residentsOfSet(Addr addr) const;

    /**
     * Behavioral signature of one set: tags/valid bits of every way
     * plus the replacement policy's canonical stateSig(). Equal
     * signatures of the same set over time mean the set will answer
     * all future probes and victim choices identically (see
     * ReplacementPolicy::stateSig for the Random-policy caveat).
     */
    std::uint64_t setSignature(int set) const;

    /** Total random values consumed by per-set policies (Random only). */
    std::uint64_t policyRngDraws() const;

    /** Add @p k times the difference of two stats observations. */
    void
    applyStatsDelta(const CacheStats &from, const CacheStats &to,
                    std::uint64_t k)
    {
        stats_.hits += k * (to.hits - from.hits);
        stats_.misses += k * (to.misses - from.misses);
        stats_.fills += k * (to.fills - from.fills);
        stats_.evictions += k * (to.evictions - from.evictions);
    }

    /** Line address currently in the policy's victim way (if valid). */
    std::optional<Addr> evictionCandidate(Addr addr) const;

    /** Replacement-state string of the set holding addr. */
    std::string setStateString(Addr addr) const;

  private:
    CacheConfig config_;
    CacheStats stats_;
    int lineShift_ = 0;  ///< log2(lineBytes)
    int setShift_ = 0;   ///< log2(numSets)
    int tagShift_ = 0;   ///< lineShift_ + setShift_
    Addr lineMask_ = 0;  ///< lineBytes - 1
    Addr setMask_ = 0;   ///< numSets - 1
    std::vector<Line> lines_; // numSets * assoc, row-major
    std::vector<std::unique_ptr<ReplacementPolicy>> policy_; // per set

    // Dirty-set tracking between snapshot()/restore() sync points.
    // syncBase_ names the snapshot the tracking is relative to (0 =
    // none); allDirty_ disables the fast path conservatively.
    std::uint64_t syncBase_ = 0;
    bool allDirty_ = true;
    std::vector<std::uint8_t> dirtyMask_; // per set
    std::vector<int> dirtySets_;

    void
    markDirty(int set)
    {
        if (allDirty_)
            return;
        if (!dirtyMask_[static_cast<std::size_t>(set)]) {
            dirtyMask_[static_cast<std::size_t>(set)] = 1;
            dirtySets_.push_back(set);
        }
    }

    void resetDirtyTracking(std::uint64_t sync_id);
    void copySetFrom(const Snapshot &snap, int set);

    Line &lineAt(int set, int way);
    const Line &lineAt(int set, int way) const;
    Addr tagOf(Addr addr) const { return addr >> tagShift_; }
    Addr
    rebuild(Addr tag, int set) const
    {
        return ((tag << setShift_) | static_cast<Addr>(set))
               << lineShift_;
    }
};

} // namespace hr

#endif // HR_CACHE_CACHE_HH
