#include "cache/cache.hh"

#include <atomic>

#include "obs/log.hh"

namespace hr
{

namespace
{

int
log2Exact(int v)
{
    int s = 0;
    while ((1 << s) < v)
        ++s;
    return s;
}

/** Process-unique id tying a snapshot to the dirty-tracking epoch. */
std::uint64_t
nextSyncId()
{
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

} // namespace

Cache::Cache(const CacheConfig &config) : config_(config)
{
    fatalIf(config_.numSets <= 0 ||
            (config_.numSets & (config_.numSets - 1)) != 0,
            config_.name + ": numSets must be a positive power of two");
    fatalIf(config_.lineBytes <= 0 ||
            (config_.lineBytes & (config_.lineBytes - 1)) != 0,
            config_.name + ": lineBytes must be a positive power of two");
    fatalIf(config_.assoc <= 0, config_.name + ": assoc must be positive");

    lineShift_ = log2Exact(config_.lineBytes);
    setShift_ = log2Exact(config_.numSets);
    tagShift_ = lineShift_ + setShift_;
    lineMask_ = static_cast<Addr>(config_.lineBytes - 1);
    setMask_ = static_cast<Addr>(config_.numSets - 1);

    lines_.resize(static_cast<std::size_t>(config_.numSets) *
                  static_cast<std::size_t>(config_.assoc));
    policy_.reserve(static_cast<std::size_t>(config_.numSets));
    for (int s = 0; s < config_.numSets; ++s) {
        policy_.push_back(makePolicy(config_.policy, config_.assoc,
                                     config_.rngSeed +
                                     static_cast<std::uint64_t>(s)));
    }
}

Cache::Line &
Cache::lineAt(int set, int way)
{
    return lines_[static_cast<std::size_t>(set) *
                  static_cast<std::size_t>(config_.assoc) +
                  static_cast<std::size_t>(way)];
}

const Cache::Line &
Cache::lineAt(int set, int way) const
{
    return lines_[static_cast<std::size_t>(set) *
                  static_cast<std::size_t>(config_.assoc) +
                  static_cast<std::size_t>(way)];
}

int
Cache::probe(Addr addr) const
{
    const int set = setIndex(addr);
    const Addr tag = tagOf(addr);
    const Line *row = &lineAt(set, 0);
    for (int w = 0; w < config_.assoc; ++w) {
        if (row[w].valid && row[w].tag == tag)
            return w;
    }
    return -1;
}

int
Cache::accessWay(Addr addr)
{
    const int set = setIndex(addr);
    const Addr tag = tagOf(addr);
    const Line *row = &lineAt(set, 0);
    for (int w = 0; w < config_.assoc; ++w) {
        if (row[w].valid && row[w].tag == tag) {
            ++stats_.hits;
            policy_[static_cast<std::size_t>(set)]->touch(w);
            markDirty(set);
            return w;
        }
    }
    return -1;
}

std::optional<Addr>
Cache::fill(Addr addr)
{
    const int set = setIndex(addr);
    const Addr tag = tagOf(addr);
    auto &pol = *policy_[static_cast<std::size_t>(set)];
    markDirty(set);

    // One walk finds both an existing copy (e.g. a racing fill was
    // merged: just touch) and the first invalid way.
    Line *row = &lineAt(set, 0);
    int free_way = -1;
    for (int w = 0; w < config_.assoc; ++w) {
        if (row[w].valid) {
            if (row[w].tag == tag) {
                pol.touch(w);
                return std::nullopt;
            }
        } else if (free_way < 0) {
            free_way = w;
        }
    }

    ++stats_.fills;

    if (free_way >= 0) {
        row[free_way].valid = true;
        row[free_way].tag = tag;
        pol.touch(free_way);
        return std::nullopt;
    }

    const int victim = pol.victim();
    Line &line = row[victim];
    panicIf(!line.valid, "fill: victim way invalid");
    const Addr evicted = rebuild(line.tag, set);
    line.tag = tag;
    pol.touch(victim);
    ++stats_.evictions;
    return evicted;
}

bool
Cache::invalidate(Addr addr)
{
    const int set = setIndex(addr);
    const Addr tag = tagOf(addr);
    Line *row = &lineAt(set, 0);
    for (int w = 0; w < config_.assoc; ++w) {
        if (row[w].valid && row[w].tag == tag) {
            row[w].valid = false;
            policy_[static_cast<std::size_t>(set)]->invalidate(w);
            markDirty(set);
            return true;
        }
    }
    return false;
}

void
Cache::flushAll()
{
    for (auto &line : lines_)
        line.valid = false;
    for (int s = 0; s < config_.numSets; ++s) {
        policy_[static_cast<std::size_t>(s)] =
            makePolicy(config_.policy, config_.assoc,
                       config_.rngSeed + static_cast<std::uint64_t>(s));
    }
    // Every set changed; force the next restore onto the full path.
    allDirty_ = true;
    dirtySets_.clear();
}

void
Cache::resetDirtyTracking(std::uint64_t sync_id)
{
    syncBase_ = sync_id;
    allDirty_ = false;
    dirtyMask_.assign(static_cast<std::size_t>(config_.numSets), 0);
    dirtySets_.clear();
}

Cache::Snapshot
Cache::snapshot()
{
    Snapshot snap;
    snap.syncId = nextSyncId();
    snap.stats = stats_;
    snap.lines = lines_;
    snap.policy.reserve(policy_.size());
    for (const auto &pol : policy_)
        snap.policy.push_back(pol->clone());
    resetDirtyTracking(snap.syncId);
    return snap;
}

void
Cache::copySetFrom(const Snapshot &snap, int set)
{
    const std::size_t assoc = static_cast<std::size_t>(config_.assoc);
    const std::size_t base = static_cast<std::size_t>(set) * assoc;
    for (std::size_t w = 0; w < assoc; ++w)
        lines_[base + w] = snap.lines[base + w];
    policy_[static_cast<std::size_t>(set)]->copyFrom(
        *snap.policy[static_cast<std::size_t>(set)]);
}

void
Cache::restore(const Snapshot &snap)
{
    panicIf(snap.lines.size() != lines_.size() ||
            snap.policy.size() != policy_.size(),
            config_.name + ": restore from mismatched snapshot");
    stats_ = snap.stats;

    if (snap.syncId != 0 && snap.syncId == syncBase_ && !allDirty_) {
        // Fast path: only the sets touched since this snapshot was
        // taken (or last restored) can differ.
        for (int set : dirtySets_) {
            dirtyMask_[static_cast<std::size_t>(set)] = 0;
            copySetFrom(snap, set);
        }
        dirtySets_.clear();
        return;
    }

    lines_ = snap.lines;
    for (std::size_t s = 0; s < policy_.size(); ++s)
        policy_[s]->copyFrom(*snap.policy[s]);
    resetDirtyTracking(snap.syncId);
}

bool
Cache::reseedPolicies(std::uint64_t seed)
{
    config_.rngSeed = seed;
    bool changed = false;
    for (int s = 0; s < config_.numSets; ++s) {
        changed |= policy_[static_cast<std::size_t>(s)]->reseed(
            seed + static_cast<std::uint64_t>(s));
    }
    if (changed) {
        // Reseeded streams diverge from any snapshot's streams.
        allDirty_ = true;
        dirtySets_.clear();
    }
    return changed;
}

std::vector<Addr>
Cache::residentsOfSet(Addr addr) const
{
    const int set = setIndex(addr);
    std::vector<Addr> out;
    for (int w = 0; w < config_.assoc; ++w) {
        const Line &line = lineAt(set, w);
        if (line.valid)
            out.push_back(rebuild(line.tag, set));
    }
    return out;
}

std::uint64_t
Cache::setSignature(int set) const
{
    std::uint64_t sig = 0xcbf29ce484222325ull;
    auto mix = [&](std::uint64_t value) {
        sig ^= value;
        sig *= 0x100000001b3ull;
    };
    for (int w = 0; w < config_.assoc; ++w) {
        const Line &line = lineAt(set, w);
        mix(line.valid ? line.tag + 1 : 0);
    }
    mix(policy_[static_cast<std::size_t>(set)]->stateSig());
    return sig;
}

std::uint64_t
Cache::policyRngDraws() const
{
    if (config_.policy != PolicyKind::Random)
        return 0;
    std::uint64_t draws = 0;
    for (const auto &pol : policy_)
        draws += pol->rngDraws();
    return draws;
}

std::optional<Addr>
Cache::evictionCandidate(Addr addr) const
{
    const int set = setIndex(addr);
    // victim() is const in effect for all policies except Random, where
    // peeking would perturb the stream; clone first.
    auto pol = policy_[static_cast<std::size_t>(set)]->clone();
    const int way = pol->victim();
    const Line &line = lineAt(set, way);
    if (!line.valid)
        return std::nullopt;
    return rebuild(line.tag, set);
}

std::string
Cache::setStateString(Addr addr) const
{
    const int set = setIndex(addr);
    std::string out = "{";
    for (int w = 0; w < config_.assoc; ++w) {
        const Line &line = lineAt(set, w);
        if (w)
            out += ' ';
        if (line.valid) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "0x%llx",
                          static_cast<unsigned long long>(
                              rebuild(line.tag, set)));
            out += buf;
        } else {
            out += '-';
        }
    }
    out += "} " + policy_[static_cast<std::size_t>(set)]->stateString();
    return out;
}

} // namespace hr
