#include "cache/hierarchy.hh"

#include <algorithm>

#include "obs/log.hh"

namespace hr
{

Hierarchy::Hierarchy(const HierarchyConfig &config)
    : config_(config), l1_(config.l1), l2_(config.l2), l3_(config.l3)
{
    fatalIf(config_.l1.lineBytes != config_.l2.lineBytes ||
            config_.l2.lineBytes != config_.l3.lineBytes,
            "Hierarchy: line size must match across levels");
    fatalIf(config_.l1Mshrs <= 0, "Hierarchy: need at least one MSHR");
    fatalIf(config_.contexts < 1, "Hierarchy: need at least one context");
    for (int ctx = 0; ctx < config_.contexts; ++ctx)
        jitter_.emplace_back(
            contextSeed(config_.rngSeed, static_cast<ContextId>(ctx)));
    ctxStats_.resize(static_cast<std::size_t>(config_.contexts));
}

const ContextAccessStats &
Hierarchy::contextStats(ContextId ctx) const
{
    panicIf(ctx >= ctxStats_.size(), "Hierarchy: context out of range");
    return ctxStats_[ctx];
}

AccessOutcome
Hierarchy::access(Addr addr, Cycle now, AccessKind kind, ContextId ctx)
{
    (void)kind; // stores are write-allocate, prefetches fetch like loads
    applyFillsUpTo(now);

    // No bounds check on the hot path: the core only issues contexts
    // it was constructed with (contextStats() guards external readers).
    ContextAccessStats &attribution = ctxStats_[ctx];
    const Addr line = l1_.lineAddr(addr);
    AccessOutcome out;

    // Single L1 walk: a hit counts and touches; a miss defers its
    // stats until we know the access is accepted (noteMiss below).
    if (l1_.accessWay(line) >= 0) {
        ++attribution.hits[0];
        out.readyCycle = now + config_.l1Latency;
        out.level = 1;
        return out;
    }

    // Coalesce with an in-flight request for the same line.
    auto it = inflight_.find(line);
    if (it != inflight_.end()) {
        l1_.noteMiss(); // counts the demand miss
        ++attribution.misses;
        out.readyCycle = std::max(it->second.ready,
                                  now + config_.l1Latency);
        out.level = it->second.level;
        out.merged = true;
        return out;
    }

    // Out of MSHRs: refuse without perturbing stats — the core will
    // retry this access, and retries are not demand misses.
    if (static_cast<int>(inflight_.size()) >= config_.l1Mshrs) {
        out.accepted = false;
        return out;
    }
    l1_.noteMiss(); // counts the demand miss
    ++attribution.misses;

    // Jitter comes from the requesting context's private stream so
    // co-runners do not perturb each other's latency-noise sequences.
    Rng &jitter = jitter_[ctx];
    Cycle ready;
    int level;
    if (l2_.access(line)) {
        ready = now + config_.l2Latency;
        level = 2;
        ++attribution.hits[1];
    } else if (l3_.access(line)) {
        ready = now + config_.l3Latency +
                (config_.l3Jitter ? jitter.below(config_.l3Jitter + 1) : 0);
        level = 3;
        ++attribution.hits[2];
    } else {
        ++memAccesses_;
        ++attribution.memAccesses;
        ready = now + config_.memLatency +
                (config_.memJitter ? jitter.below(config_.memJitter + 1) : 0);
        level = 4;
    }

    Inflight fill{ready, nextSeq_++, line, level, ctx};
    inflight_.emplace(line, fill);
    fillQueue_.push(fill);

    out.readyCycle = ready;
    out.level = level;
    return out;
}

void
Hierarchy::applyFill(const Inflight &fill)
{
    // The line is installed in every level above where it was found
    // (data-return path). Hits in a level leave it resident there.
    if (fill.level >= 4) {
        auto evicted = l3_.fill(fill.line);
        if (evicted) {
            l1_.invalidate(*evicted);
            l2_.invalidate(*evicted);
        }
    }
    if (fill.level >= 3)
        l2_.fill(fill.line);
    l1_.fill(fill.line);
    if (fill.ctx < ctxStats_.size())
        ++ctxStats_[fill.ctx].fills;
}

void
Hierarchy::applyFillsUpTo(Cycle now)
{
    while (!fillQueue_.empty() && fillQueue_.top().ready <= now) {
        const Inflight fill = fillQueue_.top();
        fillQueue_.pop();
        // Entry may have been cancelled by flushLine: only apply if the
        // inflight map still holds this exact request.
        auto it = inflight_.find(fill.line);
        if (it == inflight_.end() || it->second.seq != fill.seq)
            continue;
        inflight_.erase(it);
        applyFill(fill);
    }
}

void
Hierarchy::drainAllFills()
{
    while (!fillQueue_.empty()) {
        const Inflight fill = fillQueue_.top();
        fillQueue_.pop();
        auto it = inflight_.find(fill.line);
        if (it == inflight_.end() || it->second.seq != fill.seq)
            continue;
        inflight_.erase(it);
        applyFill(fill);
    }
}

std::optional<Cycle>
Hierarchy::nextFillCycle() const
{
    if (fillQueue_.empty())
        return std::nullopt;
    return fillQueue_.top().ready;
}

int
Hierarchy::probeLevel(Addr addr) const
{
    const Addr line = l1_.lineAddr(addr);
    if (l1_.contains(line))
        return 1;
    if (l2_.contains(line))
        return 2;
    if (l3_.contains(line))
        return 3;
    return 0;
}

void
Hierarchy::flushLine(Addr addr)
{
    const Addr line = l1_.lineAddr(addr);
    l1_.invalidate(line);
    l2_.invalidate(line);
    l3_.invalidate(line);
    inflight_.erase(line); // cancels any pending fill (seq check skips it)
}

void
Hierarchy::flushAll()
{
    l1_.flushAll();
    l2_.flushAll();
    l3_.flushAll();
    inflight_.clear();
    while (!fillQueue_.empty())
        fillQueue_.pop();
}

void
Hierarchy::warm(Addr addr, int upto_level)
{
    const Addr line = l1_.lineAddr(addr);
    auto evicted = l3_.fill(line);
    if (evicted) {
        l1_.invalidate(*evicted);
        l2_.invalidate(*evicted);
    }
    if (upto_level <= 2)
        l2_.fill(line);
    if (upto_level <= 1)
        l1_.fill(line);
}

Hierarchy::Snapshot
Hierarchy::snapshot()
{
    Snapshot snap;
    snap.l1 = l1_.snapshot();
    snap.l2 = l2_.snapshot();
    snap.l3 = l3_.snapshot();
    snap.jitter = jitter_;
    snap.ctxStats = ctxStats_;
    snap.memAccesses = memAccesses_;
    snap.nextSeq = nextSeq_;
    snap.inflight = inflight_;
    snap.fillQueue = fillQueue_;
    return snap;
}

void
Hierarchy::restore(const Snapshot &snap)
{
    l1_.restore(snap.l1);
    l2_.restore(snap.l2);
    l3_.restore(snap.l3);
    panicIf(snap.ctxStats.size() != ctxStats_.size(),
            "Hierarchy::restore: context count mismatch");
    jitter_ = snap.jitter;
    ctxStats_ = snap.ctxStats;
    memAccesses_ = snap.memAccesses;
    nextSeq_ = snap.nextSeq;
    inflight_ = snap.inflight;
    fillQueue_ = snap.fillQueue;
}

void
Hierarchy::reseed(std::uint64_t mem_seed, std::uint64_t l1_seed,
                  std::uint64_t l2_seed, std::uint64_t l3_seed)
{
    config_.rngSeed = mem_seed;
    config_.l1.rngSeed = l1_seed;
    config_.l2.rngSeed = l2_seed;
    config_.l3.rngSeed = l3_seed;
    for (std::size_t i = 0; i < jitter_.size(); ++i)
        jitter_[i].reseed(
            contextSeed(mem_seed, static_cast<ContextId>(i)));
    l1_.reseedPolicies(l1_seed);
    l2_.reseedPolicies(l2_seed);
    l3_.reseedPolicies(l3_seed);
}

std::uint64_t
Hierarchy::rngDraws() const
{
    std::uint64_t draws = 0;
    for (const Rng &rng : jitter_)
        draws += rng.draws();
    return draws + l1_.policyRngDraws() + l2_.policyRngDraws() +
           l3_.policyRngDraws();
}

namespace
{

/** Read-only view of a priority_queue's underlying container. */
template <class Q>
const typename Q::container_type &
queueContainer(const Q &queue)
{
    struct Expose : Q
    {
        using Q::c;
    };
    return queue.*&Expose::c;
}

} // namespace

std::uint64_t
Hierarchy::inflightSignature(Cycle base) const
{
    std::uint64_t sig = 0xcbf29ce484222325ull;
    auto mix = [&](std::uint64_t value) {
        sig ^= value;
        sig *= 0x100000001b3ull;
    };
    // Iterate in drain order (ready, seq) — the order fills will be
    // applied in — so two states that drain differently cannot share a
    // signature. An overdue fill (ready <= base) behaves identically
    // however overdue it is: every reader saturates (applyFillsUpTo
    // applies it, coalescing clamps to now + L1 latency, the wake path
    // clamps to the next cycle), so its rel is canonicalized to zero
    // rather than left drifting as the boundary advances past it.
    std::vector<const Inflight *> order;
    order.reserve(inflight_.size());
    for (const auto &[line, fill] : inflight_)
        order.push_back(&fill);
    std::sort(order.begin(), order.end(),
              [](const Inflight *a, const Inflight *b) {
                  if (a->ready != b->ready)
                      return a->ready < b->ready;
                  return a->seq < b->seq;
              });
    for (const Inflight *fill : order) {
        mix(fill->line);
        mix(fill->ready > base
                ? static_cast<std::uint64_t>(fill->ready - base)
                : 0);
        mix(nextSeq_ - fill->seq);
        mix(static_cast<std::uint64_t>(fill->level));
        mix(fill->ctx);
    }
    // Cancelled fill-queue leftovers still gate nextFillCycle(), so
    // their presence must fail the steady-state match.
    mix(queueContainer(fillQueue_).size() - inflight_.size());
    return sig;
}

void
Hierarchy::shiftInflight(Cycle delta)
{
    panicIf(queueContainer(fillQueue_).size() != inflight_.size(),
            "Hierarchy::shiftInflight: cancelled fills pending");
    while (!fillQueue_.empty())
        fillQueue_.pop();
    for (auto &[line, fill] : inflight_) {
        (void)line;
        fill.ready += delta;
        fillQueue_.push(fill);
    }
}

Hierarchy::CountersSample
Hierarchy::sampleCounters() const
{
    CountersSample sample;
    sample.l1 = l1_.stats();
    sample.l2 = l2_.stats();
    sample.l3 = l3_.stats();
    sample.ctx = ctxStats_;
    sample.memAccesses = memAccesses_;
    sample.nextSeq = nextSeq_;
    return sample;
}

void
Hierarchy::applyCountersDelta(const CountersSample &from,
                              const CountersSample &to, std::uint64_t k)
{
    l1_.applyStatsDelta(from.l1, to.l1, k);
    l2_.applyStatsDelta(from.l2, to.l2, k);
    l3_.applyStatsDelta(from.l3, to.l3, k);
    for (std::size_t i = 0; i < ctxStats_.size(); ++i) {
        const ContextAccessStats d = to.ctx[i] - from.ctx[i];
        for (int lvl = 0; lvl < 3; ++lvl)
            ctxStats_[i].hits[lvl] += k * d.hits[lvl];
        ctxStats_[i].misses += k * d.misses;
        ctxStats_[i].fills += k * d.fills;
        ctxStats_[i].memAccesses += k * d.memAccesses;
    }
    memAccesses_ += k * (to.memAccesses - from.memAccesses);
    nextSeq_ += k * (to.nextSeq - from.nextSeq);
}

} // namespace hr
