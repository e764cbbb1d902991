#include "core/lockstep.hh"

#include <algorithm>
#include <unordered_map>

#include "obs/log.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "util/memory_image.hh"

namespace hr
{

namespace
{

/** Access a priority_queue's underlying container (capture/shift). */
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

template <class Q>
typename Q::container_type &
mutableQueueContainer(Q &queue)
{
    struct Expose : Q
    {
        using Q::c;
    };
    return queue.*&Expose::c;
}

std::uint64_t
sigMix(std::uint64_t hash, std::uint64_t value)
{
    hash ^= value;
    return hash * 0x100000001b3ull;
}

/** Multiplicative inverse of an odd value modulo 2^64 (Newton). */
std::uint64_t
oddInverse(std::uint64_t d)
{
    std::uint64_t x = d; // correct to 3 bits
    for (int i = 0; i < 5; ++i)
        x *= 2 - d * x; // doubles correct bits each round
    return x;
}

int
countTrailingZeros(std::uint64_t v)
{
    int n = 0;
    while ((v & 1) == 0) {
        v >>= 1;
        ++n;
    }
    return n;
}

bool
countersSame(const PerfCounters &a, const PerfCounters &b)
{
    for (int i = 0; i < 6; ++i)
        if (a.issuedByClass[i] != b.issuedByClass[i])
            return false;
    return a.cycles == b.cycles &&
           a.committedInstrs == b.committedInstrs &&
           a.committedLoads == b.committedLoads &&
           a.committedStores == b.committedStores &&
           a.squashedInstrs == b.squashedInstrs &&
           a.branches == b.branches && a.mispredicts == b.mispredicts &&
           a.interrupts == b.interrupts &&
           a.noCommitCycles == b.noCommitCycles &&
           a.robFullStalls == b.robFullStalls;
}

void
addScaledCounters(PerfCounters &out, const PerfCounters &delta,
                  std::uint64_t k)
{
    out.cycles += k * delta.cycles;
    out.committedInstrs += k * delta.committedInstrs;
    out.committedLoads += k * delta.committedLoads;
    out.committedStores += k * delta.committedStores;
    out.squashedInstrs += k * delta.squashedInstrs;
    out.branches += k * delta.branches;
    out.mispredicts += k * delta.mispredicts;
    out.interrupts += k * delta.interrupts;
    for (int i = 0; i < 6; ++i)
        out.issuedByClass[i] += k * delta.issuedByClass[i];
    out.noCommitCycles += k * delta.noCommitCycles;
    out.robFullStalls += k * delta.robFullStalls;
}

bool
cacheStatsDeltaSame(const CacheStats &a0, const CacheStats &a1,
                    const CacheStats &b0, const CacheStats &b1)
{
    return a1.hits - a0.hits == b1.hits - b0.hits &&
           a1.misses - a0.misses == b1.misses - b0.misses &&
           a1.fills - a0.fills == b1.fills - b0.fills &&
           a1.evictions - a0.evictions == b1.evictions - b0.evictions;
}

bool
ctxStatsDeltaSame(const ContextAccessStats &da,
                  const ContextAccessStats &db)
{
    for (int i = 0; i < 3; ++i)
        if (da.hits[i] != db.hits[i])
            return false;
    return da.misses == db.misses && da.fills == db.fills &&
           da.memAccesses == db.memAccesses;
}

/** (b1 - b0) == (b2 - b1) elementwise, in wrapping uint64 space. */
template <typename T>
bool
vectorDeltaSame(const std::vector<T> &v0, const std::vector<T> &v1,
                const std::vector<T> &v2)
{
    if (v0.size() != v1.size() || v1.size() != v2.size())
        return false;
    for (std::size_t i = 0; i < v0.size(); ++i) {
        const auto a = static_cast<std::uint64_t>(v1[i]) -
                       static_cast<std::uint64_t>(v0[i]);
        const auto b = static_cast<std::uint64_t>(v2[i]) -
                       static_cast<std::uint64_t>(v1[i]);
        if (a != b)
            return false;
    }
    return true;
}

} // namespace

void
LockstepEngine::PeriodRec::clear()
{
    issues.clear();
    loads.clear();
    commits.clear();
    accesses.clear();
    loopIters = 0;
}

LockstepEngine::LockstepEngine(OooCore &core) : core_(core)
{
}

void
LockstepEngine::beginRun(ContextId primary, Cycle deadline)
{
    primary_ = primary;
    deadline_ = deadline;
    anchorPc_ = -1;
    streakPc_ = -1;
    streak_ = 0;
    failures_ = 0;
    boundaryPending_ = false;
    recording_ = false;
    cur_.clear();
    window_.clear();

    int active = 0;
    for (const OooCore::CtxState &c : core_.ctxs_)
        if (c.active)
            ++active;
    const bool eligible =
        active == 1 && core_.ctxs_[primary].active &&
        core_.config_.interruptInterval == 0;
    core_.lockstepWatch_ = eligible;
    core_.lockstepRec_ = false;
}

void
LockstepEngine::endRun()
{
    core_.lockstepWatch_ = false;
    core_.lockstepRec_ = false;
    cur_ = PeriodRec();
    window_.clear();
    window_.shrink_to_fit();
}

void
LockstepEngine::giveUp()
{
    core_.lockstepWatch_ = false;
    core_.lockstepRec_ = false;
    recording_ = false;
    boundaryPending_ = false;
    cur_ = PeriodRec();
    window_.clear();
}

void
LockstepEngine::onAnchor(std::int32_t pc)
{
    if (core_.lockstepRec_) {
        if (pc == anchorPc_)
            boundaryPending_ = true;
        return;
    }
    if (pc == streakPc_) {
        if (++streak_ >= kAnchorStreak) {
            anchorPc_ = pc;
            core_.lockstepRec_ = true;
            boundaryPending_ = true; // align records at the next loop top
        }
    } else {
        streakPc_ = pc;
        streak_ = 1;
    }
}

void
LockstepEngine::startPeriod()
{
    cur_.clear();
    periodStart_ = core_.cycle_;
}

void
LockstepEngine::onLoopTop()
{
    if (boundaryPending_) {
        boundaryPending_ = false;
        finalizeBoundary();
        if (!core_.lockstepRec_)
            return; // gave up inside
    }
    ++cur_.loopIters;
}

void
LockstepEngine::recordCommit(const OooCore::RobEntry &head)
{
    if (cur_.commits.size() >= kMaxPeriodOps) {
        giveUp();
        return;
    }
    CommitRec rec;
    rec.pc = head.pc;
    rec.op = head.inst->op;
    const bool is_store = head.inst->op == Opcode::Store;
    rec.ea = is_store ? head.ea : 0;
    rec.value = is_store ? static_cast<std::uint64_t>(head.value) : 0;
    cur_.commits.push_back(rec);
}

void
LockstepEngine::recordIssue(const OooCore::RobEntry &entry)
{
    if (cur_.issues.size() >= kMaxPeriodOps) {
        giveUp();
        return;
    }
    IssueRec rec;
    rec.pc = entry.pc;
    rec.op = entry.inst->op;
    rec.value = static_cast<std::uint64_t>(entry.value);
    rec.src0 = static_cast<std::uint64_t>(entry.srcVal[0]);
    rec.src1 = static_cast<std::uint64_t>(entry.srcVal[1]);
    rec.ea = entry.eaValid ? entry.ea : 0;
    rec.eaValid = entry.eaValid ? 1 : 0;
    cur_.issues.push_back(rec);
}

void
LockstepEngine::recordLoadComplete(const OooCore::RobEntry &entry)
{
    if (cur_.loads.size() >= kMaxPeriodOps) {
        giveUp();
        return;
    }
    cur_.loads.push_back({entry.pc, entry.ea,
                          static_cast<std::uint64_t>(entry.value)});
}

void
LockstepEngine::recordAccess(Addr addr)
{
    if (cur_.accesses.size() >= kMaxPeriodOps) {
        giveUp();
        return;
    }
    cur_.accesses.push_back({addr, core_.cycle_ - periodStart_});
}

std::uint64_t
LockstepEngine::cacheSigOver(const PeriodRec &rec) const
{
    // Only the sets the period's accesses map to can change (fills and
    // their evictions stay in-set; inclusive-L3 back-invalidations are
    // excluded separately by the L3-eviction guard in verify()).
    const Cache *levels[3] = {&core_.hierarchy_.l1(),
                              &core_.hierarchy_.l2(),
                              &core_.hierarchy_.l3()};
    std::vector<std::uint64_t> keys;
    keys.reserve(rec.accesses.size() * 3);
    for (const AccessRec &a : rec.accesses)
        for (std::uint64_t lvl = 0; lvl < 3; ++lvl)
            keys.push_back(
                (lvl << 32) |
                static_cast<std::uint64_t>(levels[lvl]->setIndex(a.addr)));
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    std::uint64_t sig = 0xcbf29ce484222325ull;
    for (std::uint64_t key : keys) {
        sig = sigMix(sig, key);
        sig = sigMix(sig, levels[key >> 32]->setSignature(
                              static_cast<int>(key & 0xffffffffull)));
    }
    return sig;
}

std::optional<LockstepEngine::Boundary>
LockstepEngine::capture() const
{
    const OooCore::CtxState &c = core_.ctxs_[primary_];
    Boundary b;
    b.cycle = core_.cycle_;
    b.nextSeq = core_.nextSeq_;
    b.readyStamp = core_.readyStamp_;
    b.dispatchRotate = core_.dispatchRotate_;
    b.commitRotate = core_.commitRotate_;
    b.regfile = c.regfile;

    const std::size_t n = c.rob.size();
    std::unordered_map<const OooCore::RobEntry *, std::int32_t> index;
    index.reserve(n * 2);
    for (std::size_t i = 0; i < n; ++i)
        index.emplace(c.rob[i].get(), static_cast<std::int32_t>(i));
    auto liveIndex = [&](const OooCore::RobEntry *entry)
        -> std::optional<std::int32_t> {
        auto it = index.find(entry);
        if (it == index.end())
            return std::nullopt;
        return it->second;
    };

    b.robPc.reserve(n);
    b.robMeta.reserve(n);
    b.robSeqRel.reserve(n);
    b.robValue.reserve(n);
    b.robEa.reserve(n);
    b.robConsumers.reserve(n);
    for (int slot = 0; slot < 3; ++slot) {
        b.robSrc[slot].reserve(n);
        b.robProdRel[slot].reserve(n);
    }
    for (std::size_t i = 0; i < n; ++i) {
        const OooCore::RobEntry &e = *c.rob[i];
        b.robPc.push_back(e.pc);
        b.robMeta.push_back(static_cast<std::uint8_t>(
            static_cast<unsigned>(e.status) | (e.eaValid ? 4u : 0u) |
            (e.predictedTaken ? 8u : 0u) | (e.forwarded ? 16u : 0u) |
            (static_cast<unsigned>(e.pendingSrcs) << 5)));
        b.robSeqRel.push_back(core_.nextSeq_ - e.seq);
        for (int slot = 0; slot < 3; ++slot) {
            b.robSrc[slot].push_back(
                static_cast<std::uint64_t>(e.srcVal[slot]));
            b.robProdRel[slot].push_back(
                e.srcProducer[slot] == OooCore::kNoSeq
                    ? ~std::uint64_t{0}
                    : core_.nextSeq_ - e.srcProducer[slot]);
        }
        b.robValue.push_back(static_cast<std::uint64_t>(e.value));
        b.robEa.push_back(e.eaValid ? e.ea : 0);
        std::vector<std::pair<std::int32_t, std::uint64_t>> live;
        for (const auto &[consumer, seq] : e.consumers) {
            if (consumer->seq != seq)
                continue; // squashed: inert forever (seqs never reused)
            auto idx = liveIndex(consumer);
            if (!idx)
                return std::nullopt;
            live.emplace_back(*idx, core_.nextSeq_ - seq);
        }
        b.robConsumers.push_back(std::move(live));
    }

    b.rename.reserve(c.renameTable.size());
    for (const OooCore::RobEntry *entry : c.renameTable) {
        if (entry == nullptr) {
            b.rename.push_back(-1);
            continue;
        }
        auto idx = liveIndex(entry);
        if (!idx)
            return std::nullopt;
        b.rename.push_back(*idx);
    }

    b.fetchPc = c.fetchPc;
    b.fetchStallRel = c.fetchStallUntil > core_.cycle_
                          ? c.fetchStallUntil - core_.cycle_
                          : 0;
    b.inflightStores = c.inflightStores;
    b.inflightBranches = c.inflightBranches;
    b.iqOccupancy = core_.iqOccupancy_;
    b.robFullCounted = c.robFullCounted ? 1 : 0;

    // Any stale queue entry (its producer was squashed) aborts the
    // capture: a fast-forward shifts live seqs uniformly, and a stale
    // seq left behind could collide with a recycled entry's shifted
    // seq and falsely come alive. Steady-state gadget loops squash
    // nothing, so this refusal costs only warmup iterations.
    for (const OooCore::Event &ev : queueContainer(core_.events_)) {
        if (ev.entry->seq != ev.seq ||
            ev.entry->status != OooCore::Status::Issued)
            return std::nullopt;
        auto idx = liveIndex(ev.entry);
        if (!idx)
            return std::nullopt;
        b.events.push_back({ev.cycle - core_.cycle_,
                            core_.nextSeq_ - ev.seq,
                            static_cast<std::uint64_t>(*idx)});
    }
    std::sort(b.events.begin(), b.events.end());

    for (int cls = 0; cls < 6; ++cls) {
        for (const OooCore::ReadyItem &item :
             queueContainer(core_.readyQueue_[cls])) {
            if (item.entry->seq != item.seq ||
                item.entry->status != OooCore::Status::Ready)
                return std::nullopt; // stale: see events above
            auto idx = liveIndex(item.entry);
            if (!idx)
                return std::nullopt;
            const std::uint64_t key_rel = core_.config_.readyOrderIssue
                                              ? core_.readyStamp_ - item.key
                                              : core_.nextSeq_ - item.key;
            b.ready[cls].push_back({key_rel, core_.nextSeq_ - item.seq,
                                    static_cast<std::uint64_t>(*idx)});
        }
        std::sort(b.ready[cls].begin(), b.ready[cls].end());
    }

    for (const auto &[entry, seq] : core_.replayQueue_) {
        if (entry->seq != seq)
            return std::nullopt; // stale: see events above
        auto idx = liveIndex(entry);
        if (!idx)
            return std::nullopt;
        b.replay.emplace_back(*idx, core_.nextSeq_ - seq);
    }

    for (int cls = 0; cls < 6; ++cls) {
        const std::vector<Cycle> &res = core_.pools_[cls]->reservations();
        b.fuRel[cls].reserve(res.size());
        for (Cycle r : res)
            b.fuRel[cls].push_back(r > core_.cycle_ ? r - core_.cycle_
                                                    : 0);
    }

    b.inflightSig = core_.hierarchy_.inflightSignature(core_.cycle_);
    b.hasCancelledFills = core_.hierarchy_.hasCancelledFills();
    b.rngDraws = core_.hierarchy_.rngDraws();
    b.predVersion = core_.predictor_.version();
    b.hier = core_.hierarchy_.sampleCounters();
    b.counters = core_.counters_;
    b.ctxCounters = c.counters;
    return b;
}

bool
LockstepEngine::recordsEqual(const PeriodRec &a, const PeriodRec &b) const
{
    if (a.loopIters != b.loopIters ||
        a.issues.size() != b.issues.size() ||
        a.loads.size() != b.loads.size() ||
        a.commits.size() != b.commits.size() ||
        a.accesses.size() != b.accesses.size())
        return false;
    for (std::size_t i = 0; i < a.issues.size(); ++i) {
        const IssueRec &x = a.issues[i], &y = b.issues[i];
        if (x.pc != y.pc || x.op != y.op || x.ea != y.ea ||
            x.eaValid != y.eaValid)
            return false;
    }
    for (std::size_t i = 0; i < a.loads.size(); ++i)
        if (a.loads[i].pc != b.loads[i].pc ||
            a.loads[i].ea != b.loads[i].ea)
            return false;
    for (std::size_t i = 0; i < a.commits.size(); ++i)
        if (a.commits[i].pc != b.commits[i].pc ||
            a.commits[i].op != b.commits[i].op ||
            a.commits[i].ea != b.commits[i].ea)
            return false;
    for (std::size_t i = 0; i < a.accesses.size(); ++i)
        if (a.accesses[i].addr != b.accesses[i].addr ||
            a.accesses[i].rel != b.accesses[i].rel)
            return false;
    return true;
}

std::uint64_t
LockstepEngine::branchFlipBound(std::uint64_t v, std::uint64_t d)
{
    // Periods n >= 1 until (v + n*d) mod 2^64 first hits zero (the
    // only way the branch outcome (src0 != 0) can change).
    if (d == 0)
        return kUnbounded;
    if (v == 0)
        return 1; // nonzero next period: flips immediately
    const int t = countTrailingZeros(d);
    if (t > 0 && (v & ((std::uint64_t{1} << t) - 1)) != 0)
        return kUnbounded; // 2^t never divides -v: no solution
    const std::uint64_t neg_v = (~v + 1) >> t;
    const std::uint64_t inv = oddInverse(d >> t);
    const std::uint64_t mask =
        t == 0 ? ~std::uint64_t{0}
               : (std::uint64_t{1} << (64 - t)) - 1;
    std::uint64_t n0 = (neg_v * inv) & mask;
    if (n0 == 0)
        n0 = mask; // smallest positive solution is 2^(64-t): huge
    return n0;
}

std::optional<std::uint64_t>
LockstepEngine::verify() const
{
    const Boundary &b0 = window_[0].first;
    const Boundary &b1 = window_[1].first;
    const Boundary &b2 = window_[2].first;
    const PeriodRec &r0 = window_[0].second;
    const PeriodRec &r1 = window_[1].second;
    const PeriodRec &r2 = window_[2].second;

    if (!structuralEqual(b0, b1) || !structuralEqual(b1, b2))
        return std::nullopt;
    if (!recordsEqual(r0, r1) || !recordsEqual(r1, r2))
        return std::nullopt;
    if (b0.hasCancelledFills || b1.hasCancelledFills ||
        b2.hasCancelledFills)
        return std::nullopt;
    if (b0.rngDraws != b1.rngDraws || b1.rngDraws != b2.rngDraws)
        return std::nullopt;
    if (b0.predVersion != b1.predVersion ||
        b1.predVersion != b2.predVersion)
        return std::nullopt;

    const Cycle dc = b1.cycle - b0.cycle;
    if (dc == 0 || b2.cycle - b1.cycle != dc)
        return std::nullopt;
    if (b1.nextSeq - b0.nextSeq != b2.nextSeq - b1.nextSeq)
        return std::nullopt;
    if (b1.readyStamp - b0.readyStamp != b2.readyStamp - b1.readyStamp)
        return std::nullopt;
    if (b1.dispatchRotate - b0.dispatchRotate !=
            b2.dispatchRotate - b1.dispatchRotate ||
        b1.commitRotate - b0.commitRotate !=
            b2.commitRotate - b1.commitRotate)
        return std::nullopt;

    if (!vectorDeltaSame(b0.regfile, b1.regfile, b2.regfile) ||
        !vectorDeltaSame(b0.robValue, b1.robValue, b2.robValue))
        return std::nullopt;
    for (int slot = 0; slot < 3; ++slot)
        if (!vectorDeltaSame(b0.robSrc[slot], b1.robSrc[slot],
                             b2.robSrc[slot]))
            return std::nullopt;

    if (!countersSame(b1.counters - b0.counters,
                      b2.counters - b1.counters) ||
        !countersSame(b1.ctxCounters - b0.ctxCounters,
                      b2.ctxCounters - b1.ctxCounters))
        return std::nullopt;

    // Memory-side counters extrapolate linearly; an L3 eviction would
    // back-invalidate lines in sets the access records cannot name, so
    // the periodic-state proof does not cover it — refuse.
    if (!cacheStatsDeltaSame(b0.hier.l1, b1.hier.l1, b1.hier.l1,
                             b2.hier.l1) ||
        !cacheStatsDeltaSame(b0.hier.l2, b1.hier.l2, b1.hier.l2,
                             b2.hier.l2) ||
        !cacheStatsDeltaSame(b0.hier.l3, b1.hier.l3, b1.hier.l3,
                             b2.hier.l3))
        return std::nullopt;
    if (b2.hier.l3.evictions != b1.hier.l3.evictions)
        return std::nullopt;
    if (b0.hier.ctx.size() != b1.hier.ctx.size() ||
        b1.hier.ctx.size() != b2.hier.ctx.size())
        return std::nullopt;
    for (std::size_t i = 0; i < b0.hier.ctx.size(); ++i)
        if (!ctxStatsDeltaSame(b1.hier.ctx[i] - b0.hier.ctx[i],
                               b2.hier.ctx[i] - b1.hier.ctx[i]))
            return std::nullopt;
    if (b1.hier.memAccesses - b0.hier.memAccesses !=
            b2.hier.memAccesses - b1.hier.memAccesses ||
        b1.hier.nextSeq - b0.hier.nextSeq !=
            b2.hier.nextSeq - b1.hier.nextSeq)
        return std::nullopt;

    // Per-word store deltas (the memory image's affine evolution).
    std::unordered_map<Addr, std::uint64_t> wordDelta;
    for (std::size_t i = 0; i < r2.commits.size(); ++i) {
        if (r2.commits[i].op != Opcode::Store)
            continue;
        const std::uint64_t d1 = r1.commits[i].value - r0.commits[i].value;
        const std::uint64_t d2 = r2.commits[i].value - r1.commits[i].value;
        if (d1 != d2)
            return std::nullopt;
        const Addr word = MemoryImage::wordAddr(r2.commits[i].ea);
        auto [it, inserted] = wordDelta.emplace(word, d2);
        if (!inserted && it->second != d2)
            return std::nullopt; // conflicting deltas on one word
    }

    // A load's value must slide exactly with the word it reads.
    for (std::size_t i = 0; i < r2.loads.size(); ++i) {
        const std::uint64_t d1 = r1.loads[i].value - r0.loads[i].value;
        const std::uint64_t d2 = r2.loads[i].value - r1.loads[i].value;
        if (d1 != d2)
            return std::nullopt;
        auto it = wordDelta.find(MemoryImage::wordAddr(r2.loads[i].ea));
        const std::uint64_t expect =
            it == wordDelta.end() ? 0 : it->second;
        if (d2 != expect)
            return std::nullopt;
    }

    // Every issued op (transient included) must provably map inputs
    // shifted by the observed deltas to outputs shifted by its own
    // observed delta — the induction step of the periodicity proof.
    const OooCore::CtxState &c = core_.ctxs_[primary_];
    std::uint64_t k_limit = kUnbounded;
    for (std::size_t i = 0; i < r2.issues.size(); ++i) {
        const IssueRec &x = r0.issues[i];
        const IssueRec &y = r1.issues[i];
        const IssueRec &z = r2.issues[i];
        const std::uint64_t dv = z.value - y.value;
        const std::uint64_t d0 = z.src0 - y.src0;
        const std::uint64_t d1 = z.src1 - y.src1;
        if (y.value - x.value != dv || y.src0 - x.src0 != d0 ||
            y.src1 - x.src1 != d1)
            return std::nullopt;
        const Instruction &inst =
            c.decoded->code[static_cast<std::size_t>(z.pc)];
        const bool imm_rhs = inst.src1 == kNoReg;
        bool ok = false;
        switch (z.op) {
          case Opcode::Nop:
          case Opcode::Jump:
          case Opcode::Halt: // transient only; no value, no effect
          case Opcode::MovImm:
            ok = dv == 0;
            break;
          case Opcode::Add:
          case Opcode::Sub:
          case Opcode::Lea:
            ok = true; // delta-linear for any input shift
            break;
          case Opcode::Mul:
            // (a+d0)(b+d1): the product's delta is input-dependent
            // unless one factor is frozen (or the rhs is an imm).
            ok = imm_rhs || d0 == 0 || d1 == 0;
            break;
          case Opcode::Div:
          case Opcode::And:
          case Opcode::Or:
          case Opcode::Xor:
          case Opcode::Shl:
          case Opcode::Shr:
            ok = d0 == 0 && (imm_rhs || d1 == 0) && dv == 0;
            break;
          case Opcode::Load:
          case Opcode::Prefetch:
          case Opcode::Store:
            // recordsEqual pinned the ea; store data is a plain copy
            // of src2 (delta-linear); load values were checked above.
            ok = true;
            break;
          case Opcode::Branch: {
            if (dv != 0)
                return std::nullopt; // direction changed mid-window
            const std::uint64_t bound = branchFlipBound(z.src0, d0);
            if (bound != kUnbounded)
                k_limit = std::min(k_limit, bound - 1);
            ok = true;
            break;
          }
          case Opcode::Rdtsc:
            ok = dv == static_cast<std::uint64_t>(dc);
            break;
        }
        if (!ok)
            return std::nullopt;
    }

    // Cap the skip: stay clear of the deadline fatal (post-landing
    // execution revisits the same cycles scalar execution would, so
    // the limit check itself stays bit-identical), and land a margin
    // of periods before the first branch flip so every in-flight
    // speculative instance is re-simulated rather than extrapolated.
    const std::uint64_t by_deadline = (deadline_ - b2.cycle) / dc;
    std::uint64_t k = by_deadline > 4 ? by_deadline - 4 : 0;
    if (k_limit != kUnbounded)
        k = std::min(k, k_limit);
    const std::uint64_t commits_per_period =
        std::max<std::uint64_t>(1, r2.commits.size());
    const std::uint64_t margin =
        static_cast<std::uint64_t>(core_.config_.robSize) /
            commits_per_period +
        4;
    k = k > margin ? k - margin : 0;
    return k;
}

bool
LockstepEngine::structuralEqual(const Boundary &a, const Boundary &b)
{
    if (a.regfile.size() != b.regfile.size() ||
        a.robPc != b.robPc || a.robMeta != b.robMeta ||
        a.robSeqRel != b.robSeqRel || a.robEa != b.robEa ||
        a.robConsumers != b.robConsumers || a.rename != b.rename)
        return false;
    for (int slot = 0; slot < 3; ++slot)
        if (a.robProdRel[slot] != b.robProdRel[slot])
            return false;
    if (a.fetchPc != b.fetchPc || a.fetchStallRel != b.fetchStallRel ||
        a.inflightStores != b.inflightStores ||
        a.inflightBranches != b.inflightBranches ||
        a.iqOccupancy != b.iqOccupancy ||
        a.robFullCounted != b.robFullCounted)
        return false;
    if (a.events != b.events || a.replay != b.replay)
        return false;
    for (int cls = 0; cls < 6; ++cls)
        if (a.ready[cls] != b.ready[cls] || a.fuRel[cls] != b.fuRel[cls])
            return false;
    return a.inflightSig == b.inflightSig && a.cacheSig == b.cacheSig;
}

void
LockstepEngine::applyForward(std::uint64_t k)
{
    const Boundary &b1 = window_[1].first;
    const Boundary &b2 = window_[2].first;
    const PeriodRec &r1 = window_[1].second;
    const PeriodRec &r2 = window_[2].second;

    const Cycle base = core_.cycle_;
    const Cycle kc = k * (b2.cycle - b1.cycle);
    const std::uint64_t ks = k * (b2.nextSeq - b1.nextSeq);
    const std::uint64_t kr = k * (b2.readyStamp - b1.readyStamp);

    core_.cycle_ += kc;
    core_.nextSeq_ += ks;
    core_.readyStamp_ += kr;
    // The round-robin cursors are context indices: they advance
    // modulo the context count.
    const std::uint64_t n = core_.ctxs_.size();
    auto advance = [&](std::uint32_t &cursor, std::uint32_t from,
                       std::uint32_t to) {
        cursor = static_cast<std::uint32_t>(
            (cursor + (k % n) * ((to + n - from) % n)) % n);
    };
    advance(core_.dispatchRotate_, b1.dispatchRotate, b2.dispatchRotate);
    advance(core_.commitRotate_, b1.commitRotate, b2.commitRotate);

    addScaledCounters(core_.counters_, b2.counters - b1.counters, k);
    OooCore::CtxState &c = core_.ctxs_[primary_];
    addScaledCounters(c.counters, b2.ctxCounters - b1.ctxCounters, k);

    for (std::size_t i = 0; i < c.regfile.size(); ++i) {
        const std::uint64_t d =
            static_cast<std::uint64_t>(b2.regfile[i]) -
            static_cast<std::uint64_t>(b1.regfile[i]);
        c.regfile[i] = static_cast<std::int64_t>(
            static_cast<std::uint64_t>(c.regfile[i]) + k * d);
    }

    for (std::size_t i = 0; i < c.rob.size(); ++i) {
        OooCore::RobEntry &e = *c.rob[i];
        e.seq += ks;
        for (int slot = 0; slot < 3; ++slot) {
            if (e.srcProducer[slot] != OooCore::kNoSeq)
                e.srcProducer[slot] += ks;
            e.srcVal[slot] = static_cast<std::int64_t>(
                static_cast<std::uint64_t>(e.srcVal[slot]) +
                k * (b2.robSrc[slot][i] - b1.robSrc[slot][i]));
        }
        e.value = static_cast<std::int64_t>(
            static_cast<std::uint64_t>(e.value) +
            k * (b2.robValue[i] - b1.robValue[i]));
        // Dead consumer refs stay dead: both sides shift by ks.
        for (auto &consumer : e.consumers)
            consumer.second += ks;
    }

    // Uniform shifts preserve the heap orderings (cycle-then-seq and
    // key-then-seq comparisons are translation-invariant short of a
    // wraparound, which real seqs/cycles never approach).
    for (OooCore::Event &ev : mutableQueueContainer(core_.events_)) {
        ev.cycle += kc;
        ev.seq += ks;
    }
    const bool by_stamp = core_.config_.readyOrderIssue;
    for (int cls = 0; cls < 6; ++cls) {
        for (OooCore::ReadyItem &item :
             mutableQueueContainer(core_.readyQueue_[cls])) {
            item.key += by_stamp ? kr : ks;
            item.seq += ks;
        }
        std::vector<Cycle> res = core_.pools_[cls]->reservations();
        for (Cycle &r : res)
            if (r > base)
                r += kc;
        core_.pools_[cls]->setReservations(res);
    }
    for (auto &entry : core_.replayQueue_)
        entry.second += ks;

    if (c.fetchStallUntil > base)
        c.fetchStallUntil += kc;

    core_.hierarchy_.shiftInflight(kc);
    core_.hierarchy_.applyCountersDelta(b1.hier, b2.hier, k);

    // Memory words written by the period slide by their store deltas.
    std::unordered_map<Addr, std::pair<Addr, std::uint64_t>> words;
    for (std::size_t i = 0; i < r2.commits.size(); ++i) {
        if (r2.commits[i].op != Opcode::Store)
            continue;
        words[MemoryImage::wordAddr(r2.commits[i].ea)] = {
            r2.commits[i].ea,
            r2.commits[i].value - r1.commits[i].value};
    }
    for (const auto &[word, rep] : words) {
        (void)word;
        const auto &[ea, delta] = rep;
        core_.memory_.write(
            ea, static_cast<std::int64_t>(
                    static_cast<std::uint64_t>(core_.memory_.read(ea)) +
                    k * delta));
    }

    metrics().lockstepForwards.add();
    metrics().lockstepPeriodsSkipped.add(k);
    metrics().lockstepCyclesSkipped.add(kc);
    HR_TRACE_INSTANT2("lockstep", "lockstep.forward", "periods", k,
                      "cycles", kc);
}

void
LockstepEngine::finalizeBoundary()
{
    if (!recording_) {
        // First boundary after the anchor was established: the record
        // started mid-period — discard it and align to this loop top.
        recording_ = true;
        startPeriod();
        return;
    }

    std::optional<Boundary> b = capture();
    if (!b) {
        giveUp();
        return;
    }
    b->cacheSig = cacheSigOver(cur_);
    window_.emplace_back(std::move(*b), std::move(cur_));
    startPeriod();
    if (window_.size() < 3)
        return;

    const std::optional<std::uint64_t> k = verify();
    if (!k) {
        metrics().lockstepRefusals.add();
        HR_TRACE_INSTANT("lockstep", "lockstep.refusal");
        window_.pop_front();
        if (++failures_ >= kMaxFailures)
            giveUp();
        return;
    }
    if (*k == 0) {
        // Provably periodic but nothing to skip (tail of the loop or a
        // deadline-capped run): slide and keep watching.
        window_.pop_front();
        return;
    }
    applyForward(*k);
    window_.clear();
    startPeriod();
}

} // namespace hr
