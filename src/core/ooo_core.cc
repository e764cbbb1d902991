#include "core/ooo_core.hh"

#include <algorithm>
#include <limits>

#include "core/lockstep.hh"
#include "util/log.hh"

namespace hr
{

OooCore::~OooCore() = default;

OooCore::LockstepSummary
OooCore::lockstepSummary() const
{
    LockstepSummary s;
    if (lockstep_) {
        const LockstepEngine::Stats &stats = lockstep_->stats();
        s.forwards = stats.forwards;
        s.skippedPeriods = stats.skippedPeriods;
        s.skippedCycles = stats.skippedCycles;
        s.refusals = stats.refusals;
    }
    return s;
}

PerfCounters
PerfCounters::operator-(const PerfCounters &o) const
{
    PerfCounters d;
    d.cycles = cycles - o.cycles;
    d.committedInstrs = committedInstrs - o.committedInstrs;
    d.committedLoads = committedLoads - o.committedLoads;
    d.committedStores = committedStores - o.committedStores;
    d.squashedInstrs = squashedInstrs - o.squashedInstrs;
    d.branches = branches - o.branches;
    d.mispredicts = mispredicts - o.mispredicts;
    d.interrupts = interrupts - o.interrupts;
    for (int i = 0; i < 6; ++i)
        d.issuedByClass[i] = issuedByClass[i] - o.issuedByClass[i];
    d.noCommitCycles = noCommitCycles - o.noCommitCycles;
    d.robFullStalls = robFullStalls - o.robFullStalls;
    return d;
}

double
PerfCounters::ipc() const
{
    if (cycles == 0)
        return 0.0;
    return static_cast<double>(committedInstrs) /
           static_cast<double>(cycles);
}

OooCore::OooCore(const CoreConfig &config, Hierarchy &hierarchy,
                 MemoryImage &memory, BranchPredictor &predictor,
                 int contexts)
    : config_(config), hierarchy_(hierarchy), memory_(memory),
      predictor_(predictor),
      ctxs_(contexts > 0 ? static_cast<std::size_t>(contexts) : 1)
{
    fatalIf(contexts < 1, "OooCore: need at least one context");
    robPartition_ = config_.robSize / contexts;
    fatalIf(robPartition_ < 4,
            "OooCore: robSize too small for the context count");
    const FuConfig *fu_configs[6] = {
        &config_.intAlu, &config_.intMul, &config_.fpDiv,
        &config_.memRead, &config_.memWrite, &config_.branchU};
    for (int i = 0; i < 6; ++i) {
        poolStorage_[i] = std::make_unique<FuncUnitPool>(*fu_configs[i]);
        pools_[i] = poolStorage_[i].get();
    }
    if (config_.interruptInterval > 0)
        nextInterrupt_ = config_.interruptInterval;
}

const PerfCounters &
OooCore::contextCounters(ContextId ctx) const
{
    panicIf(ctx >= ctxs_.size(), "OooCore: context out of range");
    return ctxs_[ctx].counters;
}

const std::vector<std::int64_t> &
OooCore::committedRegs(ContextId ctx) const
{
    panicIf(ctx >= ctxs_.size(), "OooCore: context out of range");
    return ctxs_[ctx].regfile;
}

OooCore::Snapshot
OooCore::snapshot() const
{
    Snapshot snap;
    snap.cycle = cycle_;
    snap.nextInterrupt = nextInterrupt_;
    snap.counters = counters_;
    snap.ctxCounters.reserve(ctxs_.size());
    for (const CtxState &c : ctxs_)
        snap.ctxCounters.push_back(c.counters);
    snap.nextSeq = nextSeq_;
    snap.readyStamp = readyStamp_;
    for (int i = 0; i < 6; ++i)
        snap.reservations[i] = pools_[i]->reservations();
    return snap;
}

void
OooCore::restore(const Snapshot &snap)
{
    cycle_ = snap.cycle;
    nextInterrupt_ = snap.nextInterrupt;
    counters_ = snap.counters;
    panicIf(snap.ctxCounters.size() != ctxs_.size(),
            "OooCore::restore: context count mismatch");
    for (std::size_t i = 0; i < ctxs_.size(); ++i)
        ctxs_[i].counters = snap.ctxCounters[i];
    nextSeq_ = snap.nextSeq;
    readyStamp_ = snap.readyStamp;
    for (int i = 0; i < 6; ++i)
        pools_[i]->setReservations(snap.reservations[i]);

    // Drop any leftover pipeline state from a halted run so the core
    // is idle, exactly as it is right after a completed run.
    resetPipeline();
}

void
OooCore::resetPipeline()
{
    for (CtxState &c : ctxs_) {
        for (auto &entry : c.rob)
            recycleEntry(std::move(entry));
        c.rob.clear();
        c.renameTable.assign(c.renameTable.size(), nullptr);
        c.decoded = nullptr;
        c.programId = 0;
        c.active = false;
        c.halted = false;
        c.inflightStores = 0;
        c.inflightBranches = 0;
        c.robFullCounted = false;
    }
    events_ = {};
    for (auto &q : readyQueue_)
        q = {};
    replayQueue_.clear();
    draining_ = false;
    iqOccupancy_ = 0;
    dispatchRotate_ = 0;
    commitRotate_ = 0;
}

std::unique_ptr<OooCore::RobEntry>
OooCore::takeEntry()
{
    if (entryPool_.empty())
        return std::make_unique<RobEntry>();
    auto entry = std::move(entryPool_.back());
    entryPool_.pop_back();
    entry->status = Status::Waiting;
    entry->pendingSrcs = 0;
    entry->srcVal[0] = entry->srcVal[1] = entry->srcVal[2] = 0;
    entry->value = 0;
    entry->ea = 0;
    entry->eaValid = false;
    entry->predictedTaken = false;
    entry->forwarded = false;
    entry->consumers.clear();
    return entry;
}

void
OooCore::recycleEntry(std::unique_ptr<RobEntry> entry)
{
    // Kill any stale (entry, seq) references still sitting in events,
    // ready/replay queues, or consumer lists: seqs are never reused,
    // so no future seq can match kNoSeq or this entry's old seq.
    entry->seq = kNoSeq;
    entryPool_.push_back(std::move(entry));
}

std::int64_t
OooCore::computeAlu(const RobEntry &entry) const
{
    const Instruction &inst = *entry.inst;
    const std::int64_t v0 = entry.srcVal[0];
    const std::int64_t rhs =
        inst.src1 != kNoReg ? entry.srcVal[1] : inst.imm;
    // Register arithmetic wraps (two's complement), like the hardware
    // it models: compute in uint64 so the wraparound is well-defined
    // (gadget op chains overflow constantly by design).
    const auto u0 = static_cast<std::uint64_t>(v0);
    const auto u1 = static_cast<std::uint64_t>(rhs);
    switch (inst.op) {
      case Opcode::MovImm: return inst.imm;
      case Opcode::Add: return static_cast<std::int64_t>(u0 + u1);
      case Opcode::Sub: return static_cast<std::int64_t>(u0 - u1);
      case Opcode::Mul: return static_cast<std::int64_t>(u0 * u1);
      case Opcode::Div:
        if (rhs == 0)
            return 0;
        if (v0 == std::numeric_limits<std::int64_t>::min() && rhs == -1)
            return v0; // the one remaining overflow case wraps too
        return v0 / rhs;
      case Opcode::And: return v0 & rhs;
      case Opcode::Or: return v0 | rhs;
      case Opcode::Xor: return v0 ^ rhs;
      case Opcode::Shl:
        return static_cast<std::int64_t>(u0 << (rhs & 63));
      case Opcode::Shr:
        return static_cast<std::int64_t>(u0 >> (rhs & 63));
      case Opcode::Lea:
        return static_cast<std::int64_t>(computeEa(entry));
      case Opcode::Branch:
        return ((v0 != 0) != inst.invert) ? 1 : 0;
      case Opcode::Rdtsc:
        return static_cast<std::int64_t>(cycle_);
      default:
        return 0;
    }
}

Addr
OooCore::computeEa(const RobEntry &entry) const
{
    // Address arithmetic wraps modulo 2^64 (uint64), like computeAlu.
    const Instruction &inst = *entry.inst;
    std::uint64_t ea = static_cast<std::uint64_t>(inst.imm);
    if (inst.src0 != kNoReg)
        ea += static_cast<std::uint64_t>(entry.srcVal[0]) *
              static_cast<std::uint64_t>(
                  static_cast<std::int64_t>(inst.scale0));
    if (inst.src1 != kNoReg)
        ea += static_cast<std::uint64_t>(entry.srcVal[1]) *
              static_cast<std::uint64_t>(
                  static_cast<std::int64_t>(inst.scale1));
    return static_cast<Addr>(ea);
}

void
OooCore::startContext(ContextId ctx, const DecodedProgram &decoded,
                      std::uint64_t program_id,
                      const std::vector<std::pair<RegId, std::int64_t>>
                          &initial_regs)
{
    fatalIf(program_id == 0,
            "OooCore::run: program has no id (run it via a Machine)");
    panicIf(ctx >= ctxs_.size(), "OooCore: context out of range");
    CtxState &c = ctxs_[ctx];
    panicIf(c.active, "OooCore: context started twice");
    c.decoded = &decoded;
    c.programId = program_id;
    c.active = true;
    c.halted = false;

    const std::size_t nregs = std::max<std::size_t>(decoded.numRegs, 1);
    c.regfile.assign(nregs, 0);
    for (const auto &[reg, value] : initial_regs) {
        fatalIf(reg >= nregs, "initial reg out of range");
        c.regfile[reg] = value;
    }
    c.renameTable.assign(nregs, nullptr);

    c.fetchPc = 0;
    c.fetchStallUntil = cycle_;
    c.inflightStores = 0;
    c.inflightBranches = 0;
    c.robFullCounted = false;
}

void
OooCore::abortContext(CtxState &c)
{
    // A context abandoned mid-flight (a descheduled noisy neighbor,
    // or a halted run's younger speculative leftovers): uncommitted
    // work is dropped without counting as squashed — exactly as the
    // single-context model dropped post-Halt leftovers — while
    // committed effects and in-flight cache fills persist.
    while (!c.rob.empty()) {
        RobEntry &victim = *c.rob.back();
        if (victim.status == Status::Waiting ||
            victim.status == Status::Ready) {
            --iqOccupancy_;
        }
        recycleEntry(std::move(c.rob.back()));
        c.rob.pop_back();
    }
    c.renameTable.assign(c.renameTable.size(), nullptr);
    c.decoded = nullptr;
    c.programId = 0;
    c.active = false;
    c.halted = false;
    c.inflightStores = 0;
    c.inflightBranches = 0;
}

void
OooCore::markReady(RobEntry &entry)
{
    entry.status = Status::Ready;
    const std::uint64_t key =
        config_.readyOrderIssue ? readyStamp_++ : entry.seq;
    readyQueue_[static_cast<int>(entry.dop->fu)].push(
        {key, entry.seq, &entry});
}

void
OooCore::resolveEaIfReady(RobEntry &entry)
{
    // Address generation is decoupled from data (STA/STD split): a
    // store's EA resolves as soon as its address sources are ready,
    // even if the store data is still pending, so younger loads are
    // not conservatively blocked on store data.
    if (entry.eaValid || !entry.dop->isMem)
        return;
    // A source with scale 0 is an ordering-only dependence: it gates
    // issue but contributes nothing to the address.
    const bool src0_ok =
        entry.srcProducer[0] == kNoSeq || entry.inst->scale0 == 0;
    const bool src1_ok =
        entry.srcProducer[1] == kNoSeq || entry.inst->scale1 == 0;
    if (src0_ok && src1_ok) {
        entry.ea = computeEa(entry);
        entry.eaValid = true;
    }
}

void
OooCore::wakeConsumers(RobEntry &producer)
{
    for (const auto &[consumer, consumer_seq] : producer.consumers) {
        if (consumer->seq != consumer_seq)
            continue; // squashed
        for (int slot = 0; slot < 3; ++slot) {
            if (consumer->srcProducer[slot] == producer.seq) {
                consumer->srcVal[slot] = producer.value;
                consumer->srcProducer[slot] = kNoSeq;
                --consumer->pendingSrcs;
            }
        }
        resolveEaIfReady(*consumer);
        if (consumer->pendingSrcs == 0 &&
            consumer->status == Status::Waiting) {
            markReady(*consumer);
        }
    }
    producer.consumers.clear();
}

void
OooCore::resolveBranch(RobEntry &entry)
{
    CtxState &c = ctxOf(entry);
    const bool taken = entry.value != 0;
    const auto key =
        BranchPredictor::makeKey(c.programId, entry.pc);
    predictor_.update(key, taken);
    if (taken != entry.predictedTaken) {
        ++counters_.mispredicts;
        ++c.counters.mispredicts;
        const std::int32_t correct_pc =
            taken ? entry.inst->target : entry.pc + 1;
        squashAfter(c, entry.seq, correct_pc);
    }
}

void
OooCore::squashAfter(CtxState &c, std::uint64_t seq, std::int32_t new_pc)
{
    while (!c.rob.empty() && c.rob.back()->seq > seq) {
        RobEntry &victim = *c.rob.back();
        ++counters_.squashedInstrs;
        ++c.counters.squashedInstrs;
        if (victim.inst->op == Opcode::Store)
            --c.inflightStores;
        if (victim.inst->op == Opcode::Branch &&
            victim.status != Status::Completed) {
            --c.inflightBranches;
        }
        if (victim.status == Status::Waiting ||
            victim.status == Status::Ready) {
            --iqOccupancy_;
        }
        recycleEntry(std::move(c.rob.back()));
        c.rob.pop_back();
        // Events, ready-queue entries, and in-flight cache fills for the
        // squashed instruction are removed lazily (seq lookups fail) —
        // crucially, the cache fill itself still completes: transient
        // fills persist, the property the P/A racing gadget relies on.
    }

    // Rebuild the rename table from the surviving entries.
    std::fill(c.renameTable.begin(), c.renameTable.end(), nullptr);
    for (auto &entry : c.rob) {
        if (entry->dop->writesDst)
            c.renameTable[entry->inst->dst] = entry.get();
    }

    c.fetchPc = new_pc;
    c.fetchStallUntil = cycle_ + config_.mispredictPenalty;
}

bool
OooCore::processCompletions()
{
    bool work = false;
    while (!events_.empty() && events_.top().cycle <= cycle_) {
        const Event ev = events_.top();
        events_.pop();
        RobEntry *entry = ev.entry;
        if (entry->seq != ev.seq || entry->status != Status::Issued)
            continue; // squashed (or stale)
        if (entry->inst->op == Opcode::Load && !entry->forwarded)
            entry->value = memory_.read(entry->ea);
        entry->status = Status::Completed;
        if (lockstepRec_ && entry->inst->op == Opcode::Load)
            lockstep_->recordLoadComplete(*entry);
        wakeConsumers(*entry);
        if (entry->inst->op == Opcode::Branch) {
            --ctxOf(*entry).inflightBranches;
            resolveBranch(*entry);
        }
        work = true;
    }
    return work;
}

bool
OooCore::tryIssueMemOp(RobEntry &entry)
{
    if (!entry.eaValid) {
        entry.ea = computeEa(entry);
        entry.eaValid = true;
    }
    const Opcode op = entry.inst->op;
    CtxState &c = ctxOf(entry);

    if (op == Opcode::Store) {
        auto done = pools_[static_cast<int>(FuClass::MemWrite)]->tryIssue(
            cycle_);
        if (!done)
            return false;
        entry.value = entry.srcVal[2]; // store data travels in slot 2
        events_.push({*done, entry.seq, &entry});
        if (lockstepRec_)
            lockstep_->recordIssue(entry);
        ++counters_.issuedByClass[static_cast<int>(FuClass::MemWrite)];
        ++c.counters.issuedByClass[static_cast<int>(FuClass::MemWrite)];
        return true;
    }

    // Loads must respect older stores of their own context
    // (conservative disambiguation; contexts have no architectural
    // ordering against each other).
    if (op == Opcode::Load && c.inflightStores > 0) {
        const RobEntry *forward_from = nullptr;
        for (const auto &older : c.rob) {
            if (older->seq >= entry.seq)
                break;
            if (older->inst->op != Opcode::Store)
                continue;
            if (!older->eaValid)
                return false; // unresolved older store: wait
            if (MemoryImage::wordAddr(older->ea) ==
                MemoryImage::wordAddr(entry.ea)) {
                forward_from = older.get();
            }
        }
        if (forward_from) {
            if (forward_from->status != Status::Completed)
                return false; // store data not ready yet
            entry.forwarded = true;
            entry.value = forward_from->value;
            events_.push({cycle_ + 1, entry.seq, &entry});
            if (lockstepRec_)
                lockstep_->recordIssue(entry);
            ++counters_.issuedByClass[static_cast<int>(FuClass::MemRead)];
            ++c.counters.issuedByClass[static_cast<int>(FuClass::MemRead)];
            return true;
        }
    }

    // Delay-on-miss: speculative loads (an unresolved older branch
    // exists) that would miss the L1 are held until non-speculative.
    if (config_.delayOnMiss && op == Opcode::Load &&
        c.inflightBranches > 0) {
        bool older_branch = false;
        for (const auto &other : c.rob) {
            if (other->seq >= entry.seq)
                break;
            if (other->inst->op == Opcode::Branch &&
                other->status != Status::Completed) {
                older_branch = true;
                break;
            }
        }
        if (older_branch &&
            !hierarchy_.l1().contains(hierarchy_.l1().lineAddr(
                entry.ea))) {
            return false; // replay until the branch resolves
        }
    }

    auto port = pools_[static_cast<int>(FuClass::MemRead)]->tryIssue(
        cycle_);
    if (!port)
        return false;

    const AccessKind kind =
        op == Opcode::Prefetch ? AccessKind::Prefetch : AccessKind::Load;
    const AccessOutcome outcome =
        hierarchy_.access(entry.ea, cycle_, kind, entry.ctx);
    if (!outcome.accepted)
        return false; // out of MSHRs, retry

    // Software prefetches retire without waiting for data (section
    // 6.3.1: they never block the pipeline).
    const Cycle done =
        op == Opcode::Prefetch ? cycle_ + 1 : outcome.readyCycle;
    events_.push({done, entry.seq, &entry});
    if (lockstepRec_) {
        lockstep_->recordIssue(entry);
        lockstep_->recordAccess(entry.ea);
    }
    ++counters_.issuedByClass[static_cast<int>(FuClass::MemRead)];
    ++c.counters.issuedByClass[static_cast<int>(FuClass::MemRead)];
    return true;
}

bool
OooCore::issueStage()
{
    int issued = 0;
    bool work = false;

    // Memory-op replays first (they are the oldest waiters).
    if (!replayQueue_.empty()) {
        std::vector<std::pair<RobEntry *, std::uint64_t>> retry;
        retry.swap(replayQueue_);
        for (const auto &[entry, seq] : retry) {
            if (entry->seq != seq || entry->status != Status::Ready)
                continue; // squashed
            if (issued < config_.issueWidth && tryIssueMemOp(*entry)) {
                entry->status = Status::Issued;
                --iqOccupancy_;
                ++issued;
                work = true;
            } else {
                replayQueue_.emplace_back(entry, seq);
            }
        }
    }

    static constexpr FuClass kOrder[6] = {
        FuClass::BranchU, FuClass::MemRead, FuClass::MemWrite,
        FuClass::IntAlu, FuClass::IntMul, FuClass::FpDiv};

    for (FuClass cls : kOrder) {
        auto &queue = readyQueue_[static_cast<int>(cls)];
        while (issued < config_.issueWidth && !queue.empty()) {
            const std::uint64_t seq = queue.top().seq;
            RobEntry *entry = queue.top().entry;
            if (entry->seq != seq || entry->status != Status::Ready) {
                queue.pop(); // stale (squashed or re-routed)
                continue;
            }
            if (entry->dop->isMem) {
                queue.pop();
                if (tryIssueMemOp(*entry)) {
                    entry->status = Status::Issued;
                    --iqOccupancy_;
                    ++issued;
                    work = true;
                } else {
                    replayQueue_.emplace_back(entry, seq);
                }
                continue;
            }
            auto done = pools_[static_cast<int>(cls)]->tryIssue(cycle_);
            if (!done)
                break; // no unit free in this class this cycle
            queue.pop();
            entry->value = computeAlu(*entry);
            entry->status = Status::Issued;
            --iqOccupancy_;
            events_.push({*done, entry->seq, entry});
            if (lockstepRec_)
                lockstep_->recordIssue(*entry);
            ++counters_.issuedByClass[static_cast<int>(cls)];
            ++ctxOf(*entry).counters.issuedByClass[static_cast<int>(cls)];
            ++issued;
            work = true;
        }
    }
    return work;
}

bool
OooCore::fetchOne(CtxState &c)
{
    const Instruction &inst = c.decoded->code[c.fetchPc];
    const DecodedOp &dop = c.decoded->ops[c.fetchPc];
    auto entry = takeEntry();
    entry->seq = nextSeq_++;
    entry->pc = c.fetchPc;
    entry->ctx = static_cast<ContextId>(&c - ctxs_.data());
    entry->inst = &inst;
    entry->dop = &dop;
    entry->srcProducer[0] = kNoSeq;
    entry->srcProducer[1] = kNoSeq;
    entry->srcProducer[2] = kNoSeq;

    // Next fetch pc (possibly speculative); precomputed except for the
    // predicted direction of a conditional branch.
    if (dop.next == NextPcKind::Branch) {
        const auto key = BranchPredictor::makeKey(c.programId,
                                                  c.fetchPc);
        entry->predictedTaken = predictor_.predict(key);
        c.fetchPc = entry->predictedTaken ? dop.nextPc : c.fetchPc + 1;
    } else {
        c.fetchPc = dop.nextPc;
    }

    // Rename: capture sources (slot layout predecoded; stores read
    // their data via slot 2).
    for (int slot = 0; slot < 3; ++slot) {
        const RegId reg = dop.srcs[slot];
        if (reg == kNoReg)
            continue;
        RobEntry *producer = c.renameTable[reg];
        if (!producer) {
            entry->srcVal[slot] = c.regfile[reg];
        } else if (producer->status == Status::Completed) {
            entry->srcVal[slot] = producer->value;
        } else {
            entry->srcProducer[slot] = producer->seq;
            producer->consumers.emplace_back(entry.get(),
                                             entry->seq);
            ++entry->pendingSrcs;
        }
    }

    if (dop.writesDst)
        c.renameTable[inst.dst] = entry.get();
    if (inst.op == Opcode::Store)
        ++c.inflightStores;
    if (inst.op == Opcode::Branch)
        ++c.inflightBranches;

    resolveEaIfReady(*entry);
    if (entry->pendingSrcs == 0)
        markReady(*entry);
    ++iqOccupancy_;

    c.rob.push_back(std::move(entry));
    return true;
}

bool
OooCore::dispatchStage()
{
    if (draining_)
        return false;

    const int n = static_cast<int>(ctxs_.size());

    // A context can dispatch when it has code left, is past any
    // redirect stall, and finds room in its ROB partition and the
    // shared issue queue. ROB-full counts one stall per context per
    // dispatch opportunity, matching the single-context model.
    auto can_fetch = [&](CtxState &c) {
        if (!c.active || c.halted)
            return false;
        if (cycle_ < c.fetchStallUntil)
            return false;
        if (fetchExhausted(c))
            return false;
        if (static_cast<int>(c.rob.size()) >= robPartition_) {
            if (!c.robFullCounted) {
                c.robFullCounted = true;
                ++counters_.robFullStalls;
                ++c.counters.robFullStalls;
            }
            return false;
        }
        if (iqOccupancy_ >= config_.effectiveIqSize())
            return false;
        return true;
    };

    // Single-context fast path: the legacy dispatch loop, no
    // arbitration arithmetic on the hot path.
    if (n == 1) {
        CtxState &c = ctxs_[0];
        c.robFullCounted = false;
        bool work = false;
        for (int budget = config_.fetchWidth; budget > 0; --budget) {
            if (!can_fetch(c))
                break;
            fetchOne(c);
            work = true;
        }
        return work;
    }

    for (CtxState &c : ctxs_)
        c.robFullCounted = false;

    // Shared fetch bandwidth, round-robin per instruction across the
    // contexts; the rotation cursor advances every dispatch call so no
    // context is structurally favoured.
    bool work = false;
    std::uint32_t rotate = dispatchRotate_++;
    for (int budget = config_.fetchWidth; budget > 0; --budget) {
        bool fetched = false;
        for (int k = 0; k < n; ++k) {
            CtxState &c =
                ctxs_[(rotate + static_cast<std::uint32_t>(k)) %
                      static_cast<std::uint32_t>(n)];
            if (!can_fetch(c))
                continue;
            fetchOne(c);
            rotate += static_cast<std::uint32_t>(k) + 1;
            fetched = true;
            work = true;
            break;
        }
        if (!fetched)
            break;
    }
    return work;
}

bool
OooCore::commitStage()
{
    const int n = static_cast<int>(ctxs_.size());
    int budget = config_.commitWidth;
    bool committed_any = false;

    for (int k = 0; k < n && budget > 0; ++k) {
        // n == 1 avoids the rotation arithmetic (the common case).
        CtxState &c =
            n == 1 ? ctxs_[0]
                   : ctxs_[(commitRotate_ +
                            static_cast<std::uint32_t>(k)) %
                           static_cast<std::uint32_t>(n)];
        if (!c.active)
            continue;
        bool committed_here = false;
        while (budget > 0 && !c.rob.empty()) {
            RobEntry &head = *c.rob.front();
            if (head.status != Status::Completed)
                break;

            const Instruction &inst = *head.inst;
            if (lockstepRec_)
                lockstep_->recordCommit(head);
            if (head.dop->writesDst) {
                c.regfile[inst.dst] = head.value;
                if (c.renameTable[inst.dst] == &head)
                    c.renameTable[inst.dst] = nullptr;
            }
            switch (inst.op) {
              case Opcode::Store:
                memory_.write(head.ea, head.value);
                hierarchy_.access(head.ea, cycle_, AccessKind::Store,
                                  head.ctx);
                if (lockstepRec_)
                    lockstep_->recordAccess(head.ea);
                --c.inflightStores;
                ++counters_.committedStores;
                ++c.counters.committedStores;
                break;
              case Opcode::Load:
                ++counters_.committedLoads;
                ++c.counters.committedLoads;
                break;
              case Opcode::Branch:
              case Opcode::Jump:
                ++counters_.branches;
                ++c.counters.branches;
                if (lockstepWatch_ && inst.op == Opcode::Branch &&
                    head.value != 0 && inst.target <= head.pc)
                    lockstep_->onAnchor(head.pc);
                break;
              case Opcode::Halt:
                c.halted = true;
                break;
              default:
                break;
            }
            ++counters_.committedInstrs;
            ++c.counters.committedInstrs;
            recycleEntry(std::move(c.rob.front()));
            c.rob.pop_front();
            --budget;
            committed_here = true;
            committed_any = true;
            if (c.halted)
                break;
        }
        if (!committed_here && !c.rob.empty()) {
            ++c.counters.noCommitCycles;
            if (n == 1)
                ++counters_.noCommitCycles;
        }
    }
    if (n > 1) {
        commitRotate_ = static_cast<std::uint32_t>(
            (commitRotate_ + 1) % static_cast<std::uint32_t>(n));
        if (!committed_any && anyRobNonEmpty())
            ++counters_.noCommitCycles;
    }
    return committed_any;
}

void
OooCore::serviceInterrupt()
{
    counters_.cycles += config_.interruptOverhead;
    for (CtxState &c : ctxs_) {
        if (!c.active)
            continue;
        c.counters.cycles += config_.interruptOverhead;
        ++c.counters.interrupts;
    }
    cycle_ += config_.interruptOverhead;
    ++counters_.interrupts;
    nextInterrupt_ = cycle_ + config_.interruptInterval;
    draining_ = false;
    for (CtxState &c : ctxs_)
        c.fetchStallUntil = std::max(c.fetchStallUntil, cycle_);
}

Cycle
OooCore::nextWakeCycle() const
{
    Cycle next = ~Cycle{0};
    if (!events_.empty())
        next = std::min(next, events_.top().cycle);
    if (!replayQueue_.empty()) {
        if (auto fill = hierarchy_.nextFillCycle())
            next = std::min(next, *fill);
    }
    if (!draining_) {
        for (const CtxState &c : ctxs_) {
            const bool fetch_pending =
                c.active && !c.halted && !fetchExhausted(c);
            if (fetch_pending && c.fetchStallUntil > cycle_)
                next = std::min(next, c.fetchStallUntil);
        }
    }
    return next;
}

void
OooCore::advanceTime(Cycle target)
{
    const Cycle delta = target - cycle_;
    if (ctxs_.size() == 1) {
        // Hot path: the whole-core and per-context accounting agree.
        CtxState &c = ctxs_[0];
        if (!c.rob.empty()) {
            counters_.noCommitCycles += delta - 1;
            c.counters.noCommitCycles += delta - 1;
        }
        counters_.cycles += delta;
        c.counters.cycles += delta;
        cycle_ = target;
        return;
    }
    if (anyRobNonEmpty())
        counters_.noCommitCycles += delta - 1;
    counters_.cycles += delta;
    for (CtxState &c : ctxs_) {
        if (!c.active)
            continue;
        if (!c.rob.empty())
            c.counters.noCommitCycles += delta - 1;
        c.counters.cycles += delta;
    }
    cycle_ = target;
}

RunResult
OooCore::run(const DecodedProgram &decoded, std::uint64_t program_id,
             const std::vector<std::pair<RegId, std::int64_t>>
                 &initial_regs,
             Cycle max_cycles)
{
    return runOn(0, decoded, program_id, initial_regs, max_cycles);
}

RunResult
OooCore::runOn(ContextId ctx, const DecodedProgram &decoded,
               std::uint64_t program_id,
               const std::vector<std::pair<RegId, std::int64_t>>
                   &initial_regs,
               Cycle max_cycles)
{
    ContextProgram primary;
    primary.ctx = ctx;
    primary.decoded = &decoded;
    primary.programId = program_id;
    primary.initialRegs = initial_regs;
    return coRun(primary, {}, max_cycles);
}

RunResult
OooCore::coRun(const ContextProgram &primary,
               const std::vector<ContextProgram> &backgrounds,
               Cycle max_cycles)
{
    panicIf(primary.decoded == nullptr, "coRun: no primary program");
    resetPipeline();
    startContext(primary.ctx, *primary.decoded, primary.programId,
                 primary.initialRegs);
    for (const ContextProgram &bg : backgrounds) {
        fatalIf(bg.ctx == primary.ctx,
                "coRun: background on the primary context");
        panicIf(bg.decoded == nullptr, "coRun: no background program");
        startContext(bg.ctx, *bg.decoded, bg.programId, bg.initialRegs);
    }

    if (config_.interruptInterval > 0 && nextInterrupt_ <= cycle_)
        nextInterrupt_ = cycle_ + config_.interruptInterval;

    return runLoop(primary.ctx, max_cycles);
}

RunResult
OooCore::runLoop(ContextId primary, Cycle max_cycles)
{
    CtxState &prim = ctxs_[primary];

    RunResult result;
    result.startCycle = cycle_;
    const PerfCounters before = prim.counters;
    const Cycle deadline = cycle_ + max_cycles;

    if (config_.lockstep && config_.interruptInterval == 0) {
        if (!lockstep_)
            lockstep_ = std::make_unique<LockstepEngine>(*this);
        lockstep_->beginRun(primary, deadline);
    } else {
        lockstepWatch_ = false;
        lockstepRec_ = false;
    }

    for (;;) {
        if (draining_ && allRobsEmpty())
            serviceInterrupt();
        if (lockstepRec_)
            lockstep_->onLoopTop();

        bool work = false;
        work |= processCompletions();
        work |= issueStage();
        work |= dispatchStage();
        work |= commitStage();

        if (prim.halted)
            break;

        // A background context that ran its program to completion goes
        // idle (stops accumulating busy cycles); one that committed a
        // Halt is drained immediately so it stops holding IQ slots.
        if (ctxs_.size() > 1) {
            for (CtxState &c : ctxs_) {
                if (&c == &prim || !c.active)
                    continue;
                if (ctxDone(c))
                    abortContext(c);
            }
        }

        if (config_.interruptInterval > 0 && !draining_ &&
            cycle_ >= nextInterrupt_) {
            draining_ = true;
        }

        if (ctxDone(prim) && !draining_)
            break;

        // Advance time, skipping idle stretches.
        Cycle target = cycle_ + 1;
        if (!work && !(draining_ && allRobsEmpty())) {
            const Cycle wake = nextWakeCycle();
            if (wake == ~Cycle{0}) {
                bool fetch_ready = false;
                for (const CtxState &c : ctxs_) {
                    if (c.active && !c.halted && !fetchExhausted(c) &&
                        c.fetchStallUntil <= cycle_) {
                        fetch_ready = true;
                        break;
                    }
                }
                if (allRobsEmpty() && fetch_ready) {
                    // Fetch can proceed next cycle.
                } else if (allRobsEmpty()) {
                    // Only a fetch stall remains; handled above via
                    // nextWakeCycle, so reaching here means done.
                } else {
                    panic("OooCore: deadlock (ROB stuck with no events)");
                }
            } else {
                target = std::max(target, wake);
            }
        }
        advanceTime(target);

        fatalIf(cycle_ > deadline, "OooCore::run: cycle limit exceeded");
    }

    if (lockstep_)
        lockstep_->endRun();
    hierarchy_.applyFillsUpTo(cycle_);
    result.endCycle = cycle_;
    result.halted = prim.halted;
    result.counters = prim.counters - before;

    // Deschedule whatever is still in flight: the primary's own
    // leftover state (a halted run with younger speculative work) and
    // any still-running background neighbors.
    for (CtxState &c : ctxs_)
        if (c.active)
            abortContext(c);

    return result;
}

} // namespace hr
