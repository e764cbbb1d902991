#include "sim/decode_cache.hh"

#include "obs/log.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace hr
{

std::shared_ptr<const DecodedProgram>
DecodeCache::acquire(Program &program)
{
    if (program.id == 0)
        program.id = allocateProgramId();

    std::lock_guard<std::mutex> lock(mutex_);

    auto by_id = byId_.find(program.id);
    if (by_id != byId_.end()) {
        const DecodedProgram &cached = *by_id->second;
        // O(1) verification on the hit path: acquire runs per machine
        // call, so a deep compare here would cost as much as the decode
        // it is meant to avoid. Size-changing mutation is caught right
        // here; size-preserving in-place mutation of Program::code
        // under an unchanged id is a contract violation (reset id to 0
        // after mutating — ProgramBuilder::take always returns id 0)
        // that only debug builds pay to detect.
        if (cached.numRegs == program.numRegs &&
            cached.code.size() == program.code.size()) {
#ifndef NDEBUG
            fatalIf(!sameCode(cached.code, program.code),
                    "DecodeCache: program '" + program.name +
                        "' was mutated in place under a live id; "
                        "reset program.id = 0 after mutating code");
#endif
            ++stats_.hits;
            metrics().decodeHits.add();
            return by_id->second;
        }
        // The program was mutated in place under its old id: the id is
        // the invalidation key, so give it a fresh one (cold predictor
        // state; never perturbs timing) and fall through to re-resolve.
        // The old entry stays — other programs may carry that content.
        ++stats_.invalidations;
        metrics().decodeInvalidations.add();
        HR_TRACE_INSTANT1("decode", "decode.invalidate", "program",
                          program.id);
        program.id = allocateProgramId();
    }

    const std::uint64_t hash =
        hashProgramContent(program.code, program.numRegs);
    auto bucket = byContent_.find(hash);
    if (bucket != byContent_.end()) {
        for (const auto &candidate : bucket->second) {
            if (candidate->numRegs == program.numRegs &&
                sameCode(candidate->code, program.code)) {
                ++stats_.aliased;
                metrics().decodeAliases.add();
                HR_TRACE_INSTANT1("decode", "decode.alias", "program",
                                  program.id);
                byId_.emplace(program.id, candidate);
                return candidate;
            }
        }
    }

    ++stats_.misses;
    metrics().decodeMisses.add();
    HR_TRACE_INSTANT1("decode", "decode.miss", "program", program.id);
    auto decoded = decodeProgram(program);
    byId_.emplace(program.id, decoded);
    byContent_[hash].push_back(decoded);
    return decoded;
}

DecodeCache::Stats
DecodeCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

std::size_t
DecodeCache::entries() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t n = 0;
    for (const auto &[hash, bucket] : byContent_)
        n += bucket.size();
    return n;
}

} // namespace hr
