/**
 * @file
 * TrialTrace: a recorded sequence of Machine harness operations.
 *
 * The static leakage analyzer (analysis/leakage.hh) and the capacity
 * engine record one trial per polarity through Machine::beginRecord
 * and fold the trace into a cache footprint: every operation that can
 * shape cache or memory state — run/coRun, poke, warm, flushLine,
 * flushAllCaches — is appended with its inputs (and, for runs, the
 * outcome). Reads, settle and reseedNoise leave no footprint and are
 * not recorded. Snapshot/restore and background changes during
 * recording cannot be expressed as a linear op sequence, so they mark
 * the trace opaque, which the analyzer reports.
 */

#ifndef HR_SIM_TRIAL_TRACE_HH
#define HR_SIM_TRIAL_TRACE_HH

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/ooo_core.hh"
#include "isa/decoded_program.hh"
#include "util/types.hh"

namespace hr
{

/** One recorded Machine operation. */
struct TraceOp
{
    enum class Kind : std::uint8_t
    {
        Run,       ///< run()/coRun() (one op per call)
        Poke,      ///< poke(addr, value)
        Warm,      ///< warm(addr) to any level
        FlushLine, ///< flushLine(addr)
        FlushAll,  ///< flushAllCaches()
    };

    /** Inputs of a Run op (co-runners start with no initial regs). */
    struct RunSpec
    {
        std::shared_ptr<const DecodedProgram> decoded;
        std::vector<std::pair<RegId, std::int64_t>> initialRegs;
        std::vector<std::shared_ptr<const DecodedProgram>> extras;
    };

    Kind kind = Kind::Run;
    RunSpec run;            ///< Kind::Run only
    RunResult result;       ///< Kind::Run: the outcome
    Addr addr = 0;          ///< Poke/Warm/FlushLine
    std::int64_t value = 0; ///< Poke
};

/** A recorded trial: the op sequence one execution made. */
struct TrialTrace
{
    std::vector<TraceOp> ops;

    /**
     * The trial used snapshot/restore or changed backgrounds while
     * recording: the op sequence does not describe its execution.
     */
    bool opaque = false;
};

} // namespace hr

#endif // HR_SIM_TRIAL_TRACE_HH
