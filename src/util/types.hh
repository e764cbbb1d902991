/**
 * @file
 * Fundamental scalar types shared across the Hacky Racers simulator.
 */

#ifndef HR_UTIL_TYPES_HH
#define HR_UTIL_TYPES_HH

#include <cstdint>

namespace hr
{

/** Byte address in the simulated (flat, physical) address space. */
using Addr = std::uint64_t;

/** Absolute simulated time in core clock cycles. */
using Cycle = std::uint64_t;

/** Architectural register identifier. */
using RegId = std::uint16_t;

/**
 * Hardware execution context (SMT-style logical thread) within one
 * Machine. Context 0 is the primary context (Machine::run's default);
 * a single-context machine is the n = 1 case of the same pipeline.
 */
using ContextId = std::uint32_t;

/** Sentinel meaning "no register operand". */
constexpr RegId kNoReg = 0xffff;

} // namespace hr

#endif // HR_UTIL_TYPES_HH
