/**
 * @file
 * Background noise-workload library for noisy-neighbor experiments.
 *
 * The paper's stealthy timers matter because they survive (or exploit)
 * co-resident activity: every countermeasure and every gadget has to
 * be judged against a neighbor hammering the shared hierarchy. This
 * module packages the canonical neighbors as generated Programs that a
 * Machine co-runs on a secondary hardware context (see
 * Machine::setBackground):
 *
 *   idle           no co-resident activity (the control)
 *   pointer_chase  serial pointer chase over a working set larger than
 *                  the L1 — a latency-bound evictor that continuously
 *                  replaces the attacker's lines
 *   stream_writer  dense independent stores cycling over a buffer — a
 *                  bandwidth-bound writer that pressures the store
 *                  port and fills the MSHRs
 *
 * All noise programs are infinite loops; the co-run driver abandons
 * them when the primary context completes. Generation is fully
 * deterministic (addresses and loop shapes depend only on the machine
 * geometry and the parameters), so noisy co-runs replay bit-identically.
 */

#ifndef HR_SIM_NOISE_HH
#define HR_SIM_NOISE_HH

#include <string>
#include <vector>

#include "sim/machine.hh"
#include "util/params.hh"

namespace hr
{

/** The background workload families. */
enum class NoiseKind { Idle, PointerChase, StreamWriter };

/** One registered noise workload. */
struct NoiseInfo
{
    std::string name; ///< CLI/scenario-stable identifier
    NoiseKind kind;
    std::string description;
    ParamSchema params; ///< declared parameter keys
};

/** All noise workloads, in stable listed order (idle first). */
const std::vector<NoiseInfo> &noiseWorkloads();

/** Look a workload up by name; fatal (with the known names) if absent. */
const NoiseInfo &noiseWorkload(const std::string &name);

/**
 * Build the noise program for this machine's geometry and write its
 * backing data structures (the pointer ring) into machine memory.
 * @p params are checked against the workload's declaration
 * (NoiseInfo::params): `noise_lines` working-set size in cache lines
 * (defaults: 2x the L1 for pointer_chase, 256 for stream_writer);
 * `noise_unroll` chase steps per loop iteration (pointer_chase only).
 * Idle accepts no parameters and returns a program that halts
 * immediately.
 */
Program makeNoiseProgram(Machine &machine, NoiseKind kind,
                         const ParamSet &params = {});

/**
 * Install a noise workload on context @p ctx: generates the program
 * and registers it as the context's background (Idle clears it). The
 * machine must be configured with contexts > ctx.
 */
void installNoise(Machine &machine, ContextId ctx, NoiseKind kind,
                  const ParamSet &params = {});

/** installNoise by registered name. */
void installNoise(Machine &machine, ContextId ctx,
                  const std::string &name, const ParamSet &params = {});

} // namespace hr

#endif // HR_SIM_NOISE_HH
