/**
 * @file
 * Racing gadgets (paper section 5): differential timing of a
 * measurement path against a constant-time baseline path.
 *
 * Two flavours:
 *  - TransientPaRace (5.1): the baseline path is the body of a
 *    mispredicted branch whose condition is the measurement path's
 *    terminator. If the measurement path outlasts the baseline, a
 *    transient probe access escapes before the squash (presence);
 *    otherwise it does not (absence).
 *  - ReorderRace (5.2): no speculation at all. Both paths end in a
 *    memory access; the completion order of the paths becomes the
 *    relative order of the two accesses, recorded in replacement state.
 */

#ifndef HR_GADGETS_RACING_HH
#define HR_GADGETS_RACING_HH

#include <memory>
#include <optional>

#include "gadgets/path.hh"
#include "gadgets/plru_magnifier.hh"

namespace hr
{

/** Configuration of the transient presence/absence racing gadget. */
struct TransientPaRaceConfig
{
    Addr syncAddr = 0x100'0000;  ///< synchronizing line (kept cold)
    Addr probeAddr = 0x200'0000; ///< transient probe target "A"
    Opcode refOp = Opcode::Add;  ///< baseline path operation
    int refOps = 20;             ///< baseline path length (threshold T')
    int trainRounds = 4;         ///< predictor training executions
};

/**
 * Transient presence/absence racing gadget.
 *
 * Builds (once) the program
 *     if (path_m(expr, x)) { path_b(); access[probe]; }
 * trained with x = 0 and attacked with x = 1, per section 5.1.
 */
class TransientPaRace
{
  public:
    TransientPaRace(Machine &machine, const TransientPaRaceConfig &config,
                    const TargetExpr &expr);

    const TransientPaRaceConfig &config() const { return config_; }
    const Program &program() const { return program_; }

    /**
     * Register carrying a runtime argument into the target expression
     * (always register 1 of the program; see TargetExpr::loadIndirect).
     * Passing the timed address as *data* lets training runs use a
     * harmless dummy address so they never touch the attack target.
     */
    static constexpr RegId kArgReg = 1;
    RegId argReg() const { return kArgReg; }

    /** Train the branch predictor (x = 0; cleans probe pollution). */
    void train(std::int64_t arg = 0);

    /**
     * One attack execution (x = 1). Leaves the presence/absence state
     * in the cache for a magnifier; does not read it.
     */
    RunResult runAttack(std::int64_t arg = 0);

    /**
     * Attack, then directly inspect the cache (characterization mode —
     * a real attacker would use a magnifier + coarse timer instead).
     * @return true if the probe line was transiently fetched, i.e.
     *         Time(expr) > Time(baseline).
     */
    bool attackAndProbe(std::int64_t arg = 0);

  private:
    Machine &machine_;
    TransientPaRaceConfig config_;
    Program program_;
    RegId xReg_ = kNoReg;
    RegId argReg_ = kNoReg;

    void build(const TargetExpr &expr);
};

/** Configuration of the non-transient reorder racing gadget. */
struct ReorderRaceConfig
{
    Addr syncAddr = 0x100'0000; ///< synchronizing line (kept cold)
    Addr addrA = 0;             ///< measurement path's access (misses L1)
    Addr addrB = 0;             ///< baseline path's access (hits L1)
    Opcode refOp = Opcode::Add; ///< baseline path operation
    int refOps = 20;            ///< baseline path length
};

/**
 * Non-transient reorder racing gadget: no misspeculation anywhere.
 *
 *     path_m(expr) -> access[A];
 *     path_b()     -> access[B];
 *
 * Both paths hang off the same cache-missing load and race; the
 * relative order in which A's fill and B's touch reach the L1
 * replacement state encodes the race result.
 */
class ReorderRace
{
  public:
    ReorderRace(Machine &machine, const ReorderRaceConfig &config,
                const TargetExpr &expr);

    const ReorderRaceConfig &config() const { return config_; }
    const Program &program() const { return program_; }

    /** One race execution; leaves the ordering state in the cache. */
    RunResult run();

  private:
    Machine &machine_;
    ReorderRaceConfig config_;
    Program program_;

    void build(const TargetExpr &expr);
};

/** Configuration of the pa_race TimingSource. */
struct PaRaceSourceConfig
{
    TransientPaRaceConfig race;    ///< baseline path and training
    Opcode targetOp = Opcode::Add; ///< expression operation
    int slowOps = 60;              ///< expression length, secret == true
    int fastOps = 5;               ///< expression length, secret == false
};

/**
 * The transient P/A race as a TimingSource (registry name pa_race).
 * sample() races an op chain of slowOps (secret) or fastOps against
 * the baseline and inspects the probe line directly: bit == probe
 * present == the expression outlasted the baseline. As a pipeline
 * encoder it writes the presence of the amplifier's input line.
 */
class PaRaceSource : public TimingSource
{
  public:
    PaRaceSource(Machine &machine, const PaRaceSourceConfig &config)
        : TimingSource(machine), config_(config)
    {
    }

    std::string name() const override { return "pa_race"; }
    TimingSample sample(bool secret) override;

    bool isEncoder() const override { return true; }
    void bindTarget(Addr primary, Addr secondary) override;
    void primeEncoder(bool present) override { race(present).train(); }
    void transmit(bool present) override { race(present).runAttack(); }

  private:
    PaRaceSourceConfig config_;
    Addr probeAddr_ = 0;
    std::unique_ptr<TransientPaRace> slowRace_;
    std::unique_ptr<TransientPaRace> fastRace_;

    TransientPaRaceConfig raceConfig(Addr probe) const;
    TransientPaRace &race(bool present);
};

/** Configuration of the reorder_race TimingSource. */
struct ReorderRaceSourceConfig
{
    Opcode refOp = Opcode::Add;    ///< baseline path operation
    int refOps = 60;               ///< baseline path length
    Opcode targetOp = Opcode::Add; ///< expression operation
    int slowOps = 150;             ///< expression length, B wins
    int fastOps = 5;               ///< expression length, A wins
    int set = 5;                   ///< L1 set of the standalone readout
    int tagBase = 700;             ///< tag space of the readout lines
    int readoutRepeats = 64;       ///< readout traversal periods
};

/**
 * The reorder race as a TimingSource (registry name reorder_race).
 * Standalone, the race writes A-before-B order into a W = 4 tree-PLRU
 * set that a short reorder-magnifier traversal reads out; as a
 * pipeline encoder it orders the amplifier's two input lines.
 */
class ReorderRaceSource : public TimingSource
{
  public:
    ReorderRaceSource(Machine &machine,
                      const ReorderRaceSourceConfig &config)
        : TimingSource(machine), config_(config)
    {
    }

    std::string name() const override { return "reorder_race"; }
    void calibrate() override;
    TimingSample sample(bool secret) override;

    bool isEncoder() const override { return true; }
    void bindTarget(Addr primary, Addr secondary) override;
    /** No speculation anywhere: nothing to train. */
    void primeEncoder(bool) override {}
    void transmit(bool present) override;

  private:
    ReorderRaceSourceConfig config_;
    std::unique_ptr<PlruMagnifier> readout_;
    Addr addrA_ = 0, addrB_ = 0;
    std::unique_ptr<ReorderRace> aFirstRace_;
    std::unique_ptr<ReorderRace> bFirstRace_;
    Calibration calibration_;
    bool calibrated_ = false;

    /**
     * The standalone readout magnifier, built (and targeted by the
     * races) on first standalone use: as a pipeline encoder the source
     * never reads it, and its set must not constrain the pipeline.
     */
    PlruMagnifier &readout();
};

} // namespace hr

#endif // HR_GADGETS_RACING_HH
