/**
 * @file
 * Arithmetic-operation-only magnifier gadget (paper section 6.4).
 *
 * Uses no memory beyond two head loads: two paths of chained arithmetic
 * race through repeated stages. PathA's racing stage is a chain of MULs
 * sized to take exactly as long as PathB's chain of DIVs; PathA then
 * issues a burst of independent DIVs. Aligned, the burst lands in a gap
 * and nobody waits. Misaligned, the burst occupies the (not fully
 * pipelined) divider exactly when PathB's dependent DIVs need it,
 * pushing PathB later every stage — a cache-free chain reaction that no
 * cache defence can touch.
 */

#ifndef HR_GADGETS_ARITH_MAGNIFIER_HH
#define HR_GADGETS_ARITH_MAGNIFIER_HH

#include "gadgets/timing_source.hh"

namespace hr
{

/** Configuration of the arithmetic-only magnifier. */
struct ArithMagnifierConfig
{
    int stages = 1000; ///< racing stages (the gadget's repeat count)
    int divChain = 8;  ///< PathB: dependent DIVs per stage
    int parDivs = 4;   ///< PathA: independent DIV burst per stage
    /**
     * ADD buffer per stage (both paths). 0 = auto: sized so the aligned
     * case has no divider contention (parDivs * initiation interval
     * plus margin).
     */
    int addBuffer = 0;

    Addr syncAddr = 0x100'0000;
    Addr inputAddr = 0x300'0000;  ///< PathB head: present = aligned
    Addr alignAddrA = 0x310'0000; ///< PathA head: always present
};

/**
 * The magnifier. MUL chain length is derived from the FU latencies.
 * As a TimingSource (registry name arith_magnifier) its input is
 * PathB's head line: present = aligned = fast.
 */
class ArithMagnifier : public Amplifier
{
  public:
    ArithMagnifier(Machine &machine, const ArithMagnifierConfig &config);

    const ArithMagnifierConfig &config() const { return config_; }
    const Program &program() const { return program_; }

    /** MULs per racing stage (divChain * latDiv / latMul). */
    int mulChain() const { return mulChain_; }
    /** Effective ADD buffer length. */
    int addBuffer() const { return addBuffer_; }

    /** One magnified observation. @return duration in cycles. */
    Cycle run(bool input_present);

    /** Cycle delta between absent and present inputs. */
    Cycle measureDelta();

    std::string name() const override { return "arith_magnifier"; }

    /** Warm PathA's head, chill the sync line (before each run). */
    void prepare() override;

    std::pair<Addr, Addr> inputLines() override
    {
        return {config_.inputAddr, 0};
    }
    bool presentMeansSlow() const override { return false; }
    void forceInput(bool slow) override;

    /**
     * Re-chill the sync line (an encoder's program may have warmed it;
     * prepare() is idempotent and input-preserving), then traverse.
     */
    Cycle amplify() override;

    /**
     * Run the racing stages over the current cache state (prepare()
     * and the input line's state are the caller's business — the
     * amplify step of a composed pipeline).
     */
    Cycle traverse();

  private:
    ArithMagnifierConfig config_;
    int mulChain_;
    int addBuffer_;
    Program program_;

    void build();
};

} // namespace hr

#endif // HR_GADGETS_ARITH_MAGNIFIER_HH
