/**
 * @file
 * Tree-PLRU magnifier gadgets (paper sections 6.1 and 6.2).
 *
 * Both exploit the same property of tree-PLRU (Fig. 3): if the line A
 * is resident (P/A variant) or was inserted before B (reorder variant),
 * a fixed cyclic access pattern misses every other access forever while
 * never evicting A; in the opposite state the pattern quickly reaches
 * all-hits. Repeating the pattern converts a one-shot microarchitectural
 * state difference into an arbitrarily large timing difference.
 */

#ifndef HR_GADGETS_PLRU_MAGNIFIER_HH
#define HR_GADGETS_PLRU_MAGNIFIER_HH

#include <vector>

#include "gadgets/timing_source.hh"

namespace hr
{

/** Which magnifier input format is being amplified. */
enum class PlruVariant
{
    PresenceAbsence, ///< section 6.1: pattern (B,C,E,C,D,C)
    Reorder,         ///< section 6.2: pattern (C,E,C,D,C,B)
};

/** Configuration: five distinct lines mapping to one L1 set. */
struct PlruMagnifierConfig
{
    Addr a = 0; ///< the transmitted line ("A" in Fig. 3)
    Addr b = 0;
    Addr c = 0;
    Addr d = 0;
    Addr e = 0;
    int repeats = 500; ///< pattern periods per traversal
};

/** Result of one magnified observation. */
struct MagnifierResult
{
    Cycle cycles = 0;          ///< traversal duration
    std::uint64_t l1Misses = 0; ///< L1 misses during the traversal
};

/**
 * The PLRU magnifier. Requires a 4-way L1 (the paper's W = 4 example;
 * use MachineConfig with a 4-way L1, e.g. plruProfile()). For other
 * associativities see PinPatternMagnifier.
 *
 * As a TimingSource (registry names plru_pa_magnifier and
 * plru_reorder_magnifier) the input line(s) are A (P/A variant) or
 * A then B (reorder variant): present / A-first reads slow.
 */
class PlruMagnifier : public Amplifier
{
  public:
    PlruMagnifier(Machine &machine, const PlruMagnifierConfig &config,
                  PlruVariant variant);

    const PlruMagnifierConfig &config() const { return config_; }

    std::string name() const override;
    void prepare() override { prime(); }
    std::pair<Addr, Addr> inputLines() override
    {
        return {config_.a, config_.b};
    }
    void forceInput(bool slow) override;
    Cycle amplify() override { return traverse().cycles; }

    /**
     * Establish the Fig. 3(1) initial state: the set holds {B,C,D,E}
     * with the tree pointing at B; A is staged in L2 (so the racing
     * gadget's access to it resolves quickly and deterministically).
     * Uses instant warm() calls — see buildPrimeProgram() for the
     * attacker-realistic equivalent.
     */
    void prime();

    /** Load-based priming program (what real attacker code runs). */
    Program buildPrimeProgram() const;

    /** Run the access pattern `repeats` times and time it. */
    MagnifierResult traverse();

    /** The per-period access pattern (addresses). */
    std::vector<Addr> pattern() const;

    /**
     * Pick `count` distinct line addresses mapping to L1 set
     * `set_index`, with tags starting at `tag_base`.
     */
    static std::vector<Addr> sameSetLines(const Machine &machine,
                                          int set_index, int count,
                                          int tag_base = 16);

    /** Convenience: build a config from consecutive same-set lines. */
    static PlruMagnifierConfig makeConfig(const Machine &machine,
                                          int set_index, int repeats,
                                          int tag_base = 16);

  private:
    PlruMagnifierConfig config_;
    PlruVariant variant_;
    Program traverseProgram_;

    void buildTraverseProgram();
};

} // namespace hr

#endif // HR_GADGETS_PLRU_MAGNIFIER_HH
