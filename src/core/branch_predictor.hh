/**
 * @file
 * Direction predictor for conditional branches.
 *
 * A table of 2-bit saturating counters keyed by (program id, pc), so
 * running the same Program repeatedly trains its branches — which is how
 * the paper's transient P/A racing gadget sets up its misprediction
 * (train with x = 0, attack with x = 1).
 */

#ifndef HR_CORE_BRANCH_PREDICTOR_HH
#define HR_CORE_BRANCH_PREDICTOR_HH

#include <cstdint>
#include <unordered_map>

namespace hr
{

/** 2-bit-counter branch direction predictor. */
class BranchPredictor
{
  public:
    /** Predict taken/not-taken for a static branch. */
    bool predict(std::uint64_t key) const;

    /** Train with the resolved direction. */
    void update(std::uint64_t key, bool taken);

    /** Forget everything (fresh browser tab). */
    void reset() { counters_.clear(); }

    /** Number of static branches seen. */
    std::size_t tableSize() const { return counters_.size(); }

    /** Build the lookup key for a branch. */
    static std::uint64_t
    makeKey(std::uint64_t program_id, std::int32_t pc)
    {
        return (program_id << 20) ^ static_cast<std::uint64_t>(pc);
    }

    /**
     * Monotone mutation version: bumped by update() only when the
     * table observably changes (a counter moves or a key is first
     * seen). An unchanged version across a stretch of execution proves
     * the predictor was a fixed point over it — saturated counters
     * re-trained with their own direction do not bump it.
     */
    std::uint64_t version() const { return version_; }

  private:
    static constexpr std::uint8_t kInit = 1; // weakly not-taken
    std::unordered_map<std::uint64_t, std::uint8_t> counters_;
    std::uint64_t version_ = 0;
};

} // namespace hr

#endif // HR_CORE_BRANCH_PREDICTOR_HH
