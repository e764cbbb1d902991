/**
 * @file
 * Deterministic pseudo-random number generation (xoshiro256++).
 *
 * All randomness in the simulator and the experiments flows through
 * seeded Rng instances so every run is exactly reproducible.
 */

#ifndef HR_UTIL_RNG_HH
#define HR_UTIL_RNG_HH

#include <cstdint>
#include <vector>

namespace hr
{

/**
 * xoshiro256++ generator with splitmix64 seeding.
 *
 * Small, fast, and good enough statistical quality for replacement-policy
 * and jitter modelling; not cryptographic.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /**
     * Reset the stream as if freshly constructed from @p seed, but
     * keep the draws() counter monotone — so draw accounting stays
     * valid across the reseed points the simulator's noise streams go
     * through between trials.
     */
    void reseed(std::uint64_t seed);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform integer in [0, bound) (bound must be > 0). */
    std::uint64_t below(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t range(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [0, 1). */
    double uniform();

    /** Bernoulli trial with probability p. */
    bool chance(double p);

    /** Fisher-Yates shuffle of a vector. */
    template <typename T>
    void
    shuffle(std::vector<T> &v)
    {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::size_t j = below(i);
            std::swap(v[i - 1], v[j]);
        }
    }

    /** Derive an independent child stream (useful per-component). */
    Rng split();

    /**
     * Values drawn since construction. Consumers that must prove a
     * stretch of execution never consumed randomness (lockstep
     * fast-forward) compare this before/after: an unchanged count
     * means the stream state is untouched.
     */
    std::uint64_t draws() const { return draws_; }

  private:
    std::uint64_t s_[4];
    std::uint64_t draws_ = 0;
};

} // namespace hr

#endif // HR_UTIL_RNG_HH
