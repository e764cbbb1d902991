/**
 * @file
 * MachinePool: reusable Machines restored to a common warmed base
 * snapshot instead of being reconstructed per trial.
 *
 * Construction of a Machine allocates per-set replacement state for
 * every cache level (thousands of sets), which dominates short trials.
 * A pool builds each machine once, applies an optional warmup
 * (cache/predictor training, gadget calibration, background-noise
 * installation via Machine::setBackground), snapshots it, and hands
 * out leases that start from a bit-identical restore of that base
 * state. Because every lease observes exactly the state a fresh
 * warmed machine would, trial results are byte-identical to the
 * construct-per-trial path at any worker count.
 *
 * Multi-context machines are covered in full: the base snapshot spans
 * every hardware context's counters, cache attribution, and jitter
 * streams, and backgrounds registered by the warmup persist across
 * leases (they are machine configuration, not rolled-back state) —
 * so noisy-neighbor trials lease and replay bit-identically.
 *
 * Leases are thread-safe to take from parallelMap workers; a lease
 * must not outlive its pool.
 */

#ifndef HR_EXP_MACHINE_POOL_HH
#define HR_EXP_MACHINE_POOL_HH

#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "sim/machine.hh"

namespace hr
{

/** Pool of Machines restored to a shared warmed base snapshot. */
class MachinePool
{
  private:
    struct Slot
    {
        std::unique_ptr<Machine> machine;
        Machine::Snapshot base;
    };

  public:
    using Warmup = std::function<void(Machine &)>;

    explicit MachinePool(MachineConfig config, Warmup warmup = {});

    /** RAII lease: returns the machine to the pool on destruction. */
    class Lease
    {
      public:
        Machine &machine() const { return *slot_->machine; }
        Machine *operator->() const { return slot_->machine.get(); }

        /**
         * Reset the leased machine to the pool's base state again —
         * what the next lease of it would start from — without giving
         * it up (so sources bound to it stay usable).
         */
        void restore() const;

        Lease(Lease &&) = default;
        Lease &operator=(Lease &&) = delete;
        ~Lease();

      private:
        friend class MachinePool;
        Lease(MachinePool &pool, std::unique_ptr<Slot> slot)
            : pool_(&pool), slot_(std::move(slot))
        {
        }

        MachinePool *pool_;
        std::unique_ptr<Slot> slot_;
    };

    /**
     * Take a machine in the warmed base state. Reuses an idle pooled
     * machine (restored to the base snapshot) or, when all are leased,
     * constructs and warms a new one.
     */
    Lease lease();

    /** Machines constructed so far (monitoring/tests). */
    std::size_t machinesBuilt() const { return built_; }

    /**
     * The decode cache shared by every pooled machine (null until the
     * first machine is built). All machines in a pool run the same
     * configuration, so they share one cache: a program decoded by any
     * lease is a hit for every other, and identical programs rebuilt
     * per trial alias to one image.
     */
    std::shared_ptr<DecodeCache> decodeCache() const;

  private:
    MachineConfig config_;
    Warmup warmup_;
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<Slot>> idle_;
    std::size_t built_ = 0;
    std::shared_ptr<DecodeCache> sharedCache_;
};

} // namespace hr

#endif // HR_EXP_MACHINE_POOL_HH
