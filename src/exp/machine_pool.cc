#include "exp/machine_pool.hh"

#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace hr
{

MachinePool::MachinePool(MachineConfig config, Warmup warmup)
    : config_(std::move(config)), warmup_(std::move(warmup))
{
}

MachinePool::Lease
MachinePool::lease()
{
    std::unique_ptr<Slot> slot;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!idle_.empty()) {
            slot = std::move(idle_.back());
            idle_.pop_back();
        } else {
            ++built_;
        }
    }
    if (slot) {
        metrics().poolLeases.add();
        metrics().poolLeasesReused.add();
        Lease lease(*this, std::move(slot));
        lease.restore();
        return lease;
    }
    // Construct outside the lock so warmups run concurrently.
    HR_TRACE_SCOPE("pool", "pool.build");
    metrics().poolLeases.add();
    metrics().poolMachinesBuilt.add();
    slot = std::make_unique<Slot>();
    slot->machine = std::make_unique<Machine>(config_);
    if (warmup_)
        warmup_(*slot->machine);
    slot->base = slot->machine->snapshot();
    return Lease(*this, std::move(slot));
}

void
MachinePool::Lease::restore() const
{
    HR_TRACE_SCOPE("pool", "pool.restore");
    slot_->machine->restore(slot_->base);
}

MachinePool::Lease::~Lease()
{
    if (!slot_)
        return; // moved-from
    std::lock_guard<std::mutex> lock(pool_->mutex_);
    pool_->idle_.push_back(std::move(slot_));
}

} // namespace hr
