#include "core/func_unit.hh"

#include <algorithm>

#include "obs/log.hh"

namespace hr
{

FuncUnitPool::FuncUnitPool(const FuConfig &config)
    : config_(config),
      freeAt_(static_cast<std::size_t>(config.count), 0)
{
    fatalIf(config_.count <= 0, "FuncUnitPool: count must be positive");
    fatalIf(config_.initInterval == 0,
            "FuncUnitPool: initiation interval must be >= 1");
}

std::optional<Cycle>
FuncUnitPool::tryIssue(Cycle now)
{
    for (auto &free_at : freeAt_) {
        if (free_at <= now) {
            free_at = now + config_.initInterval;
            return now + config_.latency;
        }
    }
    return std::nullopt;
}

Cycle
FuncUnitPool::nextFree() const
{
    return *std::min_element(freeAt_.begin(), freeAt_.end());
}

void
FuncUnitPool::reset()
{
    std::fill(freeAt_.begin(), freeAt_.end(), 0);
}

void
FuncUnitPool::setReservations(const std::vector<Cycle> &busy_until)
{
    panicIf(busy_until.size() != freeAt_.size(),
            "FuncUnitPool::setReservations: unit count mismatch");
    freeAt_ = busy_until;
}

} // namespace hr
