#include "obs/progress.hh"

#include <algorithm>

#include "obs/metrics.hh"
#include "util/log.hh"

namespace hr
{

ProgressSink &
ProgressSink::instance()
{
    static ProgressSink sink;
    return sink;
}

void
ProgressSink::configure(const std::string &dest)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    if (ownsFile_ && out_ != nullptr)
        std::fclose(out_);
    out_ = nullptr;
    ownsFile_ = false;
    if (dest.empty()) {
        active_.store(false, std::memory_order_relaxed);
        return;
    }
    if (dest == "stderr") {
        out_ = stderr;
    } else {
        out_ = std::fopen(dest.c_str(), "w");
        if (out_ == nullptr)
            fatal("cannot open progress output file '" + dest + "'");
        ownsFile_ = true;
    }
    active_.store(true, std::memory_order_relaxed);
}

void
ProgressSink::writeLine(const std::string &line)
{
    // Caller holds mutex_.
    std::fwrite(line.data(), 1, line.size(), out_);
    std::fputc('\n', out_);
    std::fflush(out_);
}

void
ProgressSink::beginTask(const char *name, std::uint64_t total, int jobs)
{
    if (!activeFast())
        return;
    const std::lock_guard<std::mutex> lock(mutex_);
    task_ = name;
    total_ = total;
    done_.store(0, std::memory_order_relaxed);
    lastMilestone_ = 0;
    taskStart_ = std::chrono::steady_clock::now();
    writeLine("{\"type\": \"task_start\", \"task\": \"" + task_ +
              "\", \"total\": " + std::to_string(total_) +
              ", \"jobs\": " + std::to_string(jobs) + "}");
}

void
ProgressSink::advance(std::uint64_t n)
{
    if (!activeFast())
        return;
    const std::uint64_t done =
        done_.fetch_add(n, std::memory_order_relaxed) + n;
    if (total_ == 0)
        return;
    const std::uint64_t milestone =
        std::min<std::uint64_t>(kMilestones, done * kMilestones / total_);
    if (milestone == 0)
        return;

    const std::lock_guard<std::mutex> lock(mutex_);
    if (milestone <= lastMilestone_ || task_.empty())
        return;
    lastMilestone_ = milestone;

    // Deterministic fields come from the milestone, not the racy
    // counter; wall fields (rate, eta) are informational only.
    const std::uint64_t doneAtMilestone =
        milestone * total_ / kMilestones;
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      taskStart_)
            .count();
    const double rate = elapsed > 0 ? static_cast<double>(done) / elapsed
                                    : 0.0;
    const double eta =
        rate > 0 ? static_cast<double>(total_ - doneAtMilestone) / rate
                 : 0.0;
    char wall[80];
    std::snprintf(wall, sizeof(wall),
                  "\"rate_per_s\": %.1f, \"eta_s\": %.2f", rate, eta);
    writeLine("{\"type\": \"heartbeat\", \"task\": \"" + task_ +
              "\", \"done\": " + std::to_string(doneAtMilestone) +
              ", \"total\": " + std::to_string(total_) + ", " + wall +
              "}");
    metrics().progressHeartbeats.add();
}

void
ProgressSink::endTask()
{
    if (!activeFast())
        return;
    const std::lock_guard<std::mutex> lock(mutex_);
    if (task_.empty())
        return;
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      taskStart_)
            .count();
    char wall[48];
    std::snprintf(wall, sizeof(wall), "\"wall_s\": %.3f", elapsed);
    writeLine("{\"type\": \"task_end\", \"task\": \"" + task_ +
              "\", \"total\": " + std::to_string(total_) + ", " + wall +
              "}");
    task_.clear();
    total_ = 0;
    lastMilestone_ = 0;
}

} // namespace hr
