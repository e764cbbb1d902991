#include "exp/parallel.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace hr
{

void
parallelFor(int count, int jobs, const std::function<void(int)> &body)
{
    if (count <= 0)
        return;
    const int workers = std::min(jobs, count);
    if (workers <= 1) {
        for (int i = 0; i < count; ++i)
            body(i);
        return;
    }

    std::atomic<int> next{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex error_mutex;

    auto work = [&]() {
        for (;;) {
            const int i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= count || failed.load(std::memory_order_relaxed))
                return;
            try {
                body(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!error)
                    error = std::current_exception();
                failed.store(true, std::memory_order_relaxed);
                return;
            }
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(workers - 1));
    for (int t = 1; t < workers; ++t)
        threads.emplace_back(work);
    work();
    for (auto &thread : threads)
        thread.join();
    if (error)
        std::rethrow_exception(error);
}

} // namespace hr
