#include "obs/trace.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/log.hh"
#include "obs/metrics.hh"

namespace hr
{

namespace
{

/** Fixed-capacity overwrite-oldest event buffer, one per thread. */
struct Ring
{
    Ring(std::size_t capacity, std::uint64_t tid)
        : events(capacity), tid(tid)
    {
    }

    std::vector<TraceEvent> events;
    std::uint64_t head = 0; //!< total events ever pushed
    std::uint64_t tid = 0;

    void
    push(const TraceEvent &event)
    {
        events[head % events.size()] = event;
        ++head;
    }

    std::uint64_t
    dropped() const
    {
        return head > events.size() ? head - events.size() : 0;
    }

    std::uint64_t
    buffered() const
    {
        return std::min<std::uint64_t>(head, events.size());
    }
};

struct RecorderState
{
    std::mutex mutex;
    std::vector<std::unique_ptr<Ring>> rings;
    std::atomic<std::uint64_t> epoch{0};
    std::size_t capacity = TraceRecorder::kDefaultRingCapacity;
    std::chrono::steady_clock::time_point origin =
        std::chrono::steady_clock::now();
};

RecorderState &
state()
{
    static RecorderState instance;
    return instance;
}

/**
 * Cached per-thread ring pointer, revalidated against the recorder
 * epoch so enable()/clear() can free rings without leaving a worker
 * thread holding a dangling pointer.
 */
struct ThreadSlot
{
    std::uint64_t epoch = ~std::uint64_t{0};
    Ring *ring = nullptr;
};

thread_local ThreadSlot tSlot; // NOLINT(misc-use-internal-linkage)

Ring &
threadRing()
{
    RecorderState &s = state();
    const std::uint64_t epoch = s.epoch.load(std::memory_order_acquire);
    if (tSlot.epoch != epoch) {
        const std::lock_guard<std::mutex> lock(s.mutex);
        s.rings.push_back(
            std::make_unique<Ring>(s.capacity, s.rings.size()));
        tSlot.ring = s.rings.back().get();
        tSlot.epoch = epoch;
    }
    return *tSlot.ring;
}

void
appendJsonEscaped(std::string &out, const char *text)
{
    for (const char *p = text; *p != '\0'; ++p) {
        const char c = *p;
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else {
            out += c;
        }
    }
}

void
appendMicros(std::string &out, std::uint64_t ns)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%llu.%03llu",
                  static_cast<unsigned long long>(ns / 1000),
                  static_cast<unsigned long long>(ns % 1000));
    out += buf;
}

} // namespace

std::atomic<bool> TraceRecorder::gEnabled{false};

void
TraceRecorder::enable(std::size_t ringCapacity)
{
    RecorderState &s = state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    s.rings.clear();
    s.capacity = ringCapacity == 0 ? 1 : ringCapacity;
    s.origin = std::chrono::steady_clock::now();
    s.epoch.fetch_add(1, std::memory_order_release);
    gEnabled.store(true, std::memory_order_relaxed);
}

void
TraceRecorder::disable()
{
    gEnabled.store(false, std::memory_order_relaxed);
}

void
TraceRecorder::clear()
{
    RecorderState &s = state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    s.rings.clear();
    s.epoch.fetch_add(1, std::memory_order_release);
}

std::uint64_t
TraceRecorder::nowNs()
{
    const auto delta = std::chrono::steady_clock::now() - state().origin;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(delta)
            .count());
}

std::uint64_t
TraceRecorder::droppedEvents()
{
    RecorderState &s = state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    std::uint64_t total = 0;
    for (const auto &ring : s.rings)
        total += ring->dropped();
    return total;
}

std::uint64_t
TraceRecorder::bufferedEvents()
{
    RecorderState &s = state();
    const std::lock_guard<std::mutex> lock(s.mutex);
    std::uint64_t total = 0;
    for (const auto &ring : s.rings)
        total += ring->buffered();
    return total;
}

void
TraceRecorder::emitComplete(const char *category, const char *name,
                            std::uint64_t startNs)
{
    TraceEvent event;
    event.name = name;
    event.category = category;
    event.phase = 'X';
    event.startNs = startNs;
    const std::uint64_t end = nowNs();
    event.durNs = end > startNs ? end - startNs : 0;
    threadRing().push(event);
}

void
TraceRecorder::emitInstant(const char *category, const char *name,
                           const char *argName0, std::uint64_t arg0,
                           const char *argName1, std::uint64_t arg1)
{
    TraceEvent event;
    event.name = name;
    event.category = category;
    event.phase = 'i';
    event.startNs = nowNs();
    event.argName0 = argName0;
    event.arg0 = arg0;
    event.argName1 = argName1;
    event.arg1 = arg1;
    threadRing().push(event);
}

void
TraceRecorder::emitCounter(const char *category, const char *name,
                           std::uint64_t ctx, std::uint64_t value)
{
    TraceEvent event;
    event.name = name;
    event.category = category;
    event.phase = 'C';
    event.startNs = nowNs();
    event.argName0 = "ctx";
    event.arg0 = ctx;
    event.argName1 = "cycles";
    event.arg1 = value;
    threadRing().push(event);
}

std::string
TraceRecorder::renderChromeTrace()
{
    struct Row
    {
        TraceEvent event;
        std::uint64_t tid;
    };

    RecorderState &s = state();
    std::vector<Row> rows;
    std::size_t ringCount = 0;
    {
        const std::lock_guard<std::mutex> lock(s.mutex);
        ringCount = s.rings.size();
        for (const auto &ring : s.rings) {
            const std::uint64_t cap = ring->events.size();
            const std::uint64_t count = ring->buffered();
            for (std::uint64_t i = ring->head - count; i < ring->head;
                 ++i)
                rows.push_back({ring->events[i % cap], ring->tid});
        }
    }
    std::stable_sort(rows.begin(), rows.end(),
                     [](const Row &a, const Row &b) {
                         if (a.event.startNs != b.event.startNs)
                             return a.event.startNs < b.event.startNs;
                         return a.tid < b.tid;
                     });

    std::string out = "{\"traceEvents\": [\n";
    bool first = true;
    const auto comma = [&]() {
        if (!first)
            out += ",\n";
        first = false;
    };

    // Process/thread naming metadata so Perfetto labels the tracks.
    comma();
    out += "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
           "\"args\": {\"name\": \"wall\"}}";
    comma();
    out += "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 2, "
           "\"args\": {\"name\": \"simulated\"}}";
    for (std::size_t tid = 0; tid < ringCount; ++tid) {
        comma();
        out += "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
               "\"tid\": " +
               std::to_string(tid) +
               ", \"args\": {\"name\": \"worker " +
               std::to_string(tid) + "\"}}";
    }

    for (const Row &row : rows) {
        const TraceEvent &event = row.event;
        comma();
        out += "{\"name\": \"";
        appendJsonEscaped(out, event.name);
        if (event.phase == 'C') {
            // Counter tracks: one track per simulated context.
            out += ".ctx" + std::to_string(event.arg0);
        }
        out += "\", \"cat\": \"";
        appendJsonEscaped(out, event.category);
        out += "\", \"ph\": \"";
        out += event.phase;
        out += "\", \"ts\": ";
        appendMicros(out, event.startNs);
        if (event.phase == 'X') {
            out += ", \"dur\": ";
            appendMicros(out, event.durNs);
        }
        if (event.phase == 'C') {
            out += ", \"pid\": 2, \"tid\": 0, \"args\": {\"";
            appendJsonEscaped(out, event.argName1);
            out += "\": " + std::to_string(event.arg1) + "}";
        } else {
            out += ", \"pid\": 1, \"tid\": " + std::to_string(row.tid);
            if (event.phase == 'i')
                out += ", \"s\": \"t\"";
            if (event.argName0 != nullptr) {
                out += ", \"args\": {\"";
                appendJsonEscaped(out, event.argName0);
                out += "\": " + std::to_string(event.arg0);
                if (event.argName1 != nullptr) {
                    out += ", \"";
                    appendJsonEscaped(out, event.argName1);
                    out += "\": " + std::to_string(event.arg1);
                }
                out += "}";
            }
        }
        out += "}";
    }
    out += "\n]}\n";
    return out;
}

void
TraceRecorder::writeChromeTrace(const std::string &path)
{
    metrics().traceEventsDropped.add(droppedEvents());
    const std::string json = renderChromeTrace();
    std::FILE *file = std::fopen(path.c_str(), "w");
    if (file == nullptr)
        fatal("cannot open trace output file '" + path + "'");
    std::fwrite(json.data(), 1, json.size(), file);
    std::fclose(file);
}

} // namespace hr
