#include "obs/trace.hh"

#include <cstdio>
#include <sstream>

#include "base/logging.hh"

namespace gam::obs
{

/**
 * A per-thread event ring.  Only the owning thread writes (slot write
 * then a relaxed head bump); the exporter reads after that thread has
 * been joined, so no synchronization beyond the join is needed.
 */
class TraceBuffer
{
  public:
    static constexpr uint64_t Capacity = 1 << 14;

    void
    push(const TraceEvent &e)
    {
        const uint64_t h = head.load(std::memory_order_relaxed);
        slots[h % Capacity] = e;
        head.store(h + 1, std::memory_order_relaxed);
    }

    uint64_t
    written() const
    {
        return head.load(std::memory_order_relaxed);
    }

    uint64_t
    retained() const
    {
        const uint64_t h = written();
        return h < Capacity ? h : Capacity;
    }

    uint64_t
    dropped() const
    {
        const uint64_t h = written();
        return h < Capacity ? 0 : h - Capacity;
    }

    const TraceEvent &
    at(uint64_t i) const
    {
        return slots[i % Capacity];
    }

    void reset() { head.store(0, std::memory_order_relaxed); }

    uint32_t tid = 0;

  private:
    TraceEvent slots[Capacity];
    std::atomic<uint64_t> head{0};
};

TraceCollector &
TraceCollector::instance()
{
    static TraceCollector collector;
    return collector;
}

TraceBuffer &
TraceCollector::localBuffer()
{
    thread_local TraceBuffer *cached = nullptr;
    if (!cached) {
        std::lock_guard<std::mutex> lock(mu);
        auto buf = std::make_unique<TraceBuffer>();
        buf->tid = uint32_t(buffers.size());
        cached = buf.get();
        buffers.push_back(std::move(buf));
    }
    return *cached;
}

void
TraceCollector::record(const char *name, uint64_t startNs, uint64_t durNs,
                       uint64_t id)
{
    localBuffer().push(TraceEvent{name, startNs, durNs, id});
}

uint64_t
TraceCollector::droppedEvents() const
{
    std::lock_guard<std::mutex> lock(mu);
    uint64_t n = 0;
    for (const auto &b : buffers)
        n += b->dropped();
    return n;
}

uint64_t
TraceCollector::retainedEvents() const
{
    std::lock_guard<std::mutex> lock(mu);
    uint64_t n = 0;
    for (const auto &b : buffers)
        n += b->retained();
    return n;
}

void
TraceCollector::clear()
{
    std::lock_guard<std::mutex> lock(mu);
    for (const auto &b : buffers)
        b->reset();
}

namespace
{

std::string
traceEscape(const char *s)
{
    std::string out;
    for (; *s; ++s) {
        if (*s == '"' || *s == '\\')
            out.push_back('\\');
        out.push_back(*s);
    }
    return out;
}

} // namespace

std::string
TraceCollector::exportChromeJson() const
{
    std::lock_guard<std::mutex> lock(mu);
    std::ostringstream os;
    os << "{\"traceEvents\": [";
    bool first = true;
    char buf[64];
    for (const auto &b : buffers) {
        const uint64_t h = b->written();
        const uint64_t begin = h < TraceBuffer::Capacity
            ? 0 : h - TraceBuffer::Capacity;
        for (uint64_t i = begin; i < h; ++i) {
            const TraceEvent &e = b->at(i);
            os << (first ? "\n" : ",\n");
            first = false;
            os << "{\"name\": \"" << traceEscape(e.name)
               << "\", \"cat\": \"gam\", \"ph\": \"X\", \"pid\": 1"
               << ", \"tid\": " << b->tid;
            std::snprintf(buf, sizeof(buf), "%.3f",
                          double(e.startNs) / 1e3);
            os << ", \"ts\": " << buf;
            std::snprintf(buf, sizeof(buf), "%.3f",
                          double(e.durNs) / 1e3);
            os << ", \"dur\": " << buf
               << ", \"args\": {\"id\": " << e.id << "}}";
        }
    }
    os << (first ? "" : "\n") << "], \"displayTimeUnit\": \"ms\"}\n";
    return os.str();
}

bool
TraceCollector::writeChromeJson(const std::string &path) const
{
    const std::string json = exportChromeJson();
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const bool wrote = std::fwrite(json.data(), 1, json.size(), f)
        == json.size();
    // Close on every path: a short write must not leak the descriptor.
    const bool closed = std::fclose(f) == 0;
    return wrote && closed;
}

#ifndef GAM_NO_TRACING

void
TraceSpan::open(const char *name)
{
    _name = name;
    _id = TraceCollector::instance().nextSpanId();
    _startNs = monotonicNanos();
}

void
TraceSpan::close()
{
    TraceCollector::instance().record(
        _name, _startNs, monotonicNanos() - _startNs, _id);
}

#endif // GAM_NO_TRACING

} // namespace gam::obs
