#include "obs/registry.hh"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "base/logging.hh"

namespace gam::obs
{

// --------------------------------------------------------- histogram

unsigned
Histogram::bucketOf(uint64_t value)
{
    return value == 0 ? 0u : unsigned(64 - std::countl_zero(value));
}

void
Histogram::sample(uint64_t value)
{
    _buckets[bucketOf(value)].fetch_add(1, std::memory_order_relaxed);
    _count.fetch_add(1, std::memory_order_relaxed);
    _sum.fetch_add(value, std::memory_order_relaxed);
    uint64_t seen = _max.load(std::memory_order_relaxed);
    while (value > seen
           && !_max.compare_exchange_weak(seen, value,
                                          std::memory_order_relaxed)) {
    }
}

uint64_t
Histogram::count() const
{
    return _count.load(std::memory_order_relaxed);
}

uint64_t
Histogram::sum() const
{
    return _sum.load(std::memory_order_relaxed);
}

uint64_t
Histogram::max() const
{
    return _max.load(std::memory_order_relaxed);
}

uint64_t
Histogram::bucketCount(unsigned bucket) const
{
    GAM_ASSERT(bucket < BucketCount, "histogram bucket %u out of range",
               bucket);
    return _buckets[bucket].load(std::memory_order_relaxed);
}

void
Histogram::reset()
{
    for (auto &b : _buckets)
        b.store(0, std::memory_order_relaxed);
    _count.store(0, std::memory_order_relaxed);
    _sum.store(0, std::memory_order_relaxed);
    _max.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------- registry

MetricRegistry::Entry &
MetricRegistry::entry(const std::string &name, Kind kind)
{
    GAM_ASSERT(!name.empty(), "metric with an empty name");
    std::lock_guard<std::mutex> lock(mu);
    auto it = entries.find(name);
    if (it == entries.end()) {
        Entry e;
        e.kind = kind;
        switch (kind) {
          case Kind::Counter:
            e.counter = std::make_unique<Counter>();
            break;
          case Kind::Gauge:
            e.gauge = std::make_unique<Gauge>();
            break;
          case Kind::Histogram:
            e.histogram = std::make_unique<Histogram>();
            break;
        }
        it = entries.emplace(name, std::move(e)).first;
    }
    GAM_ASSERT(it->second.kind == kind,
               "metric '%s' registered twice with different kinds",
               name.c_str());
    return it->second;
}

Counter &
MetricRegistry::counter(const std::string &name)
{
    return *entry(name, Kind::Counter).counter;
}

Gauge &
MetricRegistry::gauge(const std::string &name)
{
    return *entry(name, Kind::Gauge).gauge;
}

Histogram &
MetricRegistry::histogram(const std::string &name)
{
    return *entry(name, Kind::Histogram).histogram;
}

MetricSnapshot
MetricRegistry::snapshot() const
{
    MetricSnapshot s;
    std::lock_guard<std::mutex> lock(mu);
    for (const auto &[name, e] : entries) {
        switch (e.kind) {
          case Kind::Counter:
            s.counters[name] = e.counter->value();
            break;
          case Kind::Gauge:
            s.gauges[name] = e.gauge->value();
            break;
          case Kind::Histogram: {
            MetricSnapshot::Hist h;
            h.count = e.histogram->count();
            h.sum = e.histogram->sum();
            h.max = e.histogram->max();
            for (unsigned b = 0; b < Histogram::BucketCount; ++b) {
                const uint64_t n = e.histogram->bucketCount(b);
                if (n)
                    h.buckets.emplace_back(b, n);
            }
            s.histograms[name] = std::move(h);
            break;
          }
        }
    }
    return s;
}

void
MetricRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mu);
    for (auto &[name, e] : entries) {
        (void)name;
        switch (e.kind) {
          case Kind::Counter: e.counter->reset(); break;
          case Kind::Gauge: e.gauge->reset(); break;
          case Kind::Histogram: e.histogram->reset(); break;
        }
    }
}

MetricRegistry &
metrics()
{
    static MetricRegistry registry;
    return registry;
}

std::string
metricSegment(const std::string &raw)
{
    std::string out;
    out.reserve(raw.size());
    for (char c : raw) {
        const auto u = static_cast<unsigned char>(c);
        if (std::isalnum(u) || c == '.')
            out.push_back(char(std::tolower(u)));
        else
            out.push_back('_');
    }
    return out;
}

// ---------------------------------------------------------- snapshot

uint64_t
MetricSnapshot::counter(const std::string &name) const
{
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
}

double
MetricSnapshot::gauge(const std::string &name) const
{
    auto it = gauges.find(name);
    return it == gauges.end() ? 0.0 : it->second;
}

MetricSnapshot
MetricSnapshot::delta(const MetricSnapshot &before) const
{
    auto sub = [](uint64_t after, uint64_t prior) {
        return after > prior ? after - prior : 0;
    };
    MetricSnapshot d;
    for (const auto &[name, v] : counters) {
        auto it = before.counters.find(name);
        d.counters[name] =
            sub(v, it == before.counters.end() ? 0 : it->second);
    }
    d.gauges = gauges;
    for (const auto &[name, h] : histograms) {
        Hist out;
        auto it = before.histograms.find(name);
        const Hist *prior =
            it == before.histograms.end() ? nullptr : &it->second;
        out.count = sub(h.count, prior ? prior->count : 0);
        out.sum = sub(h.sum, prior ? prior->sum : 0);
        out.max = h.max; // a max is not a running total; keep "after"
        for (const auto &[bucket, n] : h.buckets) {
            uint64_t prev = 0;
            if (prior) {
                for (const auto &[pb, pn] : prior->buckets)
                    if (pb == bucket)
                        prev = pn;
            }
            if (const uint64_t dn = sub(n, prev))
                out.buckets.emplace_back(bucket, dn);
        }
        d.histograms[name] = std::move(out);
    }
    return d;
}

bool
MetricSnapshot::operator==(const MetricSnapshot &other) const
{
    auto histEq = [](const Hist &a, const Hist &b) {
        return a.count == b.count && a.sum == b.sum && a.max == b.max
            && a.buckets == b.buckets;
    };
    if (counters != other.counters || gauges != other.gauges
        || histograms.size() != other.histograms.size())
        return false;
    auto it = other.histograms.begin();
    for (const auto &[name, h] : histograms) {
        if (it->first != name || !histEq(h, it->second))
            return false;
        ++it;
    }
    return true;
}

namespace
{

/** Shortest round-tripping rendering of a double (JSON-safe). */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0"; // JSON has no inf/nan; clamp rather than corrupt
    if (v == std::floor(v) && std::abs(v) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.1f", v);
        return buf;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    double parsed = 0.0;
    std::sscanf(buf, "%lf", &parsed);
    if (parsed == v) {
        // Try shorter forms first for readability.
        for (int prec = 6; prec < 17; ++prec) {
            char shorter[64];
            std::snprintf(shorter, sizeof(shorter), "%.*g", prec, v);
            std::sscanf(shorter, "%lf", &parsed);
            if (parsed == v)
                return shorter;
        }
    }
    return buf;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out.push_back(c);
        }
    }
    return out;
}

} // namespace

std::string
MetricSnapshot::toJson() const
{
    std::ostringstream os;
    os << "{\n  \"schema\": \"gam-metrics-v1\",\n  \"counters\": {";
    bool first = true;
    for (const auto &[name, v] : counters) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
           << "\": " << v;
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
    first = true;
    for (const auto &[name, v] : gauges) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
           << "\": " << jsonNumber(v);
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
    first = true;
    for (const auto &[name, h] : histograms) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
           << "\": {\"count\": " << h.count << ", \"sum\": " << h.sum
           << ", \"max\": " << h.max << ", \"buckets\": [";
        bool fb = true;
        for (const auto &[bucket, n] : h.buckets) {
            os << (fb ? "" : ", ") << "[" << bucket << ", " << n << "]";
            fb = false;
        }
        os << "]}";
        first = false;
    }
    os << (first ? "" : "\n  ") << "}\n}\n";
    return os.str();
}

// ------------------------------------------------------- JSON parser
//
// A minimal recursive-descent parser for exactly the v1 schema (flat
// string-keyed objects of numbers, plus the histogram sub-objects).
// Not a general JSON library: unknown top-level keys and structural
// surprises make fromJson() return nullopt.

namespace
{

struct JsonCursor
{
    const char *p;
    const char *end;

    void
    skipWs()
    {
        while (p < end
               && (*p == ' ' || *p == '\n' || *p == '\t' || *p == '\r'))
            ++p;
    }

    bool
    eat(char c)
    {
        skipWs();
        if (p < end && *p == c) {
            ++p;
            return true;
        }
        return false;
    }

    bool
    peek(char c)
    {
        skipWs();
        return p < end && *p == c;
    }

    std::optional<std::string>
    string()
    {
        if (!eat('"'))
            return std::nullopt;
        std::string out;
        while (p < end && *p != '"') {
            if (*p == '\\') {
                ++p;
                if (p >= end)
                    return std::nullopt;
                if (*p == 'u') {
                    if (end - p < 5)
                        return std::nullopt;
                    unsigned code = 0;
                    std::sscanf(p + 1, "%4x", &code);
                    out.push_back(char(code));
                    p += 5;
                    continue;
                }
            }
            out.push_back(*p++);
        }
        if (!eat('"'))
            return std::nullopt;
        return out;
    }

    std::optional<double>
    number()
    {
        skipWs();
        char *parse_end = nullptr;
        const double v = std::strtod(p, &parse_end);
        if (parse_end == p || parse_end > end)
            return std::nullopt;
        p = parse_end;
        return v;
    }
};

/** Parse {"name": number, ...} into @p fn(name, value). */
template <typename Fn>
bool
parseNumberObject(JsonCursor &c, Fn fn)
{
    if (!c.eat('{'))
        return false;
    if (c.eat('}'))
        return true;
    do {
        auto key = c.string();
        if (!key || !c.eat(':'))
            return false;
        auto v = c.number();
        if (!v)
            return false;
        fn(*key, *v);
    } while (c.eat(','));
    return c.eat('}');
}

bool
parseHistObject(JsonCursor &c, MetricSnapshot::Hist &h)
{
    if (!c.eat('{'))
        return false;
    if (c.eat('}'))
        return true;
    do {
        auto key = c.string();
        if (!key || !c.eat(':'))
            return false;
        if (*key == "buckets") {
            if (!c.eat('['))
                return false;
            if (!c.eat(']')) {
                do {
                    if (!c.eat('['))
                        return false;
                    auto bucket = c.number();
                    if (!bucket || !c.eat(','))
                        return false;
                    auto n = c.number();
                    if (!n || !c.eat(']'))
                        return false;
                    h.buckets.emplace_back(unsigned(*bucket),
                                           uint64_t(*n));
                } while (c.eat(','));
                if (!c.eat(']'))
                    return false;
            }
        } else {
            auto v = c.number();
            if (!v)
                return false;
            if (*key == "count")
                h.count = uint64_t(*v);
            else if (*key == "sum")
                h.sum = uint64_t(*v);
            else if (*key == "max")
                h.max = uint64_t(*v);
            else
                return false;
        }
    } while (c.eat(','));
    return c.eat('}');
}

} // namespace

std::optional<MetricSnapshot>
MetricSnapshot::fromJson(const std::string &json)
{
    JsonCursor c{json.data(), json.data() + json.size()};
    MetricSnapshot s;
    bool sawSchema = false;
    if (!c.eat('{'))
        return std::nullopt;
    if (c.eat('}'))
        return std::nullopt; // schema key is mandatory
    do {
        auto key = c.string();
        if (!key || !c.eat(':'))
            return std::nullopt;
        if (*key == "schema") {
            auto v = c.string();
            if (!v || *v != "gam-metrics-v1")
                return std::nullopt;
            sawSchema = true;
        } else if (*key == "counters") {
            if (!parseNumberObject(c, [&](const std::string &n,
                                          double v) {
                    s.counters[n] = uint64_t(v);
                }))
                return std::nullopt;
        } else if (*key == "gauges") {
            if (!parseNumberObject(
                    c,
                    [&](const std::string &n, double v) {
                        s.gauges[n] = v;
                    }))
                return std::nullopt;
        } else if (*key == "histograms") {
            if (!c.eat('{'))
                return std::nullopt;
            if (!c.eat('}')) {
                do {
                    auto name = c.string();
                    if (!name || !c.eat(':'))
                        return std::nullopt;
                    Hist h;
                    if (!parseHistObject(c, h))
                        return std::nullopt;
                    s.histograms[*name] = std::move(h);
                } while (c.eat(','));
                if (!c.eat('}'))
                    return std::nullopt;
            }
        } else {
            return std::nullopt;
        }
    } while (c.eat(','));
    if (!c.eat('}') || !sawSchema)
        return std::nullopt;
    c.skipWs();
    if (c.p != c.end)
        return std::nullopt;
    return s;
}

} // namespace gam::obs
