/**
 * @file
 * The unified metrics layer: a thread-safe registry of named counters,
 * gauges and log-scale histograms, exported as JSON.
 *
 * Every layer of the decide() stack (cache, store backend, pre-screen,
 * engines, campaign driver, fuzzer, fence synthesis) reports through
 * one process-wide registry instead of hand-formatted --stats text and
 * scattered per-component stats structs.  Metric names are
 * hierarchical, dot-separated, lowercase_with_underscores per segment:
 *
 *   decide.cache.hit          counter   DecisionCache hits in decide()
 *   decide.engine.axiomatic   counter   fresh axiomatic engine runs
 *   decide.wall_us            histogram per-decision wall microseconds
 *   campaign.store.hit        counter   campaign decisions the store served
 *   bench.campaign.speedup    gauge     a bench's measured gate value
 *
 * Hot paths cache the returned Metric reference (registration takes a
 * lock; increments are relaxed atomics).  Registered metrics are never
 * deallocated, so cached references stay valid for the process
 * lifetime; reset() zeroes values without invalidating them.
 *
 * A MetricSnapshot is a point-in-time copy, subtractable (delta) so
 * frontends can report exactly the traffic of one run against the
 * accumulating global registry, and parseable back from its own JSON
 * (fromJson) so artifact files like campaign_metrics.json and
 * BENCH_*.json are a stable machine-readable schema, not just output.
 */

#ifndef GAM_OBS_REGISTRY_HH
#define GAM_OBS_REGISTRY_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace gam::obs
{

/** A monotonically increasing atomic counter. */
class Counter
{
  public:
    void
    inc(uint64_t delta = 1)
    {
        _value.fetch_add(delta, std::memory_order_relaxed);
    }

    uint64_t
    value() const
    {
        return _value.load(std::memory_order_relaxed);
    }

    void reset() { _value.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> _value{0};
};

/** A last-writer-wins scalar (doubles, so rates and seconds fit). */
class Gauge
{
  public:
    void
    set(double value)
    {
        _value.store(value, std::memory_order_relaxed);
    }

    double
    value() const
    {
        return _value.load(std::memory_order_relaxed);
    }

    void reset() { _value.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> _value{0.0};
};

/**
 * A histogram over non-negative integers with fixed log2-scale
 * buckets: bucket 0 holds the value 0, bucket i >= 1 holds
 * [2^(i-1), 2^i).  64 buckets cover the whole uint64_t range, so
 * sample() never clips and two histograms always have congruent
 * buckets (mergeable, delta-able).  Tracks count, sum and max besides
 * the buckets.
 */
class Histogram
{
  public:
    static constexpr unsigned BucketCount = 65;

    /** Bucket index of @p value: 0 for 0, else 1 + floor(log2(v)). */
    static unsigned bucketOf(uint64_t value);

    void sample(uint64_t value);

    uint64_t count() const;
    uint64_t sum() const;
    uint64_t max() const;
    uint64_t bucketCount(unsigned bucket) const;

    void reset();

  private:
    std::atomic<uint64_t> _buckets[BucketCount] = {};
    std::atomic<uint64_t> _count{0};
    std::atomic<uint64_t> _sum{0};
    std::atomic<uint64_t> _max{0};
};

/** A point-in-time copy of one registry (or a delta of two copies). */
struct MetricSnapshot
{
    struct Hist
    {
        uint64_t count = 0;
        uint64_t sum = 0;
        uint64_t max = 0;
        /** (bucket index, count) for every non-empty bucket, sorted. */
        std::vector<std::pair<unsigned, uint64_t>> buckets;
    };

    std::map<std::string, uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, Hist> histograms;

    uint64_t counter(const std::string &name) const;
    double gauge(const std::string &name) const;

    /**
     * This snapshot minus @p before: counters and histogram
     * counts/sums subtract (saturating at 0 -- a reset() in between
     * would otherwise wrap); gauges and histogram max keep this
     * snapshot's value (neither is a running total).  Names absent
     * from @p before pass through unchanged.
     */
    MetricSnapshot delta(const MetricSnapshot &before) const;

    /**
     * The stable machine-readable schema ("gam-metrics-v1"):
     *
     *   {
     *     "schema": "gam-metrics-v1",
     *     "counters": {"decide.cache.hit": 12, ...},
     *     "gauges": {"campaign.wall_seconds": 1.25, ...},
     *     "histograms": {
     *       "decide.wall_us": {"count": 3, "sum": 90, "max": 41,
     *                           "buckets": [[5, 1], [6, 2]]}, ...}
     *   }
     *
     * Keys are sorted; numbers are plain JSON numbers.  Parse it back
     * with fromJson().
     */
    std::string toJson() const;

    /**
     * Parse a toJson() document (the v1 schema only); nullopt on any
     * syntax or schema mismatch.  Exact round-trip:
     * fromJson(s.toJson()) == s.
     */
    static std::optional<MetricSnapshot> fromJson(const std::string &json);

    bool operator==(const MetricSnapshot &) const;
};

/**
 * A named collection of metrics.  Thread-safe: registration is
 * mutex-guarded, metric updates are atomic.  A name permanently
 * identifies one metric of one kind; asking for it again returns the
 * same object, asking for it as a different kind panics (that is a
 * bug, not an input error).
 */
class MetricRegistry
{
  public:
    MetricRegistry() = default;
    MetricRegistry(const MetricRegistry &) = delete;
    MetricRegistry &operator=(const MetricRegistry &) = delete;

    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);

    MetricSnapshot snapshot() const;

    /** Zero every metric (references stay valid). */
    void reset();

  private:
    enum class Kind { Counter, Gauge, Histogram };
    struct Entry
    {
        Kind kind;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };

    Entry &entry(const std::string &name, Kind kind);

    mutable std::mutex mu;
    std::map<std::string, Entry> entries;
};

/**
 * The process-wide registry every instrumented layer reports to.
 * Frontends snapshot it before and after a run and report the delta.
 */
MetricRegistry &metrics();

/**
 * Fold a name segment to metric-name form: lowercase, every character
 * outside [a-z0-9.] replaced by '_' ("Alpha*" -> "alpha_").  Used when
 * a name segment comes from data (model names, file stems).
 */
std::string metricSegment(const std::string &raw);

} // namespace gam::obs

#endif // GAM_OBS_REGISTRY_HH
