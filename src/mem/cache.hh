/**
 * @file
 * A write-back, write-allocate set-associative cache with LRU
 * replacement and a finite MSHR file, plus the DRAM endpoint.
 *
 * Timing uses a latency-forwarding model: access() returns the cycle at
 * which the requested data is available, advancing internal state (line
 * fills, MSHR occupancy, DRAM bus serialisation).  This captures the
 * properties the paper's evaluation depends on -- hit/miss latency,
 * limited miss-level parallelism, line-granularity locality and memory
 * bandwidth -- without a full event queue.
 */

#ifndef GAM_MEM_CACHE_HH
#define GAM_MEM_CACHE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "isa/mem_image.hh"

namespace gam::mem
{

using Cycle = uint64_t;

/** Kind of access, for statistics. */
enum class AccessKind : uint8_t {
    DemandLoad,
    DemandStore,
    InstFetch,
    Writeback,
};

/** One cache level's geometry and timing. */
struct CacheParams
{
    std::string name = "cache";
    uint32_t sizeBytes = 32 * 1024;
    uint32_t assoc = 8;
    uint32_t lineBytes = 64;
    uint32_t hitLatency = 4;
    uint32_t mshrs = 8;
};

/** Per-level counters. */
struct CacheStats
{
    uint64_t accesses = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t demandLoadAccesses = 0;
    uint64_t demandLoadMisses = 0;
    uint64_t writebacks = 0;
    uint64_t evictions = 0;
    uint64_t mshrMerges = 0;
    uint64_t mshrFullStalls = 0;
};

/** Anything that can service line requests (a cache or DRAM). */
class MemLevel
{
  public:
    virtual ~MemLevel() = default;

    /**
     * Request the line containing @p addr.
     * @param is_write  store/writeback (marks lines dirty)
     * @param now       request cycle
     * @param kind      accounting category
     * @return cycle at which the data is available
     */
    virtual Cycle access(isa::Addr addr, bool is_write, Cycle now,
                         AccessKind kind) = 0;

    /** Is the line currently present (no state change)? */
    virtual bool probe(isa::Addr addr) const = 0;
};

/** One set-associative write-back cache level. */
class Cache : public MemLevel
{
  public:
    /** @param parent the next level (not owned). */
    Cache(const CacheParams &params, MemLevel *parent);

    Cycle access(isa::Addr addr, bool is_write, Cycle now,
                 AccessKind kind) override;
    bool probe(isa::Addr addr) const override;

    const CacheStats &stats() const { return _stats; }
    const CacheParams &params() const { return _params; }

  private:
    struct Line
    {
        bool valid = false;
        bool dirty = false;
        uint64_t tag = 0;
        uint64_t lastUse = 0;  ///< LRU timestamp
        Cycle fillReady = 0;   ///< when an in-flight fill completes
    };

    uint64_t lineAddr(isa::Addr addr) const
    {
        return uint64_t(addr) / _params.lineBytes;
    }
    uint64_t setIndex(uint64_t line) const { return line % numSets; }
    uint64_t tagOf(uint64_t line) const { return line / numSets; }

    /** Reclaim MSHR entries that completed by @p now. */
    void retireMshrs(Cycle now);

    CacheParams _params;
    MemLevel *parent;
    uint64_t numSets;
    std::vector<Line> lines; ///< numSets x assoc
    uint64_t useCounter = 0;
    /** Outstanding line fills: line address -> completion cycle. */
    std::map<uint64_t, Cycle> mshr;
    CacheStats _stats;
};

/** DRAM endpoint: fixed latency plus a serialised data bus. */
class MainMemory : public MemLevel
{
  public:
    /**
     * @param latency          access latency in cycles
     * @param bytes_per_cycle  bus bandwidth (12.8 GB/s at 2.5 GHz =
     *                         5.12 B/cycle)
     * @param line_bytes       transfer granularity
     */
    MainMemory(Cycle latency = 200, double bytes_per_cycle = 5.12,
               uint32_t line_bytes = 64);

    Cycle access(isa::Addr addr, bool is_write, Cycle now,
                 AccessKind kind) override;
    bool probe(isa::Addr /* addr */) const override { return true; }

    uint64_t reads() const { return _reads; }
    uint64_t writes() const { return _writes; }

  private:
    Cycle latency;
    Cycle transferCycles;
    Cycle busFree = 0;
    uint64_t _reads = 0;
    uint64_t _writes = 0;
};

} // namespace gam::mem

#endif // GAM_MEM_CACHE_HH
