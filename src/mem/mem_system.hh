/**
 * @file
 * The full memory hierarchy of the paper's Table I: split 32KB L1I/L1D,
 * unified 256KB L2, 1MB L3, and DRAM at 200 cycles / 12.8 GB/s.
 */

#ifndef GAM_MEM_MEM_SYSTEM_HH
#define GAM_MEM_MEM_SYSTEM_HH

#include <memory>

#include "mem/cache.hh"

namespace gam::mem
{

/** Hierarchy-wide configuration (defaults mirror Table I). */
struct MemSystemParams
{
    CacheParams l1i{"l1i", 32 * 1024, 8, 64, 4, 4};
    CacheParams l1d{"l1d", 32 * 1024, 8, 64, 4, 8};
    CacheParams l2{"l2", 256 * 1024, 8, 64, 12, 20};
    CacheParams l3{"l3", 1024 * 1024, 16, 64, 35, 30};
    Cycle dramLatency = 200;
    double dramBytesPerCycle = 5.12; // 12.8 GB/s at 2.5 GHz
};

/** The assembled three-level hierarchy plus DRAM. */
class MemSystem
{
  public:
    explicit MemSystem(const MemSystemParams &params = {});

    /** Data-side load: returns the data-ready cycle. */
    Cycle load(isa::Addr addr, Cycle now);
    /** Data-side store (write-allocate): returns the write-done cycle. */
    Cycle store(isa::Addr addr, Cycle now);
    /** Instruction fetch of the line containing @p addr. */
    Cycle fetch(isa::Addr addr, Cycle now);

    /** Would a data-side access to @p addr hit in the L1D right now? */
    bool probeL1D(isa::Addr addr) const { return _l1d->probe(addr); }

    const Cache &l1i() const { return *_l1i; }
    const Cache &l1d() const { return *_l1d; }
    const Cache &l2() const { return *_l2; }
    const Cache &l3() const { return *_l3; }
    const MainMemory &dram() const { return *_dram; }

  private:
    std::unique_ptr<MainMemory> _dram;
    std::unique_ptr<Cache> _l3;
    std::unique_ptr<Cache> _l2;
    std::unique_ptr<Cache> _l1i;
    std::unique_ptr<Cache> _l1d;
};

} // namespace gam::mem

#endif // GAM_MEM_MEM_SYSTEM_HH
