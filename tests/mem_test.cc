/** Unit tests for the cache hierarchy substrate. */

#include <gtest/gtest.h>

#include "mem/cache.hh"
#include "mem/mem_system.hh"

namespace gam::mem
{
namespace
{

CacheParams
tinyCache(uint32_t size = 1024, uint32_t assoc = 2, uint32_t lat = 2,
          uint32_t mshrs = 2)
{
    CacheParams p;
    p.name = "tiny";
    p.sizeBytes = size;
    p.assoc = assoc;
    p.hitLatency = lat;
    p.mshrs = mshrs;
    return p;
}

TEST(MainMemoryTest, LatencyAndBandwidth)
{
    MainMemory dram(100, 6.4, 64); // 10 cycles per 64B transfer
    Cycle t1 = dram.access(0, false, 0, AccessKind::DemandLoad);
    EXPECT_EQ(t1, 100u);
    // Second access at the same time serialises on the bus.
    Cycle t2 = dram.access(4096, false, 0, AccessKind::DemandLoad);
    EXPECT_EQ(t2, 110u);
    EXPECT_EQ(dram.reads(), 2u);
}

TEST(MainMemoryTest, PostedWrites)
{
    MainMemory dram(100, 6.4, 64);
    Cycle t = dram.access(0, true, 5, AccessKind::Writeback);
    EXPECT_EQ(t, 5u); // the requester does not wait for writes
    EXPECT_EQ(dram.writes(), 1u);
}

TEST(CacheTest, MissThenHit)
{
    MainMemory dram(100, 64.0, 64);
    Cache c(tinyCache(), &dram);
    Cycle miss = c.access(0x100, false, 0, AccessKind::DemandLoad);
    EXPECT_GT(miss, 100u); // went to DRAM
    EXPECT_EQ(c.stats().misses, 1u);
    Cycle hit = c.access(0x108, false, miss, AccessKind::DemandLoad);
    EXPECT_EQ(hit, miss + 2); // same line, hit latency 2
    EXPECT_EQ(c.stats().hits, 1u);
}

TEST(CacheTest, DemandLoadAccounting)
{
    MainMemory dram(10, 64.0, 64);
    Cache c(tinyCache(), &dram);
    c.access(0, false, 0, AccessKind::DemandLoad);
    c.access(64, true, 0, AccessKind::DemandStore);
    EXPECT_EQ(c.stats().demandLoadAccesses, 1u);
    EXPECT_EQ(c.stats().demandLoadMisses, 1u);
    EXPECT_EQ(c.stats().accesses, 2u);
}

TEST(CacheTest, LruEviction)
{
    // 1 KB, 2-way, 64 B lines -> 8 sets; lines 0, 8, 16 map to set 0.
    MainMemory dram(10, 64.0, 64);
    Cache c(tinyCache(), &dram);
    c.access(0 * 64, false, 0, AccessKind::DemandLoad);
    c.access(8 * 64, false, 100, AccessKind::DemandLoad);
    c.access(0 * 64, false, 200, AccessKind::DemandLoad); // refresh 0
    c.access(16 * 64, false, 300, AccessKind::DemandLoad); // evicts 8
    EXPECT_TRUE(c.probe(0));
    EXPECT_FALSE(c.probe(8 * 64));
    EXPECT_TRUE(c.probe(16 * 64));
    EXPECT_EQ(c.stats().evictions, 1u);
}

TEST(CacheTest, DirtyEvictionWritesBack)
{
    MainMemory dram(10, 64.0, 64);
    Cache c(tinyCache(), &dram);
    c.access(0 * 64, true, 0, AccessKind::DemandStore);   // dirty
    c.access(8 * 64, false, 100, AccessKind::DemandLoad);
    c.access(16 * 64, false, 200, AccessKind::DemandLoad); // evicts 0
    EXPECT_EQ(c.stats().writebacks, 1u);
    EXPECT_EQ(dram.writes(), 1u);
}

TEST(CacheTest, MshrMergesSameLine)
{
    MainMemory dram(100, 64.0, 64);
    Cache c(tinyCache(), &dram);
    Cycle t1 = c.access(0x100, false, 0, AccessKind::DemandLoad);
    Cycle t2 = c.access(0x108, false, 1, AccessKind::DemandLoad);
    EXPECT_EQ(c.stats().mshrMerges, 0u); // second was a fill-hit
    EXPECT_LE(t2, t1 + 2);
}

TEST(CacheTest, MshrLimitDelaysExtraMisses)
{
    MainMemory dram(100, 6400.0, 64);
    Cache c(tinyCache(1024, 2, 2, 2), &dram); // 2 MSHRs
    Cycle a = c.access(0 * 64, false, 0, AccessKind::DemandLoad);
    Cycle b = c.access(1 * 64, false, 0, AccessKind::DemandLoad);
    // Third concurrent miss must wait for an MSHR.
    Cycle d = c.access(2 * 64, false, 0, AccessKind::DemandLoad);
    EXPECT_GE(d, std::min(a, b));
    EXPECT_GE(c.stats().mshrFullStalls, 1u);
}

TEST(CacheTest, ProbeHasNoSideEffects)
{
    MainMemory dram(10, 64.0, 64);
    Cache c(tinyCache(), &dram);
    EXPECT_FALSE(c.probe(0x100));
    EXPECT_EQ(c.stats().accesses, 0u);
}

TEST(MemSystemTest, HierarchyMissPath)
{
    MemSystem sys;
    Cycle t = sys.load(0x1000, 0);
    // L1 miss -> L2 miss -> L3 miss -> DRAM: beyond the DRAM latency.
    EXPECT_GT(t, 200u);
    EXPECT_EQ(sys.l1d().stats().misses, 1u);
    EXPECT_EQ(sys.l2().stats().misses, 1u);
    EXPECT_EQ(sys.l3().stats().misses, 1u);
    // Second access to the same line is an L1 hit.
    Cycle t2 = sys.load(0x1000, t);
    EXPECT_EQ(t2, t + sys.l1d().params().hitLatency);
}

TEST(MemSystemTest, InstAndDataSplit)
{
    MemSystem sys;
    sys.fetch(0x4000'0000, 0);
    EXPECT_EQ(sys.l1i().stats().accesses, 1u);
    EXPECT_EQ(sys.l1d().stats().accesses, 0u);
}

TEST(MemSystemTest, ProbeL1D)
{
    MemSystem sys;
    EXPECT_FALSE(sys.probeL1D(0x2000));
    Cycle t = sys.load(0x2000, 0);
    (void)t;
    EXPECT_TRUE(sys.probeL1D(0x2000));
}

TEST(MemSystemTest, Table1Defaults)
{
    MemSystemParams p;
    EXPECT_EQ(p.l1d.sizeBytes, 32u * 1024);
    EXPECT_EQ(p.l1d.assoc, 8u);
    EXPECT_EQ(p.l1d.mshrs, 8u);
    EXPECT_EQ(p.l2.sizeBytes, 256u * 1024);
    EXPECT_EQ(p.l2.hitLatency, 12u);
    EXPECT_EQ(p.l3.sizeBytes, 1024u * 1024);
    EXPECT_EQ(p.l3.assoc, 16u);
    EXPECT_EQ(p.l3.hitLatency, 35u);
    EXPECT_EQ(p.dramLatency, 200u);
}

} // namespace
} // namespace gam::mem
