/**
 * Unit tests for base utilities: RNG, hashing, thread pool, stats,
 * tables, logging.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <set>
#include <vector>

#include "base/hashing.hh"
#include "base/logging.hh"
#include "base/rng.hh"
#include "base/stats.hh"
#include "base/table.hh"
#include "base/thread_pool.hh"

namespace gam
{
namespace
{

TEST(Rng, DeterministicFromSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(Rng, RangeBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.range(13), 13u);
}

TEST(Rng, RangeCoversAllValues)
{
    Rng rng(9);
    std::set<uint64_t> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(rng.range(5));
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(11);
    for (int i = 0; i < 200; ++i) {
        int64_t v = rng.rangeInclusive(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
    }
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(13);
    for (int i = 0; i < 200; ++i) {
        double d = rng.uniform();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(17);
    for (int i = 0; i < 50; ++i) {
        EXPECT_TRUE(rng.chance(10, 10));
        EXPECT_FALSE(rng.chance(0, 10));
    }
}

TEST(Rng, ReseedRestartsSequence)
{
    Rng rng(5);
    uint64_t first = rng.next();
    rng.next();
    rng.reseed(5);
    EXPECT_EQ(rng.next(), first);
}

TEST(Rng, KnownSeedsPinnedOutputs)
{
    // Regression pin: the first outputs of known seeds.  The reseed()
    // collision guard must not perturb the stream for ordinary seeds,
    // so these values are identical to the original seeding scheme.
    struct Pin { uint64_t seed; uint64_t out[3]; };
    const Pin pins[] = {
        {0, {11091344671253066420ull, 13793997310169335082ull,
             1900383378846508768ull}},
        {1, {12966619160104079557ull, 9600361134598540522ull,
             10590380919521690900ull}},
        {42, {1546998764402558742ull, 6990951692964543102ull,
              12544586762248559009ull}},
        {0x9e3779b97f4a7c15ull,
         {4768932952251265552ull, 16168679545894742312ull,
          6487188721686299062ull}},
    };
    for (const auto &pin : pins) {
        Rng rng(pin.seed);
        for (uint64_t expected : pin.out)
            EXPECT_EQ(rng.next(), expected) << "seed " << pin.seed;
    }
}

TEST(Rng, EverySeedYieldsLiveState)
{
    // If reseed() ever produced the all-zero xoshiro state (its one
    // fixed point) next() would return 0 forever.  Sweep a batch of
    // seeds, including adversarial-looking ones, and require live,
    // non-constant output from each.
    std::vector<uint64_t> seeds;
    for (uint64_t s = 0; s < 256; ++s)
        seeds.push_back(s);
    for (uint64_t s : {~0ull, 0x8000000000000000ull,
                       0x5555555555555555ull, 0xaaaaaaaaaaaaaaaaull})
        seeds.push_back(s);
    for (uint64_t seed : seeds) {
        Rng rng(seed);
        std::set<uint64_t> outputs;
        for (int i = 0; i < 16; ++i)
            outputs.insert(rng.next());
        EXPECT_GT(outputs.size(), 14u) << "seed " << seed;
    }
}

TEST(Hashing, Mix64Avalanches)
{
    // Flipping one input bit must change many output bits.
    const uint64_t base = mix64(0x1234567890abcdefull);
    for (int bit = 0; bit < 64; ++bit) {
        uint64_t flipped = mix64(0x1234567890abcdefull ^ (1ull << bit));
        int diff = __builtin_popcountll(base ^ flipped);
        EXPECT_GT(diff, 10) << "bit " << bit;
    }
}

TEST(Hashing, CombineIsOrderSensitive)
{
    StateHasher a, b;
    a.add(1);
    a.add(2);
    b.add(2);
    b.add(1);
    EXPECT_NE(a.digest(), b.digest());
}

TEST(Hashing, SeparatorDisambiguatesSections)
{
    // {1,2 | }  vs  {1 | 2}: same words, different section split.
    StateHasher a, b;
    a.add(1);
    a.add(2);
    a.separator();
    b.add(1);
    b.separator();
    b.add(2);
    EXPECT_NE(a.digest(), b.digest());
}

TEST(Hashing, StringHashMatchesBytes)
{
    EXPECT_EQ(hashString("gam"), hashBytes("gam", 3));
    EXPECT_NE(hashString("gam"), hashString("gam "));
    EXPECT_NE(hashString(""), hashString(std::string_view("\0", 1)));
}

TEST(Hashing, UnorderedPairsIgnoresIterationOrder)
{
    std::vector<std::pair<uint64_t, int64_t>> fwd =
        {{1, 10}, {2, 20}, {3, 30}};
    std::vector<std::pair<uint64_t, int64_t>> rev(fwd.rbegin(),
                                                  fwd.rend());
    EXPECT_EQ(hashUnorderedPairs(fwd), hashUnorderedPairs(rev));
    fwd[0].second = 11;
    EXPECT_NE(hashUnorderedPairs(fwd), hashUnorderedPairs(rev));
}

TEST(ThreadPool, RunsEveryTask)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ParallelForCoversAllIndices)
{
    ThreadPool pool(4);
    std::vector<int> slots(1000, 0);
    pool.parallelFor(slots.size(), [&](size_t i) { slots[i] = int(i); });
    // Every index written exactly to its own slot: deterministic merge.
    for (size_t i = 0; i < slots.size(); ++i)
        ASSERT_EQ(slots[i], int(i));

    // Every index is visited exactly once, whether n is below, at or
    // far above the worker count.
    for (unsigned workers : {1u, 4u}) {
        ThreadPool sized(workers);
        for (size_t n : {size_t(0), size_t(1), size_t(7), size_t(100000)}) {
            std::vector<std::atomic<int>> visits(n);
            sized.parallelFor(n, [&](size_t i) { ++visits[i]; });
            for (size_t i = 0; i < n; ++i)
                ASSERT_EQ(visits[i].load(), 1)
                    << "index " << i << " of " << n << " on " << workers
                    << " workers";
        }
    }
}

TEST(ThreadPool, ReusableAfterWait)
{
    ThreadPool pool(2);
    std::atomic<long> sum{0};
    pool.parallelFor(10, [&](size_t i) { sum += long(i); });
    EXPECT_EQ(sum.load(), 45);
    pool.parallelFor(10, [&](size_t i) { sum += long(i); });
    EXPECT_EQ(sum.load(), 90);
}

TEST(ThreadPool, WaitWithNoTasksReturns)
{
    ThreadPool pool(1);
    pool.wait();
    EXPECT_EQ(pool.threadCount(), 1u);
}

TEST(SummaryStat, AvgMax)
{
    Summary s = Summary::of({1.0, 5.0, 3.0});
    EXPECT_DOUBLE_EQ(s.average, 3.0);
    EXPECT_DOUBLE_EQ(s.maximum, 5.0);
    Summary empty = Summary::of({});
    EXPECT_DOUBLE_EQ(empty.average, 0.0);
}

TEST(TableFormat, RendersHeaderAndRows)
{
    Table t;
    t.header({"name", "value"});
    t.row({"x", "1"});
    t.separator();
    t.row({"longer-name", "22"});
    std::string s = t.render();
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("longer-name"), std::string::npos);
    EXPECT_NE(s.find("22"), std::string::npos);
}

TEST(TableFormat, NumPrecision)
{
    EXPECT_EQ(Table::num(1.23456, 2), "1.23");
    EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(Logging, FormatString)
{
    EXPECT_EQ(formatString("x=%d s=%s", 3, "hi"), "x=3 s=hi");
    EXPECT_EQ(formatString("%.2f", 1.5), "1.50");
}

} // namespace
} // namespace gam
