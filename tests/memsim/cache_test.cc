#include <gtest/gtest.h>

#include "memsim/cache.hh"

namespace wsearch {
namespace {

CacheConfig
smallCache(uint64_t size = 4 * KiB, uint32_t ways = 4)
{
    CacheConfig c;
    c.sizeBytes = size;
    c.blockBytes = 64;
    c.ways = ways;
    return c;
}

TEST(SetAssocCache, Geometry)
{
    SetAssocCache c(smallCache(4 * KiB, 4));
    EXPECT_EQ(c.numSets(), 16u);
    EXPECT_EQ(c.ways(), 4u);
    EXPECT_EQ(c.blockBytes(), 64u);
    EXPECT_EQ(c.effectiveBytes(), 4 * KiB);
}

TEST(SetAssocCache, NonPowerOfTwoSets)
{
    // 45 MiB 20-way Haswell L3: 36864 sets (not a power of two).
    CacheConfig c;
    c.sizeBytes = 45 * MiB;
    c.blockBytes = 64;
    c.ways = 20;
    SetAssocCache l3(c);
    EXPECT_EQ(l3.numSets(), 36864u);
    EXPECT_EQ(l3.effectiveBytes(), 45 * MiB);
}

TEST(SetAssocCache, MissThenHit)
{
    SetAssocCache c(smallCache());
    EXPECT_FALSE(c.access(0x1000, false));
    EXPECT_TRUE(c.access(0x1000, false));
    EXPECT_TRUE(c.access(0x103F, false)); // same block
    EXPECT_FALSE(c.access(0x1040, false)); // next block
}

TEST(SetAssocCache, LruEvictsOldest)
{
    SetAssocCache c(smallCache(4 * KiB, 4)); // 16 sets
    // Fill one set (set 0): blocks whose index bits are 0.
    const uint64_t stride = 16 * 64; // same set, different tags
    for (int i = 0; i < 4; ++i)
        EXPECT_FALSE(c.access(i * stride, false));
    // Touch block 0 to make block 1 the LRU.
    EXPECT_TRUE(c.access(0, false));
    // Insert a 5th block; block at 1*stride must be evicted.
    uint64_t evicted = kNoBlock;
    EXPECT_FALSE(c.access(4 * stride, false, &evicted));
    EXPECT_EQ(evicted, 1 * stride);
    EXPECT_TRUE(c.access(0, false));
    EXPECT_FALSE(c.access(1 * stride, false)); // was evicted
}

TEST(SetAssocCache, EvictionReportsDirty)
{
    SetAssocCache c(smallCache(256, 1)); // 4 sets, direct-mapped
    const uint64_t stride = 4 * 64;
    uint64_t evicted = kNoBlock;
    bool dirty = false;
    c.access(0, true); // store: dirty
    c.access(stride, false, &evicted, &dirty);
    EXPECT_EQ(evicted, 0u);
    EXPECT_TRUE(dirty);
    c.access(2 * stride, false, &evicted, &dirty);
    EXPECT_EQ(evicted, stride);
    EXPECT_FALSE(dirty);
}

TEST(SetAssocCache, TouchDoesNotAllocate)
{
    SetAssocCache c(smallCache());
    EXPECT_FALSE(c.touch(0x2000));
    EXPECT_FALSE(c.probe(0x2000));
    c.access(0x2000, false);
    EXPECT_TRUE(c.touch(0x2000));
}

TEST(SetAssocCache, TouchRefreshesLru)
{
    SetAssocCache c(smallCache(256, 4)); // 1 set of 4 ways
    for (int i = 0; i < 4; ++i)
        c.access(i * 64, false);
    c.touch(0); // refresh block 0
    uint64_t evicted = kNoBlock;
    c.access(4 * 64, false, &evicted);
    EXPECT_EQ(evicted, 64u); // block 1, not block 0
}

TEST(SetAssocCache, InsertIsIdempotent)
{
    SetAssocCache c(smallCache());
    c.insert(0x3000, false, false);
    EXPECT_TRUE(c.probe(0x3000));
    const uint64_t pop = c.population();
    c.insert(0x3000, false, false);
    EXPECT_EQ(c.population(), pop);
}

TEST(SetAssocCache, Invalidate)
{
    SetAssocCache c(smallCache());
    c.access(0x4000, false);
    EXPECT_TRUE(c.invalidate(0x4000));
    EXPECT_FALSE(c.probe(0x4000));
    EXPECT_FALSE(c.invalidate(0x4000));
}

TEST(SetAssocCache, PartitionWaysShrinkCapacity)
{
    CacheConfig cfg = smallCache(4 * KiB, 4);
    cfg.partitionWays = 2;
    SetAssocCache c(cfg);
    EXPECT_EQ(c.effectiveWays(), 2u);
    EXPECT_EQ(c.effectiveBytes(), 2 * KiB);
    // Only 2 blocks fit per set now.
    const uint64_t stride = 16 * 64;
    c.access(0, false);
    c.access(stride, false);
    uint64_t evicted = kNoBlock;
    c.access(2 * stride, false, &evicted);
    EXPECT_NE(evicted, kNoBlock);
}

TEST(SetAssocCache, DirectMapped)
{
    SetAssocCache c(smallCache(4 * KiB, 1)); // 64 sets
    const uint64_t conflict_stride = 64 * 64;
    EXPECT_FALSE(c.access(0, false));
    EXPECT_FALSE(c.access(conflict_stride, false));
    EXPECT_FALSE(c.access(0, false)); // conflict-evicted
}

TEST(SetAssocCache, RandomReplacementStaysInCapacity)
{
    CacheConfig cfg = smallCache(4 * KiB, 4);
    cfg.repl = ReplPolicy::Random;
    SetAssocCache c(cfg);
    for (uint64_t a = 0; a < 1024 * 64; a += 64)
        c.access(a, false);
    EXPECT_LE(c.population(), 64u);
}

TEST(SetAssocCache, PrefetchedFlagReportedOnce)
{
    SetAssocCache c(smallCache());
    c.insert(0x5000, false, true); // prefetched line
    bool was_pf = false;
    EXPECT_TRUE(c.access(0x5000, false, nullptr, nullptr, &was_pf));
    EXPECT_TRUE(was_pf);
    EXPECT_TRUE(c.access(0x5000, false, nullptr, nullptr, &was_pf));
    EXPECT_FALSE(was_pf); // flag cleared by first demand hit
}

TEST(SetAssocCache, PopulationNeverExceedsCapacity)
{
    SetAssocCache c(smallCache(2 * KiB, 8)); // 32 blocks
    Rng rng(1);
    for (int i = 0; i < 10000; ++i)
        c.access(rng.nextRange(1 << 20) * 64, false);
    EXPECT_LE(c.population(), 32u);
}

} // namespace
} // namespace wsearch
