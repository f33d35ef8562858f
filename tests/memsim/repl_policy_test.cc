/**
 * Replacement-policy unit suite: golden eviction sequences for
 * LRU/SRRIP/DRRIP, DRRIP set-dueling monotonicity, and the
 * CacheUnit construction-time rejection of unsupported policy
 * combinations (fully-associative caches implement exact LRU only).
 */
#include <gtest/gtest.h>

#include "memsim/cache.hh"
#include "memsim/cache_unit.hh"
#include "memsim/spec.hh"
#include "util/zipf.hh"

namespace wsearch {
namespace {

/// 4 KiB, 4-way, 64 B blocks -> 16 sets; set-0 blocks are multiples
/// of kStride.
constexpr uint64_t kStride = 16 * 64;

CacheConfig
smallCache(ReplPolicy repl, uint64_t size = 4 * KiB, uint32_t ways = 4)
{
    CacheConfig c;
    c.sizeBytes = size;
    c.blockBytes = 64;
    c.ways = ways;
    c.repl = repl;
    return c;
}

uint64_t
evictOf(SetAssocCache &c, uint64_t addr)
{
    uint64_t evicted = kNoBlock;
    c.access(addr, false, &evicted);
    return evicted;
}

TEST(ReplGolden, LruEvictionOrder)
{
    SetAssocCache c(smallCache(ReplPolicy::LRU));
    const uint64_t A = 0, B = kStride, C = 2 * kStride, D = 3 * kStride;
    for (uint64_t a : {A, B, C, D})
        EXPECT_EQ(evictOf(c, a), kNoBlock);
    ASSERT_TRUE(c.access(A, false)); // refresh A: LRU order B,C,D,A
    EXPECT_EQ(evictOf(c, 4 * kStride), B);
    EXPECT_EQ(evictOf(c, 5 * kStride), C);
    EXPECT_EQ(evictOf(c, 6 * kStride), D);
    EXPECT_EQ(evictOf(c, 7 * kStride), A);
}

TEST(ReplGolden, SrripEvictionOrder)
{
    // SRRIP inserts at RRPV=kRrpvMax-1=2, promotes to 0 on hit, and
    // evicts the first way at RRPV=3 (aging the set when none is).
    SetAssocCache c(smallCache(ReplPolicy::SRRIP));
    const uint64_t A = 0, B = kStride, C = 2 * kStride, D = 3 * kStride;
    for (uint64_t a : {A, B, C, D})
        c.access(a, false);
    ASSERT_TRUE(c.access(A, false)); // A -> RRPV 0
    // Aging: A 0->1, B/C/D 2->3; first distant way is B.
    EXPECT_EQ(evictOf(c, 4 * kStride), B);
    EXPECT_EQ(evictOf(c, 5 * kStride), C); // C,D already at 3
    EXPECT_EQ(evictOf(c, 6 * kStride), D);
    // Remaining: A@1, then the three fresh inserts @2; aging twice
    // brings the insert in B's old way (lowest index) to 3 first.
    EXPECT_EQ(evictOf(c, 7 * kStride), 4 * kStride);
}

TEST(ReplGolden, DrripNeutralStartFollowsBrrip)
{
    // 16 sets < kDuelPeriod: set 0 is the lone (SRRIP) leader; use a
    // follower set. PSEL starts at the neutral midpoint, which maps
    // to BRRIP: inserts land at RRPV=3, so an established hot line
    // survives any amount of streaming.
    SetAssocCache c(smallCache(ReplPolicy::DRRIP));
    const uint64_t set1 = 64; // set-1 blocks: 64 + k*kStride
    const uint64_t hot = set1;
    c.access(hot, false);
    ASSERT_TRUE(c.access(hot, false)); // promote to RRPV 0
    for (uint64_t i = 1; i <= 100; ++i)
        c.access(set1 + i * kStride, false);
    EXPECT_TRUE(c.probe(hot));
    // Under LRU the same scan flushes the hot line.
    SetAssocCache lru(smallCache(ReplPolicy::LRU));
    lru.access(hot, false);
    lru.access(hot, false);
    for (uint64_t i = 1; i <= 100; ++i)
        lru.access(set1 + i * kStride, false);
    EXPECT_FALSE(lru.probe(hot));
}

TEST(ReplGolden, DrripSetDuelingMovesPsel)
{
    // 64 sets (16 KiB / 4-way): set 0 is the SRRIP leader, set 32 the
    // BRRIP leader. Leader fills vote misses into PSEL.
    SetAssocCache c(smallCache(ReplPolicy::DRRIP, 16 * KiB, 4));
    const uint32_t neutral = c.drripPsel();
    for (uint64_t i = 0; i < 50; ++i)
        c.access(i * 64 * KiB, false); // set 0, always fresh -> fills
    const uint32_t after_srrip_leader = c.drripPsel();
    EXPECT_GT(after_srrip_leader, neutral);
    for (uint64_t i = 0; i < 100; ++i)
        c.access(32 * 64 + i * 64 * KiB, false); // set 32 fills
    EXPECT_LT(c.drripPsel(), after_srrip_leader);
}

TEST(ReplGolden, DrripPselSaturates)
{
    SetAssocCache c(smallCache(ReplPolicy::DRRIP, 16 * KiB, 4));
    for (uint64_t i = 0; i < 5'000; ++i)
        c.access(i * 64 * KiB, false); // hammer the SRRIP leader
    const uint32_t top = c.drripPsel();
    EXPECT_EQ(top, 1023u); // 10-bit PSEL cap
    c.access(5'000 * 64 * KiB, false);
    EXPECT_EQ(c.drripPsel(), top); // saturated, no wrap
}

TEST(ReplGolden, DrripZipfCompetitiveWithLru)
{
    auto hit_rate = [](ReplPolicy repl) {
        SetAssocCache c(smallCache(repl, 16 * KiB, 8));
        ZipfSampler z(16384, 0.8);
        Rng rng(3);
        uint64_t hits = 0;
        const int n = 300000;
        for (int i = 0; i < n; ++i)
            if (c.access(z.sample(rng) * 64, false))
                ++hits;
        return static_cast<double>(hits) / n;
    };
    EXPECT_GT(hit_rate(ReplPolicy::DRRIP),
              hit_rate(ReplPolicy::LRU) - 0.02);
}

TEST(CacheUnit, RejectsNonLruFullyAssociative)
{
    // Satellite fix: the fully-associative backend silently ignored
    // the configured ReplPolicy; now it is rejected at construction.
    CacheLevelSpec spec = cache_gen_victim(1 * MiB, 64,
                                           /*fully_assoc=*/true);
    spec.cache.repl = ReplPolicy::SRRIP;
    EXPECT_EXIT(CacheUnit{spec},
                ::testing::ExitedWithCode(1),
                "fully-associative");
}

TEST(CacheUnit, AcceptsLruFullyAssociative)
{
    CacheLevelSpec spec = cache_gen_victim(64 * KiB, 64,
                                           /*fully_assoc=*/true);
    CacheUnit u(spec);
    EXPECT_TRUE(u.fullyAssociative());
    u.insert(0x1000, false, false);
    EXPECT_TRUE(u.probe(0x1000));
}

} // namespace
} // namespace wsearch
