#include <gtest/gtest.h>

#include "memsim/hierarchy.hh"
#include "memsim/prefetch.hh"

namespace wsearch {
namespace {

TEST(StridePrefetcher, DetectsConstantStride)
{
    StridePrefetcher p(64);
    const uint64_t pc = 0x400100;
    uint64_t predicted = 0;
    // Needs a few accesses to gain confidence.
    for (int i = 0; i < 4; ++i)
        predicted = p.train(pc, 0x1000 + i * 128);
    EXPECT_EQ(predicted, 0x1000 + 3 * 128 + 128);
}

TEST(StridePrefetcher, NoPredictionForRandom)
{
    StridePrefetcher p(64);
    Rng rng(1);
    int predictions = 0;
    for (int i = 0; i < 1000; ++i)
        if (p.train(0x400100, rng.nextRange(1 << 30)))
            ++predictions;
    EXPECT_LT(predictions, 50);
}

TEST(StridePrefetcher, NegativeStride)
{
    StridePrefetcher p(64);
    uint64_t predicted = 0;
    for (int i = 0; i < 4; ++i)
        predicted = p.train(0x400200, 0x100000 - i * 64);
    EXPECT_EQ(predicted, 0x100000 - 3 * 64 - 64);
}

TEST(StreamPrefetcher, FiresOnAscendingMisses)
{
    StreamPrefetcher s(2);
    uint64_t out[8];
    EXPECT_EQ(s.observeMiss(100, out), 0u);
    const uint32_t n = s.observeMiss(101, out);
    ASSERT_EQ(n, 2u);
    EXPECT_EQ(out[0], 102u);
    EXPECT_EQ(out[1], 103u);
}

TEST(StreamPrefetcher, ResetsOnNonSequential)
{
    StreamPrefetcher s(2);
    uint64_t out[8];
    s.observeMiss(100, out);
    s.observeMiss(101, out);
    EXPECT_EQ(s.observeMiss(500, out), 0u);
    EXPECT_EQ(s.observeMiss(501, out), 2u);
}

TEST(PrefetchIntegration, StrideStreamCutsL1Misses)
{
    // A strided loop should see far fewer L1-D misses with the stride
    // prefetcher enabled.
    auto run = [](bool enable) {
        HierarchySpec cfg;
        cfg.l1i.cache = {1 * KiB, 64, 4};
        cfg.l1d.cache = {4 * KiB, 64, 4};
        cfg.l2.cache = {32 * KiB, 64, 8};
        cfg.llc.cache = {256 * KiB, 64, 8};
        cfg.prefetch.l1Stride = enable;
        CacheHierarchy h(cfg);
        for (uint64_t i = 0; i < 20000; ++i)
            h.accessData(0, 0x400100, 0x100000 + i * 64, false,
                         AccessKind::Shard);
        return h.l1dStats().totalMisses();
    };
    const uint64_t without = run(false);
    const uint64_t with = run(true);
    EXPECT_LT(with, without / 2);
}

TEST(PrefetchIntegration, AdjacentLineHelpsPairs)
{
    // Accesses that touch block pairs benefit from buddy prefetching
    // at the L2.
    auto run = [](bool enable) {
        HierarchySpec cfg;
        cfg.l1i.cache = {1 * KiB, 64, 4};
        cfg.l1d.cache = {1 * KiB, 64, 4};
        cfg.l2.cache = {64 * KiB, 64, 8};
        cfg.llc.cache = {256 * KiB, 64, 8};
        cfg.prefetch.l2Adjacent = enable;
        CacheHierarchy h(cfg);
        Rng rng(7);
        for (int i = 0; i < 30000; ++i) {
            const uint64_t pair = rng.nextRange(1 << 18) * 128;
            h.accessData(0, 0, pair, false, AccessKind::Heap);
            h.accessData(0, 0, pair + 64, false, AccessKind::Heap);
        }
        return h.l2Stats().totalMisses();
    };
    const uint64_t without = run(false);
    const uint64_t with = run(true);
    EXPECT_LT(with, without);
}

TEST(PrefetchIntegration, UsefulPrefetchCounted)
{
    HierarchySpec cfg;
    cfg.l1d.cache = {4 * KiB, 64, 4};
    cfg.l2.cache = {32 * KiB, 64, 8};
    cfg.llc.cache = {256 * KiB, 64, 8};
    cfg.prefetch.l1Stride = true;
    CacheHierarchy h(cfg);
    for (uint64_t i = 0; i < 1000; ++i)
        h.accessData(0, 0x400100, 0x100000 + i * 64, false,
                     AccessKind::Shard);
    EXPECT_GT(h.l1dStats().prefetchIssued, 0u);
    EXPECT_GT(h.l1dStats().prefetchUseful, 0u);
}

TEST(PrefetchConfig, AllOnEnablesEverything)
{
    const PrefetchConfig p = PrefetchConfig::allOn();
    EXPECT_TRUE(p.l1Stride);
    EXPECT_TRUE(p.l1NextLine);
    EXPECT_TRUE(p.l2Adjacent);
    EXPECT_TRUE(p.l2Stream);
    EXPECT_TRUE(p.any());
    EXPECT_FALSE(PrefetchConfig{}.any());
}

} // namespace
} // namespace wsearch
