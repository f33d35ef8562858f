#include <gtest/gtest.h>

#include "memsim/hierarchy.hh"

namespace wsearch {
namespace {

HierarchySpec
tinyConfig(uint32_t cores = 1)
{
    HierarchySpec h;
    h.numCores = cores;
    h.l1i.cache = {1 * KiB, 64, 4};
    h.l1d.cache = {1 * KiB, 64, 4};
    h.l2.cache = {4 * KiB, 64, 4};
    h.llc.cache = {16 * KiB, 64, 4};
    return h;
}

TEST(Hierarchy, ColdMissGoesToMemory)
{
    CacheHierarchy h(tinyConfig());
    EXPECT_EQ(h.accessData(0, 0x100, 0x9000, false, AccessKind::Heap),
              HitLevel::Memory);
}

TEST(Hierarchy, SecondAccessHitsL1)
{
    CacheHierarchy h(tinyConfig());
    h.accessData(0, 0x100, 0x9000, false, AccessKind::Heap);
    EXPECT_EQ(h.accessData(0, 0x100, 0x9000, false, AccessKind::Heap),
              HitLevel::L1);
}

TEST(Hierarchy, InstrFetchFillsPath)
{
    CacheHierarchy h(tinyConfig());
    EXPECT_EQ(h.accessInstr(0, 0x400000), HitLevel::Memory);
    EXPECT_EQ(h.accessInstr(0, 0x400000), HitLevel::L1);
    EXPECT_EQ(h.l1iStats().totalAccesses(), 2u);
    EXPECT_EQ(h.l1iStats().totalMisses(), 1u);
    EXPECT_EQ(h.l2Stats().missesOf(AccessKind::Code), 1u);
    EXPECT_EQ(h.l3Stats().missesOf(AccessKind::Code), 1u);
}

TEST(Hierarchy, L2HitAfterL1Eviction)
{
    CacheHierarchy h(tinyConfig());
    // L1D is 1 KiB (16 blocks, 4 sets x 4 ways); L2 is 4 KiB.
    // Touch block A, then evict it from L1 by filling its set.
    const uint64_t a = 0x10000;
    h.accessData(0, 0, a, false, AccessKind::Heap);
    for (int i = 1; i <= 4; ++i) {
        h.accessData(0, 0, a + i * 4 * 64ull, false,
                     AccessKind::Heap); // same L1 set
    }
    EXPECT_EQ(h.accessData(0, 0, a, false, AccessKind::Heap),
              HitLevel::L2);
}

TEST(Hierarchy, SeparateCoresHavePrivateL1)
{
    CacheHierarchy h(tinyConfig(2));
    h.accessData(0, 0, 0x9000, false, AccessKind::Heap);
    // Core 1 misses its L1/L2 but finds the block in the shared L3.
    EXPECT_EQ(h.accessData(1, 0, 0x9000, false, AccessKind::Heap),
              HitLevel::L3);
}

TEST(Hierarchy, SmtThreadsShareL1)
{
    HierarchySpec cfg = tinyConfig(1);
    cfg.smtWays = 2;
    CacheHierarchy h(cfg);
    EXPECT_EQ(h.coreOf(0), 0u);
    EXPECT_EQ(h.coreOf(1), 0u);
    h.accessData(0, 0, 0x9000, false, AccessKind::Heap);
    EXPECT_EQ(h.accessData(1, 0, 0x9000, false, AccessKind::Heap),
              HitLevel::L1);
}

TEST(Hierarchy, ThreadToCoreMapping)
{
    HierarchySpec cfg = tinyConfig(4);
    cfg.smtWays = 2;
    CacheHierarchy h(cfg);
    EXPECT_EQ(h.coreOf(0), 0u);
    EXPECT_EQ(h.coreOf(1), 0u);
    EXPECT_EQ(h.coreOf(2), 1u);
    EXPECT_EQ(h.coreOf(7), 3u);
}

TEST(Hierarchy, StatsTagByKind)
{
    CacheHierarchy h(tinyConfig());
    h.accessData(0, 0, 0x9000, false, AccessKind::Shard);
    h.accessData(0, 0, 0xA0000, false, AccessKind::Heap);
    EXPECT_EQ(h.l1dStats().missesOf(AccessKind::Shard), 1u);
    EXPECT_EQ(h.l1dStats().missesOf(AccessKind::Heap), 1u);
    EXPECT_EQ(h.l3Stats().missesOf(AccessKind::Shard), 1u);
}

TEST(Hierarchy, ResetStatsKeepsContents)
{
    CacheHierarchy h(tinyConfig());
    h.accessData(0, 0, 0x9000, false, AccessKind::Heap);
    h.resetStats();
    EXPECT_EQ(h.l1dStats().totalAccesses(), 0u);
    // Contents survive: the block still hits.
    EXPECT_EQ(h.accessData(0, 0, 0x9000, false, AccessKind::Heap),
              HitLevel::L1);
}

TEST(Hierarchy, InclusiveL3BackInvalidates)
{
    HierarchySpec cfg = tinyConfig();
    cfg.llc.inclusion = InclusionMode::Inclusive;
    // Make the L3 direct-mapped and tiny so evictions are easy to force.
    cfg.llc.cache = {4 * 64, 64, 1}; // 4 sets
    CacheHierarchy h(cfg);
    const uint64_t a = 0;
    const uint64_t conflict = 4 * 64; // same L3 set as a
    h.accessData(0, 0, a, false, AccessKind::Heap);
    EXPECT_EQ(h.accessData(0, 0, a, false, AccessKind::Heap),
              HitLevel::L1);
    // This evicts a from the L3 and must back-invalidate L1/L2.
    h.accessData(0, 0, conflict, false, AccessKind::Heap);
    EXPECT_GT(h.backInvalidations(), 0u);
    EXPECT_NE(h.accessData(0, 0, a, false, AccessKind::Heap),
              HitLevel::L1);
}

TEST(Hierarchy, BackInvalidationClearsTheL1iFilter)
{
    HierarchySpec cfg = tinyConfig();
    cfg.llc.inclusion = InclusionMode::Inclusive;
    cfg.llc.cache = {4 * 64, 64, 1}; // direct-mapped, 4 sets
    CacheHierarchy h(cfg);
    const uint64_t pc = 0x400000;
    h.accessInstr(0, pc);
    EXPECT_EQ(h.accessInstr(0, pc), HitLevel::L1);
    // A data block in the same L3 set evicts the code block from the
    // L3, which back-invalidates it from the L1-I: the core's next
    // fetch of it must miss although it fetched nothing in between.
    h.accessData(0, 0, pc + 4 * 64, false, AccessKind::Heap);
    EXPECT_GT(h.backInvalidations(), 0u);
    EXPECT_EQ(h.accessInstr(0, pc), HitLevel::Memory);
    EXPECT_EQ(h.l1iStats().totalMisses(), 2u);
}

TEST(Hierarchy, L1iCountsMatchABareCacheForEveryPolicy)
{
    // The hierarchy's L1-I skips the lookup for a core's repeated
    // fetches of one block; its hit count must still equal a bare
    // cache's fed the same fetches. Two SMT threads share the core,
    // and short same-block runs alternate with set conflicts.
    for (const ReplPolicy repl : {ReplPolicy::LRU, ReplPolicy::Random,
                                  ReplPolicy::SRRIP, ReplPolicy::DRRIP}) {
        SCOPED_TRACE(static_cast<int>(repl));
        HierarchySpec cfg = tinyConfig();
        cfg.smtWays = 2;
        cfg.l1i.cache.repl = repl;
        CacheHierarchy h(cfg);
        SetAssocCache bare(cfg.l1i.cache);
        uint64_t bare_hits = 0;
        uint64_t x = 12345;
        for (int i = 0; i < 20000; ++i) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            // 24 blocks over 4 sets of 4 ways: steady conflict misses.
            const uint64_t pc = 0x400000 + (x >> 59) % 24 * 64 +
                (x >> 40) % 64;
            const uint32_t tid = (x >> 20) % 2;
            for (uint64_t rep = 0; rep <= (x >> 30) % 3; ++rep) {
                h.accessInstr(tid, pc);
                bare_hits += bare.access(pc, false) ? 1 : 0;
            }
        }
        const CacheLevelStats &s = h.l1iStats();
        EXPECT_EQ(s.totalAccesses() - s.totalMisses(), bare_hits);
    }
}

TEST(Hierarchy, L1dCountsMatchABareCacheForEveryPolicy)
{
    // Under every policy, the hierarchy's L1-D and L2 hit counts must
    // equal those of bare caches fed the same accesses (the L2 sees
    // exactly the L1-D misses). Two SMT threads share the core.
    for (const ReplPolicy repl : {ReplPolicy::LRU, ReplPolicy::Random,
                                  ReplPolicy::SRRIP, ReplPolicy::DRRIP}) {
        SCOPED_TRACE(static_cast<int>(repl));
        HierarchySpec cfg = tinyConfig();
        cfg.smtWays = 2;
        cfg.l1d.cache.repl = repl;
        cfg.l2.cache = cfg.l1d.cache;
        CacheHierarchy h(cfg);
        SetAssocCache bare_l1d(cfg.l1d.cache), bare_l2(cfg.l2.cache);
        uint64_t l1d_hits = 0, l2_hits = 0;
        uint64_t x = 12345;
        for (int i = 0; i < 20000; ++i) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            // 24 blocks over 4 sets of 4 ways: steady conflict misses.
            const uint64_t addr = 0x10000 + (x >> 59) % 24 * 64 +
                (x >> 40) % 64;
            const uint32_t tid = (x >> 20) % 2;
            const bool is_store = (x >> 30) % 4 == 0;
            h.accessData(tid, 0, addr, is_store, AccessKind::Heap);
            if (bare_l1d.access(addr, is_store))
                ++l1d_hits;
            else if (bare_l2.access(addr, is_store))
                ++l2_hits;
        }
        const CacheLevelStats &l1d = h.l1dStats();
        EXPECT_EQ(l1d.totalAccesses() - l1d.totalMisses(), l1d_hits);
        const CacheLevelStats &l2 = h.l2Stats();
        EXPECT_EQ(l2.totalAccesses() - l2.totalMisses(), l2_hits);
    }
}

TEST(Hierarchy, NonInclusiveKeepsL1OnL3Eviction)
{
    HierarchySpec cfg = tinyConfig();
    cfg.llc.inclusion = InclusionMode::NINE;
    cfg.llc.cache = {4 * 64, 64, 1};
    CacheHierarchy h(cfg);
    const uint64_t a = 0;
    h.accessData(0, 0, a, false, AccessKind::Heap);
    h.accessData(0, 0, 4 * 64, false, AccessKind::Heap); // evict a in L3
    EXPECT_EQ(h.accessData(0, 0, a, false, AccessKind::Heap),
              HitLevel::L1);
}

TEST(Hierarchy, DirtyL2EvictionWritesBack)
{
    HierarchySpec cfg = tinyConfig();
    CacheHierarchy h(cfg);
    // Store to a block, then stream enough blocks through the L2 to
    // evict it; the writeback counter must increase.
    h.accessData(0, 0, 0, true, AccessKind::Heap);
    for (uint64_t i = 1; i <= 256; ++i)
        h.accessData(0, 0, i * 64, false, AccessKind::Heap);
    EXPECT_GT(h.writebacks(), 0u);
}

TEST(Hierarchy, NoL3Mode)
{
    HierarchySpec cfg = tinyConfig();
    cfg.hasLlc = false;
    CacheHierarchy h(cfg);
    EXPECT_EQ(h.accessData(0, 0, 0x9000, false, AccessKind::Heap),
              HitLevel::Memory);
    h.accessData(0, 0, 0x9000, false, AccessKind::Heap);
    EXPECT_EQ(h.l3Stats().totalAccesses(), 0u);
}

} // namespace
} // namespace wsearch
