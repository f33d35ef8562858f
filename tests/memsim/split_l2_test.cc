#include <gtest/gtest.h>

#include "memsim/hierarchy.hh"

namespace wsearch {
namespace {

HierarchySpec
splitConfig(uint32_t instr_ways)
{
    HierarchySpec h;
    h.l1i.cache = {1 * KiB, 64, 4};
    h.l1d.cache = {1 * KiB, 64, 4};
    h.l2.cache = {8 * KiB, 64, 8};
    h.l2InstrPartitionWays = instr_ways;
    h.llc.cache = {64 * KiB, 64, 8};
    return h;
}

TEST(SplitL2, UnifiedSharesCapacity)
{
    CacheHierarchy h(splitConfig(0));
    // Instruction fill is visible to... the same unified L2: a data
    // access to the same block hits at L2 after L1-D miss.
    h.accessInstr(0, 0x400000);
    EXPECT_EQ(h.accessData(0, 0, 0x400000, false, AccessKind::Heap),
              HitLevel::L2);
}

TEST(SplitL2, PartitionsAreIsolated)
{
    CacheHierarchy h(splitConfig(4));
    // With a split L2, an instruction fill lands in the I partition;
    // the data side must miss past L2 (it hits the shared L3, which
    // the instruction path filled).
    h.accessInstr(0, 0x400000);
    EXPECT_EQ(h.accessData(0, 0, 0x400000, false, AccessKind::Heap),
              HitLevel::L3);
}

TEST(SplitL2, InstrPartitionHoldsCode)
{
    CacheHierarchy h(splitConfig(4));
    h.accessInstr(0, 0x400000);
    // Evict from L1-I by filling its set, then re-fetch: must hit the
    // L2 instruction partition.
    for (int i = 1; i <= 4; ++i)
        h.accessInstr(0, 0x400000 + i * 4 * 64u);
    EXPECT_EQ(h.accessInstr(0, 0x400000), HitLevel::L2);
}

TEST(SplitL2, InclusiveBackInvalidationReachesTheInstrPartition)
{
    HierarchySpec cfg = splitConfig(4);
    cfg.numCores = 2;
    cfg.llc = cache_gen_llc_inc(4 * KiB, 64, 4); // 16 sets x 4 ways
    CacheHierarchy h(cfg);
    const uint64_t pc = 0x400000;
    h.accessInstr(0, pc);
    // Core 1's data fills the code block's L3 set and evicts it; the
    // inclusive L3 must remove it from core 0's instruction partition
    // too, so core 0's re-fetch misses the L2.
    for (uint64_t k = 1; k <= 4; ++k)
        h.accessData(1, 0, pc + k * 16 * 64, false, AccessKind::Heap);
    EXPECT_GT(h.backInvalidations(), 0u);
    EXPECT_EQ(h.accessInstr(0, pc), HitLevel::Memory);
}

TEST(SplitL2, DataCapacityShrinks)
{
    // 6 of 8 ways for instructions leaves a 2-way data partition:
    // three conflicting data blocks cannot all reside.
    CacheHierarchy h(splitConfig(6));
    const uint64_t stride = 16 * 64; // same L2 set (16 sets)
    h.accessData(0, 0, 0 * stride, false, AccessKind::Heap);
    h.accessData(0, 0, 1 * stride, false, AccessKind::Heap);
    h.accessData(0, 0, 2 * stride, false, AccessKind::Heap);
    // Thrash L1-D so the next accesses actually probe the L2.
    for (int i = 3; i <= 7; ++i)
        h.accessData(0, 0, i * 4 * 64u, false, AccessKind::Heap);
    uint32_t l2_hits = 0;
    for (int i = 0; i < 3; ++i) {
        if (h.accessData(0, 0, i * stride, false, AccessKind::Heap) ==
            HitLevel::L2)
            ++l2_hits;
    }
    EXPECT_LE(l2_hits, 2u);
}

TEST(SplitL2, StatsStillAggregatePerLevel)
{
    CacheHierarchy h(splitConfig(4));
    h.accessInstr(0, 0x400000);
    h.accessData(0, 0, 0x900000, false, AccessKind::Heap);
    EXPECT_EQ(h.l2Stats().missesOf(AccessKind::Code), 1u);
    EXPECT_EQ(h.l2Stats().missesOf(AccessKind::Heap), 1u);
}

} // namespace
} // namespace wsearch
