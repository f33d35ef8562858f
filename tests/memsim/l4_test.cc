#include <gtest/gtest.h>

#include "memsim/hierarchy.hh"

namespace wsearch {
namespace {

HierarchySpec
l4Config(bool fully_assoc = false, bool victim_fill = true)
{
    HierarchySpec h;
    h.numCores = 1;
    h.l1i.cache = {1 * KiB, 64, 4};
    h.l1d.cache = {1 * KiB, 64, 4};
    h.l2.cache = {2 * KiB, 64, 4};
    h.llc.cache = {4 * 64, 64, 1}; // tiny direct-mapped L3: easy evictions
    h.l4 = cache_gen_victim(64 * KiB, 64, fully_assoc, victim_fill);
    return h;
}

TEST(L4Victim, FilledByL3Eviction)
{
    CacheHierarchy h(l4Config());
    const uint64_t a = 0;
    const uint64_t conflict = 4 * 64; // same L3 set
    h.accessData(0, 0, a, false, AccessKind::Heap);        // a -> L3
    h.accessData(0, 0, conflict, false, AccessKind::Heap); // evicts a
    EXPECT_GT(h.l3Evictions(), 0u);
    // a is gone from L3 but must now hit in the L4 (victim fill).
    // Force it out of L1/L2 first by thrashing their sets.
    for (uint64_t i = 2; i <= 40; ++i)
        h.accessData(0, 0, i * 4 * 64ull, false, AccessKind::Heap);
    EXPECT_EQ(h.accessData(0, 0, a, false, AccessKind::Heap),
              HitLevel::L4);
}

TEST(L4Victim, MissDoesNotAllocate)
{
    CacheHierarchy h(l4Config());
    // First-touch miss flows to memory and must not populate the L4.
    h.accessData(0, 0, 0x9000, false, AccessKind::Heap);
    EXPECT_EQ(h.l4Stats().totalMisses(), 1u);
    // Evict from L1/L2/L3 without evicting 0x9000's L3 line...
    // Simply verify stats: the L4 recorded a miss and no hit follows
    // from that memory fill alone.
    EXPECT_EQ(h.l4Stats().totalAccesses(), 1u);
}

TEST(L4Victim, HitLeavesLineResident)
{
    CacheHierarchy h(l4Config());
    const uint64_t a = 0;
    h.accessData(0, 0, a, false, AccessKind::Heap);
    h.accessData(0, 0, 4 * 64, false, AccessKind::Heap); // evict a -> L4
    for (uint64_t i = 2; i <= 40; ++i)
        h.accessData(0, 0, i * 4 * 64ull, false, AccessKind::Heap);
    EXPECT_EQ(h.accessData(0, 0, a, false, AccessKind::Heap),
              HitLevel::L4);
    // Memory-side cache: the line stays in the L4, so after the same
    // thrash pattern it hits again.
    for (uint64_t i = 41; i <= 80; ++i)
        h.accessData(0, 0, i * 4 * 64ull, false, AccessKind::Heap);
    EXPECT_EQ(h.accessData(0, 0, a, false, AccessKind::Heap),
              HitLevel::L4);
}

TEST(L4OnMiss, AllocatesOnMiss)
{
    CacheHierarchy h(l4Config(false, /*victim_fill=*/false));
    h.accessData(0, 0, 0x9000, false, AccessKind::Heap);
    EXPECT_EQ(h.l4Stats().totalMisses(), 1u);
    // Thrash L1/L2/L3, then the block should hit in L4 even though the
    // L3 never evicted it into the L4 (it was allocated on miss).
    for (uint64_t i = 2; i <= 40; ++i)
        h.accessData(0, 0, 0x20000 + i * 4 * 64ull, false,
                     AccessKind::Heap);
    EXPECT_EQ(h.accessData(0, 0, 0x9000, false, AccessKind::Heap),
              HitLevel::L4);
}

TEST(L4, FullyAssociativeVariantWorks)
{
    CacheHierarchy h(l4Config(true));
    const uint64_t a = 0;
    h.accessData(0, 0, a, false, AccessKind::Heap);
    h.accessData(0, 0, 4 * 64, false, AccessKind::Heap);
    for (uint64_t i = 2; i <= 40; ++i)
        h.accessData(0, 0, i * 4 * 64ull, false, AccessKind::Heap);
    EXPECT_EQ(h.accessData(0, 0, a, false, AccessKind::Heap),
              HitLevel::L4);
}

TEST(L4, DirectMappedConflicts)
{
    // Two blocks mapping to the same direct-mapped L4 slot conflict;
    // a fully-associative L4 of the same size keeps both. This is the
    // paper's associativity sensitivity (Figure 14, "Associative").
    const uint64_t l4_blocks = 64 * KiB / 64; // 1024 slots
    const uint64_t a = 0;
    const uint64_t b = l4_blocks * 64; // same slot as a

    auto run = [&](bool fa) {
        CacheHierarchy h(l4Config(fa));
        // Route both blocks through L3 evictions into the L4.
        h.accessData(0, 0, a, false, AccessKind::Heap);
        h.accessData(0, 0, b, false, AccessKind::Heap); // same L3 set too
        h.accessData(0, 0, 8 * 64, false, AccessKind::Heap); // evict b
        h.accessData(0, 0, 12 * 64, false, AccessKind::Heap);
        // Thrash private caches.
        for (uint64_t i = 64; i <= 128; ++i)
            h.accessData(0, 0, i * 4 * 64ull, false, AccessKind::Heap);
        const bool a_in_l4 =
            h.accessData(0, 0, a, false, AccessKind::Heap) ==
            HitLevel::L4;
        const bool b_in_l4 =
            h.accessData(0, 0, b, false, AccessKind::Heap) ==
            HitLevel::L4;
        return std::make_pair(a_in_l4, b_in_l4);
    };

    const auto [dm_a, dm_b] = run(false);
    const auto [fa_a, fa_b] = run(true);
    // Direct-mapped: at most one of the two conflicting blocks
    // survives. Fully associative: both can be resident.
    EXPECT_LE(int(dm_a) + int(dm_b), 1);
    EXPECT_EQ(int(fa_a) + int(fa_b), 2);
}

TEST(L4, StatsOnlySeeL3Misses)
{
    CacheHierarchy h(l4Config());
    // An L1 hit must not touch L4 stats.
    h.accessData(0, 0, 0x9000, false, AccessKind::Heap);
    const uint64_t l4_accesses = h.l4Stats().totalAccesses();
    h.accessData(0, 0, 0x9000, false, AccessKind::Heap); // L1 hit
    EXPECT_EQ(h.l4Stats().totalAccesses(), l4_accesses);
}

} // namespace
} // namespace wsearch
