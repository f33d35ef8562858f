/**
 * Compatibility oracle. The golden counters below were captured from
 * the pre-redesign (monolithic-config) implementation on the exact
 * harness used here: 4 S1-leaf trace threads, 40k warmup + 80k
 * measured records. Hierarchies assembled from the cache_gen_*
 * generators must reproduce every counter EXACTLY -- any drift means
 * the simulation semantics changed, which is a bug even if the new
 * numbers look plausible. They replay through SystemSimulator, whose
 * cache counters do not depend on its predictors or core model.
 */
#include <gtest/gtest.h>

#include "cpu/system.hh"
#include "memsim/spec.hh"
#include "trace/synthetic.hh"

namespace wsearch {
namespace {

struct GoldenLevel
{
    uint64_t acc[kNumAccessKinds];
    uint64_t miss[kNumAccessKinds];
};

struct Golden
{
    GoldenLevel l1i, l1d, l2, l3, l4;
    uint64_t evictions, writebacks, backInvalidations;
};

SimResult
runOracle(const HierarchySpec &cfg)
{
    SyntheticSearchTrace src(WorkloadProfile::s1Leaf(), 4);
    SystemConfig sys;
    sys.hierarchy = cfg;
    SystemSimulator sim(sys);
    return sim.run(src, 40'000, 80'000);
}

void
expectLevel(const CacheLevelStats &s, const GoldenLevel &g,
            const char *level)
{
    for (uint32_t k = 0; k < kNumAccessKinds; ++k) {
        EXPECT_EQ(s.accesses[k], g.acc[k])
            << level << " accesses kind " << k;
        EXPECT_EQ(s.misses[k], g.miss[k])
            << level << " misses kind " << k;
    }
}

void
expectGolden(const SimResult &r, const Golden &g)
{
    EXPECT_EQ(r.instructions, 80'000u);
    expectLevel(r.l1i, g.l1i, "l1i");
    expectLevel(r.l1d, g.l1d, "l1d");
    expectLevel(r.l2, g.l2, "l2");
    expectLevel(r.l3, g.l3, "l3");
    expectLevel(r.l4, g.l4, "l4");
    EXPECT_EQ(r.l3Evictions, g.evictions);
    EXPECT_EQ(r.writebacks, g.writebacks);
    EXPECT_EQ(r.backInvalidations, g.backInvalidations);
}

constexpr GoldenLevel kZero = {{0, 0, 0, 0}, {0, 0, 0, 0}};

TEST(CompatOracle, PlainHierarchy)
{
    HierarchySpec cfg;
    cfg.numCores = 4;
    cfg.llc = cache_gen_llc(1 * MiB, 64, 16);
    const Golden g = {
        {{80000, 0, 0, 0}, {1735, 0, 0, 0}},
        {{0, 17451, 871, 12012}, {0, 2495, 109, 3}},
        {{1735, 2495, 109, 3}, {1671, 1755, 109, 0}},
        {{1671, 1755, 109, 0}, {1262, 1704, 109, 0}},
        kZero,
        25, 14, 0,
    };
    expectGolden(runOracle(cfg), g);
}

TEST(CompatOracle, InclusiveCatPartition)
{
    HierarchySpec cfg;
    cfg.numCores = 4;
    cfg.llc = cache_gen_llc(1 * MiB, 64, 16, ReplPolicy::LRU,
                            InclusionMode::Inclusive, 4);
    const Golden g = {
        {{80000, 0, 0, 0}, {2296, 0, 0, 0}},
        {{0, 17451, 871, 12012}, {0, 7348, 110, 4567}},
        {{2296, 7348, 110, 4567}, {2296, 7145, 110, 4567}},
        {{2296, 7145, 110, 4567}, {2026, 7087, 110, 4567}},
        kZero,
        12435, 2902, 12706,
    };
    expectGolden(runOracle(cfg), g);
}

TEST(CompatOracle, SplitL2Partition)
{
    HierarchySpec cfg;
    cfg.numCores = 4;
    cfg.llc = cache_gen_llc(1 * MiB, 64, 16);
    cfg.l2InstrPartitionWays = 2;
    const Golden g = {
        {{80000, 0, 0, 0}, {1735, 0, 0, 0}},
        {{0, 17451, 871, 12012}, {0, 2495, 109, 3}},
        {{1735, 2495, 109, 3}, {1703, 1755, 109, 0}},
        {{1703, 1755, 109, 0}, {1262, 1704, 109, 0}},
        kZero,
        25, 10, 0,
    };
    expectGolden(runOracle(cfg), g);
}

/// The three L4 variants produce identical counters at this scale
/// (the fill-policy and associativity differences need bigger
/// footprints to separate; the bench ablations cover that).
constexpr Golden kL4Golden = {
    {{80000, 0, 0, 0}, {1735, 0, 0, 0}},
    {{0, 17451, 871, 12012}, {0, 2495, 109, 3}},
    {{1735, 2495, 109, 3}, {1671, 1755, 109, 0}},
    {{1671, 1755, 109, 0}, {1340, 1706, 109, 0}},
    {{1340, 1706, 109, 0}, {1263, 1704, 109, 0}},
    2321, 499, 0,
};

HierarchySpec
l4Base()
{
    HierarchySpec cfg;
    cfg.numCores = 4;
    cfg.llc = cache_gen_llc(256 * KiB, 64, 16);
    return cfg;
}

TEST(CompatOracle, L4VictimDirectMapped)
{
    HierarchySpec cfg = l4Base();
    cfg.l4 = cache_gen_victim(4 * MiB, 64);
    expectGolden(runOracle(cfg), kL4Golden);
}

TEST(CompatOracle, L4OnMissDirectMapped)
{
    HierarchySpec cfg = l4Base();
    cfg.l4 = cache_gen_victim(4 * MiB, 64, /*fully_assoc=*/false,
                              /*victim_fill=*/false);
    expectGolden(runOracle(cfg), kL4Golden);
}

TEST(CompatOracle, L4VictimFullyAssociative)
{
    HierarchySpec cfg = l4Base();
    cfg.l4 = cache_gen_victim(4 * MiB, 64, /*fully_assoc=*/true);
    expectGolden(runOracle(cfg), kL4Golden);
}

TEST(CompatOracle, SrripSmtPrefetch)
{
    HierarchySpec cfg;
    cfg.numCores = 2;
    cfg.smtWays = 2;
    cfg.llc = cache_gen_llc(1 * MiB, 64, 16, ReplPolicy::SRRIP);
    cfg.prefetch = PrefetchConfig::allOn();
    const SimResult r = runOracle(cfg);
    const Golden g = {
        {{80000, 0, 0, 0}, {1763, 0, 0, 0}},
        {{0, 17451, 871, 12012}, {0, 8619, 78, 1436}},
        {{1763, 8619, 78, 1436}, {1030, 1420, 55, 27}},
        {{1030, 1420, 55, 27}, {868, 1335, 55, 8}},
        kZero,
        2, 122, 0,
    };
    expectGolden(r, g);
    EXPECT_EQ(r.l1d.prefetchIssued, 5925u);
    EXPECT_EQ(r.l1d.prefetchUseful, 1778u);
    EXPECT_EQ(r.l2.prefetchIssued, 1998u);
    EXPECT_EQ(r.l2.prefetchUseful, 917u);
}

} // namespace
} // namespace wsearch
