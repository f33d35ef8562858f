/**
 * Statistical property tests of the full hierarchy against the
 * calibrated synthetic workload: the monotonicities every sweep bench
 * depends on.
 */
#include <gtest/gtest.h>

#include "cpu/system.hh"
#include "trace/synthetic.hh"

namespace wsearch {
namespace {

WorkloadProfile
smallProfile()
{
    WorkloadProfile p = WorkloadProfile::s1LeafSweep();
    p.heapWorkingSetBytes = 8 * MiB;
    p.shardSpanBytes = 256 * MiB;
    return p;
}

SystemResult
runWith(const HierarchySpec &h, uint64_t records = 1'500'000)
{
    const WorkloadProfile p = smallProfile();
    SyntheticSearchTrace trace(p, h.numCores * h.smtWays);
    SystemConfig cfg;
    cfg.hierarchy = h;
    SystemSimulator sim(cfg);
    return sim.run(trace, records, records);
}

HierarchySpec
baseHier(uint32_t cores = 2)
{
    HierarchySpec h;
    h.numCores = cores;
    h.llc.cache = {1 * MiB, 64, 16};
    return h;
}

class L3SizeSweep : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(L3SizeSweep, MissesShrinkWithCapacity)
{
    const uint32_t cores = GetParam();
    double prev = 1e18;
    for (const uint64_t size : {256 * KiB, 1 * MiB, 4 * MiB}) {
        HierarchySpec h = baseHier(cores);
        h.llc.cache.sizeBytes = size;
        const SystemResult r = runWith(h);
        const double mpki = r.l3.mpkiTotal(r.instructions);
        EXPECT_LT(mpki, prev * 1.02) << "size " << size;
        prev = mpki;
    }
}

INSTANTIATE_TEST_SUITE_P(Cores, L3SizeSweep, ::testing::Values(1, 2, 4));

TEST(HierarchyProps, CatWaysMonotone)
{
    double prev = 1e18;
    for (const uint32_t ways : {2u, 4u, 8u, 16u}) {
        HierarchySpec h = baseHier();
        h.llc.cache.partitionWays = ways;
        const SystemResult r = runWith(h);
        const double mpki = r.l3.mpkiTotal(r.instructions);
        EXPECT_LT(mpki, prev * 1.02) << "ways " << ways;
        prev = mpki;
    }
}

TEST(HierarchyProps, L4HitRateMonotoneInCapacity)
{
    double prev = -1.0;
    for (const uint64_t size : {512 * KiB, 2 * MiB, 8 * MiB}) {
        HierarchySpec h = baseHier();
        h.llc.cache.sizeBytes = 256 * KiB;
        h.l4 = cache_gen_victim(size, 64);
        const SystemResult r = runWith(h, 2'500'000);
        EXPECT_GT(r.l4.hitRateTotal(), prev - 0.01) << "size " << size;
        prev = r.l4.hitRateTotal();
    }
    EXPECT_GT(prev, 0.2);
}

TEST(HierarchyProps, BiggerBlocksCutShardMisses)
{
    // Sequential shard runs: larger blocks mean fewer block-grain
    // misses per byte consumed.
    HierarchySpec small = baseHier(), big = baseHier();
    for (CacheLevelSpec *c :
         {&small.l1i, &small.l1d, &small.l2, &small.llc})
        c->cache.blockBytes = 32;
    for (CacheLevelSpec *c : {&big.l1i, &big.l1d, &big.l2, &big.llc})
        c->cache.blockBytes = 256;
    const SystemResult rs = runWith(small);
    const SystemResult rb = runWith(big);
    EXPECT_GT(rs.l1d.mpki(AccessKind::Shard, rs.instructions),
              rb.l1d.mpki(AccessKind::Shard, rb.instructions));
}

TEST(HierarchyProps, SmtSharesCachesMultiCoreDoesNot)
{
    // 4 threads on 1 core (SMT-4) vs 4 cores: the SMT configuration
    // must show higher private-cache pressure.
    HierarchySpec smt = baseHier(1);
    smt.smtWays = 4;
    HierarchySpec multi = baseHier(4);
    const SystemResult rs = runWith(smt);
    const SystemResult rm = runWith(multi);
    EXPECT_GT(rs.l1d.mpkiTotal(rs.instructions),
              rm.l1d.mpkiTotal(rm.instructions));
}

TEST(HierarchyProps, PrefetchersNeverBreakCorrectnessCounters)
{
    HierarchySpec h = baseHier();
    h.prefetch = PrefetchConfig::allOn();
    const SystemResult r = runWith(h);
    // Hits + misses == accesses at every level (prefetch inserts are
    // not demand accesses and must not distort the books).
    for (const CacheLevelStats *s : {&r.l1i, &r.l1d, &r.l2, &r.l3}) {
        EXPECT_GE(s->totalAccesses(), s->totalMisses());
    }
    EXPECT_GT(r.l1d.prefetchIssued + r.l2.prefetchIssued, 0u);
}

} // namespace
} // namespace wsearch
