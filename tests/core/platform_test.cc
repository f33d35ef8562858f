#include <gtest/gtest.h>

#include <cstdlib>

#include "core/experiments.hh"
#include "core/platform.hh"

namespace wsearch {
namespace {

TEST(Platform, TableIIAttributes)
{
    const PlatformConfig p1 = PlatformConfig::plt1();
    EXPECT_EQ(p1.sockets, 2u);
    EXPECT_EQ(p1.coresPerSocket, 18u);
    EXPECT_EQ(p1.smtWays, 2u);
    EXPECT_EQ(p1.cacheBlockBytes, 64u);
    EXPECT_EQ(p1.l2Bytes, 256 * KiB);
    EXPECT_EQ(p1.l3Bytes, 45 * MiB);
    EXPECT_EQ(p1.l3Ways, 20u);

    const PlatformConfig p2 = PlatformConfig::plt2();
    EXPECT_EQ(p2.coresPerSocket, 12u);
    EXPECT_EQ(p2.smtWays, 8u);
    EXPECT_EQ(p2.cacheBlockBytes, 128u);
    EXPECT_EQ(p2.l1dBytes, 64 * KiB);
    EXPECT_EQ(p2.l2Bytes, 512 * KiB);
    EXPECT_EQ(p2.l3Bytes, 96 * MiB);
}

TEST(Platform, HierarchyBuilder)
{
    const PlatformConfig p1 = PlatformConfig::plt1();
    const HierarchySpec h = p1.hierarchy(16, 2, 10);
    EXPECT_EQ(h.numCores, 16u);
    EXPECT_EQ(h.smtWays, 2u);
    EXPECT_EQ(h.llc.cache.sizeBytes, 45 * MiB);
    EXPECT_EQ(h.llc.cache.partitionWays, 10u);
    EXPECT_EQ(h.l1i.cache.blockBytes, 64u);
}

TEST(Platform, CoreParamsApplyProfileTweaks)
{
    const PlatformConfig p1 = PlatformConfig::plt1();
    WorkloadProfile prof = WorkloadProfile::s1Leaf();
    prof.cpu.postL2Exposure = 0.42;
    const CoreModelParams c = p1.coreParams(prof);
    EXPECT_DOUBLE_EQ(c.tweaks.postL2Exposure, 0.42);
    EXPECT_EQ(c.width, p1.width);
    EXPECT_DOUBLE_EQ(c.memNs, p1.memNs);
}

TEST(Platform, SystemBuilderWiresL4)
{
    const PlatformConfig p1 = PlatformConfig::plt1();
    const SystemConfig s = p1.system(WorkloadProfile::s1Leaf(), 8, 1, 0,
                                     cache_gen_victim(256 * MiB, 64));
    ASSERT_TRUE(s.hierarchy.l4.has_value());
    EXPECT_EQ(s.hierarchy.l4->cache.sizeBytes, 256 * MiB);
}

TEST(Experiments, RunWorkloadRespectsOverrides)
{
    WorkloadProfile prof = WorkloadProfile::s1Leaf();
    prof.code.footprintBytes = 128 * KiB;
    prof.heapWorkingSetBytes = 4 * MiB;
    RunOptions opt;
    opt.cores = 2;
    opt.l3Bytes = 1 * MiB;
    opt.measureRecords = 300'000;
    // Environment variables must not resize a run: the budget comes
    // from RunOptions alone.
    ::setenv("WSEARCH_FAST", "1", 1);
    ::setenv("WSEARCH_RECORDS", "555", 1);
    const RecordBudget budget = recordBudget(opt);
    const SystemResult r =
        runWorkload(prof, PlatformConfig::plt1(), opt);
    ::unsetenv("WSEARCH_FAST");
    ::unsetenv("WSEARCH_RECORDS");
    EXPECT_EQ(budget.measure, 300'000u);
    EXPECT_EQ(budget.warmup, 150'000u); // 0 derives measure / 2
    EXPECT_EQ(r.instructions, 300'000u);
    EXPECT_GT(r.ipcPerThread, 0.0);
}

TEST(Experiments, L3HitCurveMonotone)
{
    WorkloadProfile prof = WorkloadProfile::s1Leaf();
    prof.code.footprintBytes = 256 * KiB;
    prof.heapWorkingSetBytes = 8 * MiB;
    prof.heapHotFrac = 0.4;
    prof.heapWarmFrac = 0.1;
    RunOptions opt;
    opt.cores = 2;
    opt.measureRecords = 600'000;
    std::vector<RunOptions> options;
    for (const uint64_t size : {512 * KiB, 32 * MiB}) {
        opt.l3Bytes = size;
        options.push_back(opt);
    }
    const std::vector<SystemResult> r =
        runWorkloadSweep(prof, PlatformConfig::plt1(), options);
    EXPECT_GT(r[1].l3DataHitRate(), r[0].l3DataHitRate());
}

TEST(Experiments, L4HitCurveGrowsWithCapacity)
{
    WorkloadProfile prof = WorkloadProfile::s1Leaf();
    prof.code.footprintBytes = 128 * KiB;
    prof.heapWorkingSetBytes = 8 * MiB;
    prof.heapHotFrac = 0.3;
    prof.heapWarmFrac = 0.1;
    RunOptions opt;
    opt.cores = 2;
    opt.l3Bytes = 512 * KiB;
    opt.measureRecords = 800'000;
    opt.warmupRecords = 1'600'000;
    std::vector<RunOptions> options;
    for (const uint64_t size : {1 * MiB, 16 * MiB}) {
        opt.l4 = cache_gen_victim(size, 64);
        options.push_back(opt);
    }
    const std::vector<SystemResult> r =
        runWorkloadSweep(prof, PlatformConfig::plt1(), options);
    EXPECT_GT(r[1].l4.hitRateTotal(), r[0].l4.hitRateTotal());
}

} // namespace
} // namespace wsearch
