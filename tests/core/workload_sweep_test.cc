#include <gtest/gtest.h>

#include "core/experiments.hh"
#include "util/units.hh"

namespace wsearch {
namespace {

/** Small budgets so the full suite stays fast. */
RunOptions
smallOpt(uint64_t l3_bytes)
{
    RunOptions opt;
    opt.cores = 4;
    opt.l3Bytes = l3_bytes;
    opt.measureRecords = 60'000;
    opt.warmupRecords = 30'000;
    return opt;
}

void
expectSystemEq(const SystemResult &a, const SystemResult &b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.branches, b.branches);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
    EXPECT_EQ(a.dtlbWalks, b.dtlbWalks);
    EXPECT_EQ(a.itlbWalks, b.itlbWalks);
    const CacheLevelStats *as[] = {&a.l1i, &a.l1d, &a.l2, &a.l3, &a.l4};
    const CacheLevelStats *bs[] = {&b.l1i, &b.l1d, &b.l2, &b.l3, &b.l4};
    for (int lvl = 0; lvl < 5; ++lvl) {
        for (uint32_t k = 0; k < kNumAccessKinds; ++k) {
            ASSERT_EQ(as[lvl]->accesses[k], bs[lvl]->accesses[k])
                << "level " << lvl << " kind " << k;
            ASSERT_EQ(as[lvl]->misses[k], bs[lvl]->misses[k])
                << "level " << lvl << " kind " << k;
        }
    }
    EXPECT_EQ(a.l3Evictions, b.l3Evictions);
    EXPECT_EQ(a.writebacks, b.writebacks);
    EXPECT_EQ(a.backInvalidations, b.backInvalidations);
    EXPECT_EQ(a.cohUpgrades, b.cohUpgrades);
    EXPECT_EQ(a.cohInvalidations, b.cohInvalidations);
    EXPECT_EQ(a.cohDirtyWritebacks, b.cohDirtyWritebacks);
    EXPECT_DOUBLE_EQ(a.topdown.total(), b.topdown.total());
    EXPECT_DOUBLE_EQ(a.ipcPerThread, b.ipcPerThread);
    EXPECT_DOUBLE_EQ(a.amatL3Ns, b.amatL3Ns);
}

TEST(WorkloadSweep, BitIdenticalToSerialRunWorkloadAtAnyThreadCount)
{
    const WorkloadProfile prof = WorkloadProfile::s1Leaf();
    const PlatformConfig plt = PlatformConfig::plt1();

    std::vector<RunOptions> options = {
        smallOpt(1 * MiB), smallOpt(4 * MiB), smallOpt(16 * MiB)};
    // A variation with an L4 and one with TLB modeling, same thread
    // count (shares the buffer)...
    RunOptions with_l4 = smallOpt(2 * MiB);
    with_l4.l4 = cache_gen_victim(8 * MiB, 64);
    options.push_back(with_l4);
    RunOptions with_tlb = smallOpt(2 * MiB);
    with_tlb.modelTlb = true;
    options.push_back(with_tlb);
    // ...and a different core count, forcing a second trace group.
    RunOptions other_cores = smallOpt(4 * MiB);
    other_cores.cores = 2;
    other_cores.smtWays = 2;
    options.push_back(other_cores);

    std::vector<SystemResult> oracle;
    for (const RunOptions &opt : options)
        oracle.push_back(runWorkload(prof, plt, opt));

    for (const uint32_t threads : {1u, 4u}) {
        SweepControl control;
        control.threads = threads;
        const std::vector<SystemResult> got =
            runWorkloadSweep(prof, plt, options, control);
        ASSERT_EQ(got.size(), options.size());
        for (size_t i = 0; i < options.size(); ++i) {
            SCOPED_TRACE("threads=" + std::to_string(threads) +
                         " option=" + std::to_string(i));
            expectSystemEq(got[i], oracle[i]);
            EXPECT_EQ(got[i].sampledWindows, 0u);
        }
    }
}

TEST(WorkloadSweep, RunWorkloadsMatchesSerialPerSpecRuns)
{
    std::vector<WorkloadSpec> specs;
    specs.push_back({WorkloadProfile::s1Leaf(),
                     PlatformConfig::plt1(), smallOpt(2 * MiB)});
    specs.push_back({WorkloadProfile::s1Root(),
                     PlatformConfig::plt1(), smallOpt(4 * MiB)});
    RunOptions plt2_opt = smallOpt(2 * MiB);
    plt2_opt.cores = 2;
    specs.push_back({WorkloadProfile::s2Leaf(),
                     PlatformConfig::plt2(), plt2_opt});

    const std::vector<SystemResult> par = runWorkloads(specs, 3);
    ASSERT_EQ(par.size(), specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
        SCOPED_TRACE("spec=" + std::to_string(i));
        expectSystemEq(par[i],
                       runWorkload(specs[i].profile,
                                   specs[i].platform, specs[i].opt));
    }
}

TEST(WorkloadSweep, SampledModeReportsWindowsAndApproximatesExact)
{
    const WorkloadProfile prof = WorkloadProfile::s1Leaf();
    const PlatformConfig plt = PlatformConfig::plt1();
    std::vector<RunOptions> options = {smallOpt(4 * MiB)};

    SweepControl control;
    control.threads = 1;
    control.policy = SamplingPolicy::kUniform;
    control.rep.windowRecords = 10'000;
    control.rep.warmupRecords = 5'000;
    control.rep.sampleWindows = 3;
    const std::vector<SystemResult> sampled =
        runWorkloadSweep(prof, plt, options, control);
    ASSERT_EQ(sampled.size(), 1u);
    // 90k total records -> 9 windows; 3 simulated, each standing for
    // 3, so the weighted instruction count covers the whole trace.
    EXPECT_EQ(sampled[0].sampledWindows, 3u);
    EXPECT_EQ(sampled[0].representedWindows, 9u);
    EXPECT_EQ(sampled[0].instructions, 90'000u);
    EXPECT_GT(sampled[0].l3MissVar, 0.0);

    // The estimate should be in the neighbourhood of the exact run
    // (loose bound; this guards gross accounting bugs, not accuracy).
    const SystemResult exact = runWorkload(prof, plt, options[0]);
    EXPECT_EQ(exact.sampledWindows, 0u);
    EXPECT_GT(sampled[0].ipcPerThread, 0.25 * exact.ipcPerThread);
    EXPECT_LT(sampled[0].ipcPerThread, 4.0 * exact.ipcPerThread);
}

} // namespace
} // namespace wsearch
