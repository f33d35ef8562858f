#include <gtest/gtest.h>

#include <bit>
#include <string>

#include "core/experiments.hh"
#include "trace/synthetic.hh"
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

/** Bit pattern of a double, so equality means bit-identical. */
uint64_t
bits(double v)
{
    return std::bit_cast<uint64_t>(v);
}

/** Every counter equal; TopDown slots, IPC and AMAT bit for bit. */
void
expectSystemEq(const SystemResult &a, const SystemResult &b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.branches, b.branches);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
    EXPECT_EQ(a.dtlbAccesses, b.dtlbAccesses);
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
        EXPECT_EQ(as[lvl]->prefetchIssued, bs[lvl]->prefetchIssued);
        EXPECT_EQ(as[lvl]->prefetchUseful, bs[lvl]->prefetchUseful);
    }
    EXPECT_EQ(a.l3Evictions, b.l3Evictions);
    EXPECT_EQ(a.writebacks, b.writebacks);
    EXPECT_EQ(a.backInvalidations, b.backInvalidations);
    EXPECT_EQ(a.cohUpgrades, b.cohUpgrades);
    EXPECT_EQ(a.cohInvalidations, b.cohInvalidations);
    EXPECT_EQ(a.cohDirtyWritebacks, b.cohDirtyWritebacks);
    EXPECT_EQ(a.sampledWindows, b.sampledWindows);
    EXPECT_EQ(a.representedWindows, b.representedWindows);
    EXPECT_EQ(bits(a.l3MissVar), bits(b.l3MissVar));
    const TopDown &ta = a.topdown, &tb = b.topdown;
    EXPECT_EQ(bits(ta.retiring), bits(tb.retiring));
    EXPECT_EQ(bits(ta.badSpeculation), bits(tb.badSpeculation));
    EXPECT_EQ(bits(ta.frontendLatency), bits(tb.frontendLatency));
    EXPECT_EQ(bits(ta.frontendBandwidth), bits(tb.frontendBandwidth));
    EXPECT_EQ(bits(ta.backendMemory), bits(tb.backendMemory));
    EXPECT_EQ(bits(ta.backendCore), bits(tb.backendCore));
    EXPECT_EQ(bits(a.ipcPerThread), bits(b.ipcPerThread));
    EXPECT_EQ(bits(a.amatL3Ns), bits(b.amatL3Ns));
}

/**
 * PLT1 with small private caches. With the small LLCs of
 * sweepOptions, runs this short still evict from every level: the
 * shared halves see clean and dirty L2 victims, LLC evictions and L4
 * fills.
 */
PlatformConfig
smallPlatform()
{
    PlatformConfig plt = PlatformConfig::plt1();
    plt.l1iBytes = 4 * KiB;
    plt.l1dBytes = 4 * KiB;
    plt.l2Bytes = 32 * KiB;
    return plt;
}

/**
 * One sweep's variations. Most share the default private half and
 * differ only below the L2 (LLC size, ways, policy, CAT partition,
 * slices, exclusion, the three L4 kinds), so one private pass feeds
 * them all. The rest must not share it: an inclusive LLC reaches back
 * into the private caches, and the others change a private setting
 * (two of those come in pairs, forming classes of their own). The
 * last one has its own trace group.
 */
std::vector<RunOptions>
sweepOptions()
{
    std::vector<RunOptions> o = {
        smallOpt(64 * KiB), smallOpt(256 * KiB), smallOpt(1 * MiB)};
    auto add = [&](uint64_t l3_bytes, auto &&change) {
        RunOptions opt = smallOpt(l3_bytes);
        change(opt);
        o.push_back(opt);
    };
    add(128 * KiB, [](RunOptions &x) { x.l3Ways = 4; });
    add(128 * KiB, [](RunOptions &x) { x.llcRepl = ReplPolicy::SRRIP; });
    add(128 * KiB, [](RunOptions &x) { x.llcRepl = ReplPolicy::DRRIP; });
    add(128 * KiB, [](RunOptions &x) { x.llcRepl = ReplPolicy::Random; });
    add(256 * KiB, [](RunOptions &x) { x.l3PartitionWays = 4; });
    add(256 * KiB, [](RunOptions &x) { x.llcSlices = 4; });
    add(128 * KiB, [](RunOptions &x) {
        x.llcInclusion = InclusionMode::Exclusive;
    });
    add(64 * KiB, [](RunOptions &x) {
        x.l4 = cache_gen_victim(512 * KiB, 64);
    });
    add(64 * KiB, [](RunOptions &x) {
        x.l4 = cache_gen_victim(512 * KiB, 64, /*fully_assoc=*/true);
    });
    add(64 * KiB, [](RunOptions &x) {
        x.l4 = cache_gen_victim(512 * KiB, 64, false,
                                /*victim_fill=*/false);
    });
    // Must not share the default private half.
    for (const uint64_t l3 : {64 * KiB, 256 * KiB})
        add(l3, [](RunOptions &x) {
            x.llcInclusion = InclusionMode::Inclusive;
        });
    add(128 * KiB, [](RunOptions &x) { x.l1Ways = 4; });
    add(128 * KiB, [](RunOptions &x) {
        x.coherence = CoherenceProtocol::MESI;
    });
    for (const uint64_t l3 : {64 * KiB, 256 * KiB})
        add(l3, [](RunOptions &x) { x.modelTlb = true; });
    for (const uint64_t l3 : {64 * KiB, 256 * KiB})
        add(l3, [](RunOptions &x) { x.prefetch = PrefetchConfig::allOn(); });
    add(256 * KiB, [](RunOptions &x) {
        x.cores = 2;
        x.smtWays = 2;
    });
    add(256 * KiB, [](RunOptions &x) { x.cores = 2; });
    return o;
}

TEST(WorkloadSweep, BitIdenticalToSerialRunWorkloadAtAnyThreadCount)
{
    const WorkloadProfile prof = WorkloadProfile::s1Leaf();
    const PlatformConfig plt = smallPlatform();
    const std::vector<RunOptions> options = sweepOptions();

    std::vector<SystemResult> oracle;
    for (const RunOptions &opt : options)
        oracle.push_back(runWorkload(prof, plt, opt));

    for (const uint32_t threads : {1u, 2u, 4u}) {
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
    // The shared halves saw victims, LLC evictions and L4 traffic.
    EXPECT_GT(oracle[0].writebacks, 0u);
    EXPECT_GT(oracle[0].l3Evictions, 0u);
    EXPECT_GT(oracle[9].l3Evictions, 0u); // exclusive: victim fills
    for (const size_t i : {10u, 11u, 12u})
        EXPECT_GT(oracle[i].l4.totalAccesses() - oracle[i].l4.totalMisses(),
                  0u) << "option " << i;
}

TEST(WorkloadSweep, PlannedSweepEqualsPerConfigurationRunPlanned)
{
    const WorkloadProfile prof = WorkloadProfile::s1Leaf();
    const PlatformConfig plt = smallPlatform();
    // One trace group: everything but the last option.
    std::vector<RunOptions> options = sweepOptions();
    options.pop_back();
    const uint64_t total = recordBudget(options[0]).total();
    SyntheticSearchTrace src(prof, options[0].cores);
    const auto trace = BufferedTrace::materialize(src, total);

    SweepControl uniform;
    uniform.policy = SamplingPolicy::kUniform;
    uniform.rep.windowRecords = 10'000;
    uniform.rep.warmupRecords = 5'000;
    uniform.rep.sampleWindows = 3;
    SweepControl every = uniform; // k == N: every window, weight 1
    every.policy = SamplingPolicy::kClustered;
    every.rep.sampleWindows = 9;
    for (SweepControl control : {uniform, every}) {
        const SamplingPlan plan = buildSweepPlan(*trace, total, control);
        ASSERT_TRUE(plan.enabled());
        std::vector<SystemResult> want;
        for (const RunOptions &opt : options) {
            SystemSimulator sim(makeSystemConfig(prof, plt, opt));
            want.push_back(sim.runPlanned(*trace, plan));
        }
        for (const uint32_t threads : {1u, 2u, 4u}) {
            control.threads = threads;
            const std::vector<SystemResult> got =
                runWorkloadSweep(prof, plt, options, control);
            ASSERT_EQ(got.size(), options.size());
            for (size_t i = 0; i < options.size(); ++i) {
                SCOPED_TRACE(std::string(samplingPolicyName(
                                 control.policy)) +
                             " threads=" + std::to_string(threads) +
                             " option=" + std::to_string(i));
                expectSystemEq(got[i], want[i]);
                EXPECT_EQ(got[i].sampledWindows, plan.windows.size());
            }
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
