#include <gtest/gtest.h>

#include <bit>
#include <string>

#include "cpu/system.hh"
#include "trace/synthetic.hh"

namespace wsearch {
namespace {

WorkloadProfile
tinyProfile()
{
    WorkloadProfile p = WorkloadProfile::s1Leaf();
    p.code.footprintBytes = 128 * KiB;
    p.heapWorkingSetBytes = 4 * MiB;
    p.shardSpanBytes = 256 * MiB;
    return p;
}

SystemConfig
smallSystem(uint32_t cores = 1)
{
    SystemConfig s;
    s.hierarchy.numCores = cores;
    s.hierarchy.l1i = cache_gen_l1(8 * KiB, 64, 4);
    s.hierarchy.l1d = cache_gen_l1(8 * KiB, 64, 4);
    s.hierarchy.l2 = cache_gen_l2(64 * KiB, 64, 8);
    s.hierarchy.llc = cache_gen_llc(1 * MiB, 64, 8);
    return s;
}

TEST(System, ProducesSaneMetrics)
{
    SyntheticSearchTrace trace(tinyProfile(), 1);
    SystemSimulator sim(smallSystem());
    const SystemResult r = sim.run(trace, 100000, 400000);
    EXPECT_EQ(r.instructions, 400000u);
    EXPECT_GT(r.ipcPerThread, 0.1);
    EXPECT_LT(r.ipcPerThread, 4.0);
    EXPECT_GT(r.branches, 0u);
    EXPECT_GT(r.mispredicts, 0u);
    EXPECT_LE(r.mispredicts, r.branches);
    EXPECT_GT(r.l2InstrMpki(), 0.0);
    EXPECT_GT(r.amatL3Ns, 0.0);
}

TEST(System, TopDownFractionsSumToOne)
{
    SyntheticSearchTrace trace(tinyProfile(), 1);
    SystemSimulator sim(smallSystem());
    const SystemResult r = sim.run(trace, 50000, 200000);
    const TopDown &td = r.topdown;
    EXPECT_NEAR(td.retiringFrac() + td.badSpecFrac() + td.feLatFrac() +
                    td.feBwFrac() + td.beMemFrac() + td.beCoreFrac(),
                1.0, 1e-9);
    // The tiny test hierarchy thrashes badly, so retiring is low, but
    // it must stay a visible share of the slot budget.
    EXPECT_GT(td.retiringFrac(), 0.01);
    EXPECT_LT(td.retiringFrac(), 0.95);
}

TEST(System, BiggerL3ImprovesIpc)
{
    auto ipc_with_l3 = [](uint64_t l3) {
        SyntheticSearchTrace trace(tinyProfile(), 1);
        SystemConfig cfg = smallSystem();
        cfg.hierarchy.llc = cache_gen_llc(l3, 64, 8);
        SystemSimulator sim(cfg);
        return sim.run(trace, 200000, 600000).ipcPerThread;
    };
    EXPECT_GT(ipc_with_l3(8 * MiB), ipc_with_l3(256 * KiB));
}

TEST(System, L4ReducesAmat)
{
    auto amat_with = [](bool l4) {
        WorkloadProfile p = tinyProfile();
        p.heapHotFrac = 0.4;
        p.heapWarmFrac = 0.1; // plenty of shared-heap reuse beyond L3
        p.heapWorkingSetBytes = 2 * MiB;
        SyntheticSearchTrace trace(p, 1);
        SystemConfig cfg = smallSystem();
        if (l4)
            cfg.hierarchy.l4 = cache_gen_victim(8 * MiB, 64);
        SystemSimulator sim(cfg);
        return sim.run(trace, 400000, 800000).amatL3Ns;
    };
    EXPECT_LT(amat_with(true), amat_with(false));
}

TEST(System, TlbWalksCountedWhenModeled)
{
    SyntheticSearchTrace trace(tinyProfile(), 1);
    SystemConfig cfg = smallSystem();
    cfg.modelTlb = true;
    SystemSimulator sim(cfg);
    const SystemResult r = sim.run(trace, 50000, 200000);
    EXPECT_GT(r.dtlbAccesses, 0u);
    EXPECT_GT(r.dtlbWalks, 0u);
}

TEST(System, HugePagesImprovePerf)
{
    auto ipc_with = [](const TlbConfig &tlb) {
        WorkloadProfile p = tinyProfile();
        p.heapWorkingSetBytes = 64 * MiB; // TLB-hostile at 4 KiB pages
        SyntheticSearchTrace trace(p, 1);
        SystemConfig cfg = smallSystem();
        cfg.modelTlb = true;
        cfg.dtlb = tlb;
        SystemSimulator sim(cfg);
        return sim.run(trace, 200000, 600000).ipcPerThread;
    };
    EXPECT_GT(ipc_with(TlbConfig::huge2M()), ipc_with(TlbConfig{}));
}

TEST(System, MultiCoreSplitsThreads)
{
    SyntheticSearchTrace trace(tinyProfile(), 4);
    SystemConfig cfg = smallSystem(4);
    SystemSimulator sim(cfg);
    const SystemResult r = sim.run(trace, 100000, 400000);
    EXPECT_EQ(r.instructions, 400000u);
    EXPECT_GT(r.ipcPerThread, 0.1);
}

TEST(System, SmtContentionRaisesMissRates)
{
    // Two threads sharing one core's L1/L2 must miss more (per
    // instruction) than two threads on two cores.
    auto l2_mpki = [](uint32_t cores, uint32_t smt) {
        SyntheticSearchTrace trace(tinyProfile(), 2);
        SystemConfig cfg = smallSystem(cores);
        cfg.hierarchy.smtWays = smt;
        SystemSimulator sim(cfg);
        const SystemResult r = sim.run(trace, 200000, 600000);
        return r.l2.mpkiTotal(r.instructions);
    };
    EXPECT_GT(l2_mpki(1, 2), l2_mpki(2, 1));
}

TEST(System, DeterministicAcrossRuns)
{
    auto run_once = []() {
        SyntheticSearchTrace trace(tinyProfile(), 2);
        SystemSimulator sim(smallSystem(2));
        return sim.run(trace, 50000, 200000);
    };
    const SystemResult a = run_once();
    const SystemResult b = run_once();
    EXPECT_EQ(a.mispredicts, b.mispredicts);
    EXPECT_EQ(a.l3.totalMisses(), b.l3.totalMisses());
    EXPECT_DOUBLE_EQ(a.ipcPerThread, b.ipcPerThread);
}

/** Bit pattern of a double, so equality means bit-identical. */
uint64_t
bits(double v)
{
    return std::bit_cast<uint64_t>(v);
}

/** Every counter equal; TopDown slots, IPC and AMAT bit for bit. */
void
expectSystemIdentical(const SystemResult &a, const SystemResult &b)
{
    EXPECT_EQ(a.instructions, b.instructions);
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
    EXPECT_EQ(a.branches, b.branches);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
    EXPECT_EQ(a.dtlbAccesses, b.dtlbAccesses);
    EXPECT_EQ(a.dtlbWalks, b.dtlbWalks);
    EXPECT_EQ(a.itlbWalks, b.itlbWalks);
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
 * Two cores with TLBs on, so every component's counters move. Every
 * slot charge is a small dyadic rational, so the Top-Down sums are
 * exact in any grouping: a run split into windows and merged can then
 * be compared with the contiguous run bit for bit. (With the default
 * charges, such as a 0.095 exposure, regrouping the floating-point
 * sums at window boundaries moves their last bits.)
 */
SystemConfig
loopConfig()
{
    SystemConfig cfg = smallSystem(2);
    cfg.modelTlb = true;
    CoreModelParams &core = cfg.core;
    core.l2HitNs = 4.0;
    core.l3HitNs = 24.0;
    core.l4HitNs = 40.0;
    core.memNs = 124.0;
    core.feExposure = 0.125;
    core.tlbWalkNs = 40.0;
    core.tlbWalkExposure = 0.5;
    core.tweaks.postL2Exposure = 0.25;
    core.tweaks.l2Exposure = 0.0625;
    core.tweaks.feBwSlotsPerInstr = 0.25;
    core.tweaks.beCoreSlotsPerInstr = 0.25;
    return cfg;
}

TEST(System, PlannedReplayWithEveryWindowEqualsContiguousRun)
{
    constexpr uint64_t kWin = 1'000, kWindows = 40;
    constexpr uint64_t kTotal = kWin * kWindows;
    SyntheticSearchTrace src(tinyProfile(), 2);
    const auto trace = BufferedTrace::materialize(src, kTotal);

    SystemSimulator exact_sim(loopConfig());
    const SystemResult exact = exact_sim.run(*trace, 0, kTotal);

    RepresentativeSampling rep;
    rep.windowRecords = kWin;
    rep.warmupRecords = kWin / 2;
    rep.sampleWindows = kWindows; // k == N: every window, weight 1
    for (const SamplingPlan &plan :
         {buildClusteredPlan(*trace, kTotal, rep),
          buildUniformPlan(kTotal, rep)}) {
        SCOPED_TRACE(samplingPolicyName(plan.policy));
        ASSERT_EQ(plan.windows.size(), kWindows);
        SystemSimulator sim(loopConfig());
        const SystemResult got = sim.runPlanned(*trace, plan);
        expectSystemIdentical(got, exact);
        EXPECT_EQ(got.sampledWindows, kWindows);
        EXPECT_EQ(got.representedWindows, kWindows);
    }
}

TEST(System, SamePrivateHalfIgnoresOnlyTheSharedLevelsAndCore)
{
    const SystemConfig base = smallSystem(2);
    auto with = [&](auto &&change) {
        SystemConfig c = base;
        change(c);
        return samePrivateHalf(base, c);
    };
    EXPECT_TRUE(with([](SystemConfig &c) {
        c.hierarchy.llc = cache_gen_llc_exc(4 * MiB, 64, 16,
                                            ReplPolicy::SRRIP);
    }));
    EXPECT_TRUE(with([](SystemConfig &c) {
        c.hierarchy.l4 = cache_gen_victim(8 * MiB, 64);
    }));
    EXPECT_TRUE(with([](SystemConfig &c) { c.hierarchy.hasLlc = false; }));
    EXPECT_TRUE(with([](SystemConfig &c) { c.core.memNs = 200; }));
    EXPECT_FALSE(with([](SystemConfig &c) { c.hierarchy.smtWays = 2; }));
    EXPECT_FALSE(with([](SystemConfig &c) {
        c.hierarchy.l1i.cache.ways = 2;
    }));
    EXPECT_FALSE(with([](SystemConfig &c) {
        c.hierarchy.l2InstrPartitionWays = 2;
    }));
    EXPECT_FALSE(with([](SystemConfig &c) {
        c.hierarchy.prefetch = PrefetchConfig::allOn();
    }));
    EXPECT_FALSE(with([](SystemConfig &c) { c.modelTlb = true; }));
    EXPECT_FALSE(with([](SystemConfig &c) {
        c.dtlb = TlbConfig::huge2M();
    }));
}

TEST(System, SharedHalfOverARecordingEqualsTheFullRun)
{
    // One private pass, then shared passes for LLCs of every inclusion
    // mode that allows it, with and without a planned window split.
    constexpr uint64_t kTotal = 40'000;
    SyntheticSearchTrace src(tinyProfile(), 2);
    const auto trace = BufferedTrace::materialize(src, kTotal);
    RepresentativeSampling rep;
    rep.windowRecords = 4'000;
    rep.warmupRecords = 2'000;
    rep.sampleWindows = 3;
    const SamplingPlan plan = buildUniformPlan(kTotal, rep);
    const SystemConfig base = loopConfig();
    std::vector<SystemConfig> shared_variants(3, base);
    shared_variants[1].hierarchy.llc =
        cache_gen_llc_exc(256 * KiB, 64, 8);
    shared_variants[2].hierarchy.l4 = cache_gen_victim(2 * MiB, 64);
    for (const bool planned : {false, true}) {
        const SamplingPlan p =
            planned ? plan : contiguousPlan(10'000, 30'000);
        const PrivateRecording rec = recordPrivateHalf(base, *trace, p);
        for (size_t v = 0; v < shared_variants.size(); ++v) {
            SCOPED_TRACE("planned=" + std::to_string(planned) +
                         " variant=" + std::to_string(v));
            SystemSimulator sim(shared_variants[v]);
            const SystemResult want = planned
                ? sim.runPlanned(*trace, plan)
                : sim.run(*trace, 10'000, 30'000);
            expectSystemIdentical(
                replaySharedHalf(shared_variants[v], rec, p), want);
        }
    }
}

TEST(System, PullPathEqualsBufferedPathAcrossChunkAndStagingEdges)
{
    // Warmup/measure splits on both sides of the pull path's staging
    // buffer, against buffers whose chunks are smaller than, one
    // short of, and one past that buffer.
    const uint64_t s = kStagingRecords;
    const uint64_t splits[][2] = {
        {0, 2 * s + 3}, {s - 1, s + 1}, {s, s}, {s + 1, s - 1},
        {2 * s + 1, 100},
    };
    for (const size_t chunk : {256u, 8'191u, 8'193u}) {
        SyntheticSearchTrace src(tinyProfile(), 2);
        const auto trace =
            BufferedTrace::materialize(src, 2 * s + 200, chunk);
        for (const auto &split : splits) {
            SCOPED_TRACE("chunk=" + std::to_string(chunk) +
                         " warmup=" + std::to_string(split[0]) +
                         " measure=" + std::to_string(split[1]));
            SyntheticSearchTrace pull(tinyProfile(), 2);
            SystemSimulator pull_sim(loopConfig());
            const SystemResult want =
                pull_sim.run(pull, split[0], split[1]);
            SystemSimulator buffered_sim(loopConfig());
            expectSystemIdentical(
                buffered_sim.run(*trace, split[0], split[1]), want);
        }
    }
}

/** No window accounting and a zero band, to the bit. */
void
expectExact(const SystemResult &r)
{
    EXPECT_EQ(r.sampledWindows, 0u);
    EXPECT_EQ(r.representedWindows, 0u);
    EXPECT_EQ(bits(r.l3MissVar), bits(0.0));
}

TEST(System, ExactRunsCarryNoSamplingMarks)
{
    // Exact runs go through the same window loop as sampled ones, as
    // a one-window kOff plan: nothing but that policy keeps the
    // sampled marks, the floor variance included, off them.
    SyntheticSearchTrace pull(tinyProfile(), 2);
    SystemSimulator pull_sim(smallSystem(2));
    const SystemResult from_pull = pull_sim.run(pull, 5'000, 20'000);
    EXPECT_GT(from_pull.l3.totalMisses(), 0u);
    expectExact(from_pull);

    SyntheticSearchTrace src(tinyProfile(), 2);
    const auto trace = BufferedTrace::materialize(src, 25'000);
    SystemSimulator buffered_sim(smallSystem(2));
    expectExact(buffered_sim.run(*trace, 5'000, 20'000));
    const SamplingPlan exact = contiguousPlan(5'000, 20'000);
    SystemSimulator planned_sim(smallSystem(2));
    expectExact(planned_sim.runPlanned(*trace, exact));
    expectExact(replaySharedHalf(
        smallSystem(2), recordPrivateHalf(smallSystem(2), *trace, exact),
        exact));
}

TEST(ChunkedLogDeathTest, ReadingPastTheEndDies)
{
    ChunkedLog<uint32_t> empty;
    ChunkedLog<uint32_t>::Reader none(empty);
    EXPECT_TRUE(none.done());
    EXPECT_DEATH(none.next(), "chunk_ < chunks_.size");

    ChunkedLog<uint32_t> log;
    for (uint32_t i = 0; i < 3; ++i)
        log.push(i);
    ChunkedLog<uint32_t>::Reader r(log);
    for (uint32_t i = 0; i < 3; ++i)
        EXPECT_EQ(r.next(), i);
    EXPECT_TRUE(r.done());
    EXPECT_DEATH(r.next(), "chunk_ < chunks_.size");
}

} // namespace
} // namespace wsearch
