#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cpu/system.hh"
#include "memsim/simulator.hh"
#include "memsim/sweep.hh"
#include "trace/profile.hh"
#include "trace/synthetic.hh"
#include "util/units.hh"

namespace wsearch {
namespace {

constexpr uint32_t kTraceThreads = 4;

std::shared_ptr<const BufferedTrace>
makeTrace(uint64_t records, size_t chunk)
{
    SyntheticSearchTrace src(WorkloadProfile::s1Leaf(), kTraceThreads);
    return BufferedTrace::materialize(src, records, chunk);
}

/** Every cache, writeback and eviction counter equal. */
void
expectCacheCountersEq(const SimResult &a, const SimResult &b,
                      const char *what)
{
    EXPECT_EQ(a.instructions, b.instructions) << what;
    const CacheLevelStats *as[] = {&a.l1i, &a.l1d, &a.l2, &a.l3, &a.l4};
    const CacheLevelStats *bs[] = {&b.l1i, &b.l1d, &b.l2, &b.l3, &b.l4};
    for (int lvl = 0; lvl < 5; ++lvl) {
        for (uint32_t k = 0; k < kNumAccessKinds; ++k) {
            ASSERT_EQ(as[lvl]->accesses[k], bs[lvl]->accesses[k])
                << what << " level " << lvl << " kind " << k;
            ASSERT_EQ(as[lvl]->misses[k], bs[lvl]->misses[k])
                << what << " level " << lvl << " kind " << k;
        }
        EXPECT_EQ(as[lvl]->prefetchIssued, bs[lvl]->prefetchIssued)
            << what;
        EXPECT_EQ(as[lvl]->prefetchUseful, bs[lvl]->prefetchUseful)
            << what;
    }
    EXPECT_EQ(a.l3Evictions, b.l3Evictions) << what;
    EXPECT_EQ(a.writebacks, b.writebacks) << what;
    EXPECT_EQ(a.backInvalidations, b.backInvalidations) << what;
}

/**
 * The plain hierarchy, and one that moves the counters it leaves at
 * zero: back-invalidations, L4 and prefetches.
 */
std::vector<SystemConfig>
rungConfigs()
{
    SystemConfig plain;
    plain.hierarchy.numCores = 4;
    plain.hierarchy.llc.cache.sizeBytes = 1 * MiB;
    SystemConfig inclusive = plain;
    inclusive.hierarchy.llc = cache_gen_llc_inc(256 * KiB, 64, 8);
    inclusive.hierarchy.l4 = cache_gen_victim(1 * MiB, 64);
    inclusive.hierarchy.prefetch = PrefetchConfig::allOn();
    return {plain, inclusive};
}

/**
 * The cache-only runTrace rung over @p trace against
 * SystemSimulator::run on the same buffer and on a fresh pull source
 * (one unchunked stream): every counter equal. perfbench's
 * memsim.llc_ns_per_rec and cpu.self_ns_per_rec are differences
 * between the rung and the simulator over one buffer, so they mean
 * something only if both replay the same cache work. Returns the rung.
 */
SimResult
expectRungExact(const BufferedTrace &trace, const SystemConfig &cfg,
                uint64_t warmup, uint64_t measure)
{
    CacheHierarchy hier(cfg.hierarchy);
    const SimResult rung = runTrace(trace, hier, warmup, measure);
    EXPECT_EQ(rung.instructions, measure);
    SystemSimulator buffered(cfg);
    expectCacheCountersEq(rung, buffered.run(trace, warmup, measure),
                          "rung vs simulator on the buffer");
    SyntheticSearchTrace src(WorkloadProfile::s1Leaf(), kTraceThreads);
    SystemSimulator pulled(cfg);
    expectCacheCountersEq(rung, pulled.run(src, warmup, measure),
                          "rung vs simulator on a pull source");
    return rung;
}

/** The second rung config's counters move what the first leaves at 0. */
void
expectInclusiveCountersMoved(const SimResult &moved)
{
    EXPECT_GT(moved.backInvalidations, 0u);
    EXPECT_GT(moved.l4.totalAccesses(), 0u);
    EXPECT_GT(moved.l2.prefetchIssued, 0u);
}

TEST(SweepEngine, ChunkBoundaryStraddlingSplitsAreExact)
{
    // Tiny chunks so warmup/measure boundaries land mid-chunk, on a
    // chunk edge, and straddle several chunks.
    const auto trace = makeTrace(10'000, 256);
    ASSERT_GT(trace->numChunks(), 30u);
    const std::vector<SystemConfig> configs = rungConfigs();

    const uint64_t splits[][2] = {
        {0, 10'000},    // no warmup
        {256, 9'744},   // warmup == one chunk exactly
        {255, 513},     // one-off-the-edge warmup, straddling measure
        {1'000, 3'000}, // mid-chunk both
        {9'999, 1},     // measure is the final record
        {512, 9'488},   // edge-aligned warmup, tail measure
    };
    SimResult moved; // the inclusive hierarchy's counters, summed
    for (const auto &s : splits) {
        for (size_t i = 0; i < configs.size(); ++i) {
            SCOPED_TRACE("warmup=" + std::to_string(s[0]) +
                         " measure=" + std::to_string(s[1]) +
                         " config=" + std::to_string(i));
            const SimResult rung =
                expectRungExact(*trace, configs[i], s[0], s[1]);
            if (i == 1)
                moved += rung;
        }
    }
    expectInclusiveCountersMoved(moved);
}

TEST(SweepEngine, ChunkGranularityDoesNotChangeResults)
{
    const std::vector<SystemConfig> configs = rungConfigs();
    SimResult moved; // the inclusive hierarchy's counters, summed
    for (const size_t chunk : {64u, 1'000u, 8'192u, 1u << 16}) {
        const auto trace = makeTrace(20'000, chunk);
        for (size_t i = 0; i < configs.size(); ++i) {
            SCOPED_TRACE("chunk=" + std::to_string(chunk) +
                         " config=" + std::to_string(i));
            const SimResult rung =
                expectRungExact(*trace, configs[i], 7'000, 13'000);
            if (i == 1)
                moved += rung;
        }
    }
    expectInclusiveCountersMoved(moved);
}

TEST(SweepEngine, RunParallelJobsCoversEveryIndexOnce)
{
    for (const uint32_t threads : {0u, 1u, 3u, 16u}) {
        std::vector<std::atomic<int>> hits(257);
        for (auto &h : hits)
            h.store(0);
        runParallelJobs(hits.size(), threads,
                        [&](size_t i) { hits[i].fetch_add(1); });
        for (size_t i = 0; i < hits.size(); ++i)
            ASSERT_EQ(hits[i].load(), 1) << "threads " << threads
                                         << " index " << i;
    }
}

TEST(SweepEngine, ContiguousPlanReplaysWarmupThenOneExactWindow)
{
    for (const uint64_t warmup : {0u, 300u}) {
        SCOPED_TRACE("warmup=" + std::to_string(warmup));
        const SamplingPlan plan = contiguousPlan(warmup, 700);
        EXPECT_EQ(plan.policy, SamplingPolicy::kOff);
        std::vector<std::string> calls;
        const SimResult res = replayPlan<SimResult>(
            plan,
            [&](uint64_t begin, uint64_t count) {
                calls.push_back("replay " + std::to_string(begin) + "+" +
                                std::to_string(count));
                return count;
            },
            [&] { calls.push_back("reset"); },
            [&](uint64_t instructions) {
                calls.push_back("harvest " + std::to_string(instructions));
                SimResult win;
                win.instructions = instructions;
                win.l3.record(AccessKind::Heap, /*miss=*/true);
                return win;
            });
        std::vector<std::string> want;
        if (warmup)
            want.push_back("replay 0+300");
        want.insert(want.end(),
                    {"reset", "replay " + std::to_string(warmup) + "+700",
                     "harvest 700"});
        EXPECT_EQ(calls, want);
        EXPECT_EQ(res.instructions, 700u);
        EXPECT_EQ(res.l3.totalMisses(), 1u);
        // Exact: no window accounting, and no band even though a
        // sampled plan's floor would give these misses one.
        EXPECT_EQ(res.sampledWindows, 0u);
        EXPECT_EQ(res.representedWindows, 0u);
        EXPECT_EQ(res.l3MissVar, 0.0);
    }
}

TEST(SweepEngine, SimThreadsIgnoresEnvironment)
{
    ::setenv("WSEARCH_SIM_THREADS", "7", 1);
    const uint32_t got = simThreads();
    ::unsetenv("WSEARCH_SIM_THREADS");
    EXPECT_EQ(got, std::max(1u, std::thread::hardware_concurrency()));
}

} // namespace
} // namespace wsearch
