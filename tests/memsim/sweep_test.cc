#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <thread>

#include "memsim/sweep.hh"
#include "trace/profile.hh"
#include "trace/synthetic.hh"
#include "util/units.hh"

namespace wsearch {
namespace {

constexpr uint64_t kRecords = 120'000;
constexpr uint32_t kTraceThreads = 4;

std::shared_ptr<const BufferedTrace>
makeTrace(uint64_t records = kRecords,
          size_t chunk = BufferedTrace::kDefaultChunkRecords)
{
    SyntheticSearchTrace src(WorkloadProfile::s1Leaf(), kTraceThreads);
    return BufferedTrace::materialize(src, records, chunk);
}

std::vector<HierarchySpec>
sweepConfigs()
{
    std::vector<HierarchySpec> configs;
    for (const uint64_t l3 : {1 * MiB, 4 * MiB, 16 * MiB}) {
        HierarchySpec h;
        h.numCores = 4;
        h.llc.cache.sizeBytes = l3;
        h.llc.cache.ways = 16;
        configs.push_back(h);
    }
    {
        HierarchySpec h;
        h.numCores = 4;
        h.l4 = cache_gen_victim(8 * MiB, 64);
        configs.push_back(h);
    }
    {
        HierarchySpec h;
        h.numCores = 2;
        h.smtWays = 2;
        h.llc.inclusion = InclusionMode::Inclusive;
        configs.push_back(h);
    }
    return configs;
}

void
expectSimEq(const SimResult &a, const SimResult &b, const char *what)
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
    EXPECT_EQ(a.cohUpgrades, b.cohUpgrades) << what;
    EXPECT_EQ(a.cohInvalidations, b.cohInvalidations) << what;
    EXPECT_EQ(a.cohDirtyWritebacks, b.cohDirtyWritebacks) << what;
}

/** Serial oracle: fresh source, classic virtual-dispatch runTrace. */
SimResult
serialOracle(const HierarchySpec &cfg, uint64_t warmup,
             uint64_t measure)
{
    SyntheticSearchTrace src(WorkloadProfile::s1Leaf(), kTraceThreads);
    CacheHierarchy hier(cfg);
    return runTrace(src, hier, warmup, measure);
}

TEST(SweepEngine, ParallelSweepBitIdenticalToSerialRunTrace)
{
    const auto trace = makeTrace();
    const std::vector<HierarchySpec> configs = sweepConfigs();
    const uint64_t warmup = 40'000, measure = 80'000;

    std::vector<SimResult> oracle;
    for (const HierarchySpec &cfg : configs)
        oracle.push_back(serialOracle(cfg, warmup, measure));

    for (const uint32_t threads : {1u, 2u, 4u, 8u}) {
        SweepControl control;
        control.threads = threads;
        const std::vector<SimResult> got =
            sweepHierarchies(*trace, configs, warmup, measure, control);
        ASSERT_EQ(got.size(), configs.size());
        for (size_t i = 0; i < configs.size(); ++i) {
            SCOPED_TRACE("threads=" + std::to_string(threads) +
                         " config=" + std::to_string(i));
            expectSimEq(got[i], oracle[i], "sweep vs serial");
            EXPECT_EQ(got[i].sampledWindows, 0u);
        }
    }
}

TEST(SweepEngine, ChunkBoundaryStraddlingSplitsAreExact)
{
    // Tiny chunks so warmup/measure boundaries land mid-chunk, on a
    // chunk edge, and straddle several chunks.
    const auto trace = makeTrace(10'000, 256);
    ASSERT_GT(trace->numChunks(), 30u);
    HierarchySpec cfg;
    cfg.numCores = 4;
    cfg.llc.cache.sizeBytes = 1 * MiB;

    const uint64_t splits[][2] = {
        {0, 10'000},   // no warmup
        {256, 9'744},  // warmup == one chunk exactly
        {255, 513},    // one-off-the-edge warmup, straddling measure
        {1'000, 3'000}, // mid-chunk both
        {9'999, 1},    // measure is the final record
        {512, 9'488},  // edge-aligned warmup, tail measure
    };
    for (const auto &s : splits) {
        CacheHierarchy chunked(cfg);
        const SimResult got =
            runTrace(*trace, chunked, s[0], s[1]);
        const SimResult want = serialOracle(cfg, s[0], s[1]);
        SCOPED_TRACE("warmup=" + std::to_string(s[0]) +
                     " measure=" + std::to_string(s[1]));
        expectSimEq(got, want, "chunked vs serial");
    }
}

TEST(SweepEngine, ChunkGranularityDoesNotChangeResults)
{
    HierarchySpec cfg;
    cfg.numCores = 4;
    const SimResult want = serialOracle(cfg, 7'000, 13'000);
    for (const size_t chunk : {64u, 1'000u, 8'192u, 1u << 16}) {
        const auto trace = makeTrace(20'000, chunk);
        CacheHierarchy hier(cfg);
        const SimResult got = runTrace(*trace, hier, 7'000, 13'000);
        SCOPED_TRACE("chunk=" + std::to_string(chunk));
        expectSimEq(got, want, "chunk granularity");
    }
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

TEST(SweepEngine, SimThreadsIgnoresEnvironment)
{
    ::setenv("WSEARCH_SIM_THREADS", "7", 1);
    const uint32_t got = simThreads();
    ::unsetenv("WSEARCH_SIM_THREADS");
    EXPECT_EQ(got, std::max(1u, std::thread::hardware_concurrency()));
}

} // namespace
} // namespace wsearch
