/**
 * @file
 * Statistical test suite for clustered representative-interval
 * sampling (memsim/sweep.hh + trace/signature.hh), replayed through
 * SystemSimulator. The load-bearing claims, each proven against a
 * full-replay oracle on seeded phase-shifting synthetic traces:
 *
 *   1. Clustered sampling's estimate lands within its own reported
 *      confidence band of the oracle.
 *   2. At an equal simulated-record budget, clustered sampling beats
 *      uniform sampling's error on phase-irregular traces (uniform
 *      aliases against irregular phase placement; clustering recovers
 *      the exact phase weights).
 *   3. Cluster weights always sum to the total window count, and a
 *      plan selecting every window reconstructs the oracle counters
 *      bit-identically through the same weight-merge path.
 *   4. The two-pass replay (signature pass, then simulate pass) never
 *      perturbs the buffer, and window signatures are invariant to
 *      chunk granularity (windows straddling chunk edges included).
 *   5. sampledWindows / representedWindows / l3MissVar survive
 *      SimResult::operator+= merges, and a planned runWorkloadSweep
 *      reports them identically at any thread count.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <memory>
#include <vector>

#include "core/experiments.hh"
#include "memsim/sweep.hh"
#include "trace/signature.hh"
#include "util/rng.hh"
#include "util/units.hh"

namespace wsearch {
namespace {

constexpr uint64_t kWin = 2'000;   ///< records per window
constexpr uint64_t kNumWin = 60;   ///< windows per trace
constexpr uint64_t kTotal = kWin * kNumWin;

/**
 * Two-phase schedule with irregular streaming placement, sized so the
 * 4-window uniform plan (picks windows 0/15/30/45) systematically
 * over-samples the streaming phase: 12/60 windows stream, but 1/4 of
 * the uniform picks do.
 */
std::vector<bool>
fixedSchedule()
{
    std::vector<bool> s(kNumWin, false);
    for (const uint64_t w :
         {3u, 7u, 8u, 13u, 21u, 22u, 30u, 37u, 44u, 50u, 51u, 58u})
        s[w] = true;
    return s;
}

/** Seeded phase-shifting schedule: ~20% streaming windows. */
std::vector<bool>
seededSchedule(uint64_t seed)
{
    std::vector<bool> s(kNumWin);
    for (uint64_t w = 0; w < kNumWin; ++w)
        s[w] = mix64(w * 0x9e3779b97f4a7c15ull ^ seed) % 5 == 0;
    return s;
}

/**
 * Deterministic two-phase trace. Each window's miss behaviour is
 * history-independent by construction, which makes the full-replay
 * oracle analytically predictable:
 *   - resident windows loop 4x over 512 fresh-per-window heap blocks
 *     (~512 compulsory LLC misses per window, then in-cache reuse);
 *   - streaming windows scan never-revisited shard blocks (one LLC
 *     miss per record).
 * The phases also differ in code footprint, store fraction, and
 * branch-direction entropy, so the signature pass separates them.
 */
class PhaseTrace : public TraceSource
{
  public:
    explicit PhaseTrace(std::vector<bool> streaming,
                        uint64_t window = kWin)
        : streaming_(std::move(streaming)), window_(window)
    {
    }

    size_t
    fill(TraceRecord *buf, size_t max) override
    {
        const uint64_t total = streaming_.size() * window_;
        size_t n = 0;
        while (n < max && pos_ < total)
            buf[n++] = make(pos_++);
        return n;
    }

    void reset() override { pos_ = 0; }

  private:
    TraceRecord
    make(uint64_t pos) const
    {
        const uint64_t w = pos / window_;
        const uint64_t j = pos % window_;
        const uint64_t h = mix64(pos + 1);
        TraceRecord r;
        r.tid = 0;
        if (streaming_[w]) {
            r.pc = vaddr::kCodeBase + 0x4000 + (j % 512) * 4;
            r.op = MemOp::Load;
            r.kind = AccessKind::Shard;
            r.addr = vaddr::kShardBase + pos * 64;
            if (j % 4 == 0)
                r.branch = BranchKind::Taken;
        } else {
            r.pc = vaddr::kCodeBase + (j % 128) * 4;
            r.op = h % 4 == 0 ? MemOp::Store : MemOp::Load;
            r.kind = AccessKind::Heap;
            r.addr = vaddr::kHeapBase + (w * 512 + j % 512) * 64;
            if (j % 4 == 0)
                r.branch = h & 8 ? BranchKind::Taken
                                 : BranchKind::NotTaken;
        }
        return r;
    }

    std::vector<bool> streaming_;
    uint64_t window_;
    uint64_t pos_ = 0;
};

std::shared_ptr<const BufferedTrace>
makePhaseTrace(const std::vector<bool> &schedule,
               size_t chunk = BufferedTrace::kDefaultChunkRecords)
{
    PhaseTrace src(schedule);
    return BufferedTrace::materialize(src, kTotal, chunk);
}

SystemConfig
testConfig()
{
    SystemConfig cfg;
    cfg.hierarchy.numCores = 1;
    cfg.hierarchy.llc.cache.sizeBytes = 1 * MiB;
    return cfg;
}

RepresentativeSampling
testRep(uint32_t sample_windows = 4, uint64_t seed = 7)
{
    RepresentativeSampling rep;
    rep.windowRecords = kWin;
    rep.warmupRecords = kWin / 2;
    rep.sampleWindows = sample_windows;
    rep.seed = seed;
    return rep;
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
    }
    EXPECT_EQ(a.l3Evictions, b.l3Evictions) << what;
    EXPECT_EQ(a.writebacks, b.writebacks) << what;
    EXPECT_EQ(a.backInvalidations, b.backInvalidations) << what;
}

SimResult
fullReplayOracle(const BufferedTrace &trace)
{
    SystemSimulator sim(testConfig());
    return sim.run(trace, 0, trace.size());
}

// ---------------------------------------------------------------------
// Signature extraction separates the phases.

TEST(Signatures, SeparatePhasesAndRespectWindowGeometry)
{
    const auto trace = makePhaseTrace(fixedSchedule());
    const std::vector<WindowSignature> sigs =
        extractWindowSignatures(*trace, kTotal, kWin);
    ASSERT_EQ(sigs.size(), kNumWin);
    const std::vector<bool> schedule = fixedSchedule();
    for (size_t w = 0; w < sigs.size(); ++w) {
        SCOPED_TRACE("window " + std::to_string(w));
        EXPECT_EQ(sigs[w].begin, w * kWin);
        EXPECT_EQ(sigs[w].records, kWin);
        const uint64_t shard = sigs[w].dataAccesses[
            static_cast<uint32_t>(AccessKind::Shard)];
        const uint64_t heap = sigs[w].dataAccesses[
            static_cast<uint32_t>(AccessKind::Heap)];
        if (schedule[w]) {
            EXPECT_EQ(shard, kWin);
            EXPECT_EQ(heap, 0u);
            EXPECT_EQ(sigs[w].stores, 0u);
            EXPECT_NEAR(sigs[w].branchEntropy(), 0.0, 1e-9);
            // ~2000 distinct streamed blocks vs ~512 resident ones.
            EXPECT_GT(sigs[w].shardFootprint, 1'500.0);
        } else {
            EXPECT_EQ(heap, kWin);
            EXPECT_EQ(shard, 0u);
            EXPECT_GT(sigs[w].stores, kWin / 8);
            EXPECT_GT(sigs[w].branchEntropy(), 0.9);
            EXPECT_NEAR(sigs[w].heapFootprint, 512.0, 160.0);
        }
    }
}

// ---------------------------------------------------------------------
// Tentpole claim 1: the clustered estimate covers the oracle with its
// own reported band -- on the fixed schedule and across schedule and
// clustering seeds.

TEST(ClusteredSampling, OracleInsideReportedBand)
{
    const auto trace = makePhaseTrace(fixedSchedule());
    const SimResult oracle = fullReplayOracle(*trace);
    const SamplingPlan plan =
        buildClusteredPlan(*trace, kTotal, testRep());
    ASSERT_TRUE(plan.enabled());

    SystemSimulator sim(testConfig());
    const SimResult got = sim.runPlanned(*trace, plan);
    EXPECT_GT(got.sampledWindows, 0u);
    EXPECT_LE(got.sampledWindows, 4u);
    EXPECT_EQ(got.representedWindows, kNumWin);
    EXPECT_GT(got.l3MissVar, 0.0);

    const double o = static_cast<double>(oracle.l3.totalMisses());
    EXPECT_GE(o, got.l3MissBandLo())
        << "band " << got.l3MissBandLo() << ".." << got.l3MissBandHi();
    EXPECT_LE(o, got.l3MissBandHi())
        << "band " << got.l3MissBandLo() << ".." << got.l3MissBandHi();
}

TEST(ClusteredSampling, BandCoversOracleAcrossSeeds)
{
    for (const uint64_t sched_seed : {11ull, 29ull, 71ull}) {
        const auto trace = makePhaseTrace(seededSchedule(sched_seed));
        const SimResult oracle = fullReplayOracle(*trace);
        for (const uint64_t kmeans_seed : {1ull, 2ull, 3ull}) {
            SCOPED_TRACE("schedule seed " +
                         std::to_string(sched_seed) + " kmeans seed " +
                         std::to_string(kmeans_seed));
            const SamplingPlan plan = buildClusteredPlan(
                *trace, kTotal, testRep(4, kmeans_seed));
            SystemSimulator sim(testConfig());
            const SimResult got = sim.runPlanned(*trace, plan);
            const double o =
                static_cast<double>(oracle.l3.totalMisses());
            EXPECT_GE(o, got.l3MissBandLo());
            EXPECT_LE(o, got.l3MissBandHi());
        }
    }
}

// ---------------------------------------------------------------------
// Tentpole claim 2: clustered beats uniform at an equal
// simulated-record budget on the phase-irregular schedule.

TEST(ClusteredSampling, BeatsUniformAtEqualBudget)
{
    const auto trace = makePhaseTrace(fixedSchedule());
    const SimResult oracle = fullReplayOracle(*trace);
    const RepresentativeSampling rep = testRep();

    const SamplingPlan clustered =
        buildClusteredPlan(*trace, kTotal, rep);
    const SamplingPlan uniform = buildUniformPlan(kTotal, rep);

    // Equal knobs => equal measured-record budget.
    uint64_t measuredC = 0, measuredU = 0;
    for (const SampleWindow &w : clustered.windows)
        measuredC += w.records;
    for (const SampleWindow &w : uniform.windows)
        measuredU += w.records;
    EXPECT_EQ(measuredC, measuredU);

    SystemSimulator csim(testConfig());
    const SimResult gc = csim.runPlanned(*trace, clustered);
    SystemSimulator usim(testConfig());
    const SimResult gu = usim.runPlanned(*trace, uniform);

    const double o = static_cast<double>(oracle.l3.totalMisses());
    const double errC =
        std::abs(static_cast<double>(gc.l3.totalMisses()) - o);
    const double errU =
        std::abs(static_cast<double>(gu.l3.totalMisses()) - o);
    EXPECT_LT(errC, errU)
        << "clustered err " << errC << " vs uniform err " << errU
        << " (oracle " << o << ")";
    // And not by a hair: the uniform plan aliases against the phase
    // schedule while clustering recovers the exact phase weights.
    EXPECT_LT(errC, errU / 2);
}

// ---------------------------------------------------------------------
// Tentpole claim 3 / properties: weights partition the window count;
// full selection reconstructs the oracle bit-identically.

TEST(SamplingPlans, WeightsSumToTotalWindowCount)
{
    const auto trace = makePhaseTrace(seededSchedule(5));
    for (const uint32_t k : {1u, 2u, 4u, 7u, 13u, 60u, 96u}) {
        for (const uint64_t window : {kWin, kWin - 257, kWin + 393}) {
            SCOPED_TRACE("k=" + std::to_string(k) +
                         " window=" + std::to_string(window));
            RepresentativeSampling rep;
            rep.windowRecords = window;
            rep.warmupRecords = window / 2;
            rep.sampleWindows = k;
            rep.seed = 3;
            const uint64_t total_windows =
                (kTotal + window - 1) / window;

            for (const SamplingPlan &plan :
                 {buildClusteredPlan(*trace, kTotal, rep),
                  buildUniformPlan(kTotal, rep)}) {
                ASSERT_TRUE(plan.enabled());
                EXPECT_EQ(plan.totalWindows, total_windows);
                uint64_t weight_sum = 0;
                uint64_t prev_begin = 0;
                for (size_t i = 0; i < plan.windows.size(); ++i) {
                    weight_sum += plan.windows[i].weight;
                    if (i > 0) { // sorted, distinct
                        EXPECT_GT(plan.windows[i].begin, prev_begin);
                    }
                    prev_begin = plan.windows[i].begin;
                    EXPECT_EQ(plan.windows[i].begin % window, 0u);
                }
                EXPECT_EQ(weight_sum, total_windows);
                EXPECT_LE(plan.windows.size(),
                          std::min<uint64_t>(k, total_windows));
            }
        }
    }
}

TEST(SamplingPlans, FullSelectionReconstructsOracleBitIdentically)
{
    const auto trace = makePhaseTrace(fixedSchedule());
    const SimResult oracle = fullReplayOracle(*trace);

    // k >= N: every window selected with weight 1.
    const SamplingPlan plan = buildClusteredPlan(
        *trace, kTotal, testRep(static_cast<uint32_t>(kNumWin)));
    ASSERT_EQ(plan.windows.size(), kNumWin);
    for (const SampleWindow &w : plan.windows)
        EXPECT_EQ(w.weight, 1u);

    SystemSimulator sim(testConfig());
    const SimResult got = sim.runPlanned(*trace, plan);
    expectSimEq(got, oracle, "k == N reconstruction");
    EXPECT_EQ(got.sampledWindows, kNumWin);
    EXPECT_EQ(got.representedWindows, kNumWin);

    // The uniform k == N plan goes through the same degenerate path.
    const SamplingPlan uplan = buildUniformPlan(
        kTotal, testRep(static_cast<uint32_t>(kNumWin)));
    SystemSimulator usim(testConfig());
    expectSimEq(usim.runPlanned(*trace, uplan), oracle,
                "uniform k == N reconstruction");
}

// ---------------------------------------------------------------------
// Tentpole claim 5: band fields survive operator+= and sweep fan-out.

TEST(SamplingPlans, BandFieldsSurviveOperatorPlusEq)
{
    SimResult a;
    a.sampledWindows = 3;
    a.representedWindows = 17;
    a.l3MissVar = 1.5;
    SimResult b;
    b.sampledWindows = 2;
    b.representedWindows = 13;
    b.l3MissVar = 2.25;
    a += b;
    EXPECT_EQ(a.sampledWindows, 5u);
    EXPECT_EQ(a.representedWindows, 30u);
    EXPECT_DOUBLE_EQ(a.l3MissVar, 3.75);
}

TEST(SamplingPlans, WorkloadSweepCarriesBandThroughSystemResult)
{
    SweepControl control;
    control.policy = SamplingPolicy::kClustered;
    control.rep.windowRecords = 4'000;
    control.rep.warmupRecords = 1'000;
    control.rep.sampleWindows = 5;
    control.rep.seed = 9;
    control.threads = 1;

    RunOptions opt;
    opt.cores = 2;
    opt.warmupRecords = 20'000;
    opt.measureRecords = 60'000;
    std::vector<RunOptions> options;
    for (const uint64_t l3 : {1 * MiB, 8 * MiB}) {
        opt.l3Bytes = l3;
        options.push_back(opt);
    }

    const WorkloadProfile profile = WorkloadProfile::s1Leaf();
    const PlatformConfig platform = PlatformConfig::plt1();
    const std::vector<SystemResult> want =
        runWorkloadSweep(profile, platform, options, control);
    ASSERT_EQ(want.size(), options.size());
    const uint64_t total_windows =
        (recordBudget(opt).total() + control.rep.windowRecords - 1) /
        control.rep.windowRecords;
    for (const SystemResult &r : want) {
        EXPECT_GT(r.sampledWindows, 0u);
        EXPECT_LE(r.sampledWindows, 5u);
        EXPECT_EQ(r.representedWindows, total_windows);
        EXPECT_GT(r.l3MissVar, 0.0);
        EXPECT_GE(r.l3MissBandHi(), r.l3MissBandLo());
        EXPECT_GT(r.ipcPerThread, 0.0);
    }

    for (const uint32_t threads : {2u, 4u, 8u}) {
        SweepControl c = control;
        c.threads = threads;
        const std::vector<SystemResult> got =
            runWorkloadSweep(profile, platform, options, c);
        for (size_t i = 0; i < options.size(); ++i) {
            SCOPED_TRACE("threads=" + std::to_string(threads) +
                         " option=" + std::to_string(i));
            EXPECT_EQ(got[i].instructions, want[i].instructions);
            EXPECT_EQ(got[i].l3.totalAccesses(),
                      want[i].l3.totalAccesses());
            EXPECT_EQ(got[i].l3.totalMisses(),
                      want[i].l3.totalMisses());
            EXPECT_EQ(got[i].branches, want[i].branches);
            EXPECT_EQ(got[i].sampledWindows, want[i].sampledWindows);
            EXPECT_EQ(got[i].representedWindows,
                      want[i].representedWindows);
            EXPECT_EQ(got[i].l3MissVar, want[i].l3MissVar);
            EXPECT_EQ(got[i].ipcPerThread, want[i].ipcPerThread);
        }
    }
}

// ---------------------------------------------------------------------
// Tentpole claim 4: two-pass replay regression. The signature pass
// must leave the buffer bit-identical, replay must not care that a
// signature pass ran first, cursor rewinds must be deterministic, and
// signatures must be invariant to chunk granularity (including
// windows straddling chunk edges).

std::vector<uint8_t>
bufferBytes(const BufferedTrace &trace)
{
    std::vector<uint8_t> bytes;
    for (size_t c = 0; c < trace.numChunks(); ++c) {
        const BufferedTrace::Span s = trace.chunk(c);
        const uint8_t *p =
            reinterpret_cast<const uint8_t *>(s.data);
        bytes.insert(bytes.end(), p,
                     p + s.count * sizeof(TraceRecord));
    }
    return bytes;
}

TEST(TwoPassReplay, SignaturePassLeavesBufferBitIdentical)
{
    const auto trace = makePhaseTrace(fixedSchedule());
    const std::vector<uint8_t> before = bufferBytes(*trace);
    const std::vector<WindowSignature> sigs =
        extractWindowSignatures(*trace, kTotal, kWin);
    ASSERT_EQ(sigs.size(), kNumWin);
    const std::vector<uint8_t> after = bufferBytes(*trace);
    ASSERT_EQ(before.size(), after.size());
    EXPECT_EQ(std::memcmp(before.data(), after.data(), before.size()),
              0);

    // Simulation after the signature pass == simulation without it.
    const SimResult fresh = fullReplayOracle(*trace);
    SystemSimulator sim(testConfig());
    expectSimEq(sim.run(*trace, 0, kTotal), fresh,
                "simulate after signature pass");
}

TEST(TwoPassReplay, CursorRewindIsDeterministic)
{
    const auto trace = makePhaseTrace(fixedSchedule());
    BufferedTrace::Cursor cursor(trace);
    std::vector<TraceRecord> first(4'096);
    std::vector<TraceRecord> second(4'096);
    ASSERT_EQ(cursor.fill(first.data(), first.size()), first.size());
    // Drain a bit more so the rewind starts mid-stream.
    ASSERT_EQ(cursor.fill(second.data(), 1'000), 1'000u);
    cursor.reset();
    ASSERT_EQ(cursor.fill(second.data(), second.size()),
              second.size());
    EXPECT_EQ(std::memcmp(first.data(), second.data(),
                          first.size() * sizeof(TraceRecord)),
              0);

    // A trace re-materialized through a rewound cursor is the same
    // trace: the signature pass and the simulate pass see identical
    // records even when they consume through separate cursors.
    cursor.reset();
    const auto again = BufferedTrace::materialize(cursor, kTotal);
    ASSERT_EQ(again->size(), trace->size());
    EXPECT_EQ(bufferBytes(*again), bufferBytes(*trace));
}

TEST(TwoPassReplay, SignaturesInvariantToChunkGranularity)
{
    // Window length 1'500 against chunk sizes 256 / 1'000 / default:
    // every window straddles chunk edges in the small-chunk builds.
    const std::vector<bool> schedule = seededSchedule(13);
    const uint64_t window = 1'500;
    const auto baseline = makePhaseTrace(schedule);
    const std::vector<WindowSignature> want =
        extractWindowSignatures(*baseline, kTotal, window);
    for (const size_t chunk : {256u, 1'000u, 1u << 14}) {
        SCOPED_TRACE("chunk=" + std::to_string(chunk));
        const auto trace = makePhaseTrace(schedule, chunk);
        const std::vector<WindowSignature> got =
            extractWindowSignatures(*trace, kTotal, window);
        ASSERT_EQ(got.size(), want.size());
        for (size_t w = 0; w < got.size(); ++w) {
            SCOPED_TRACE("window " + std::to_string(w));
            EXPECT_EQ(got[w].begin, want[w].begin);
            EXPECT_EQ(got[w].records, want[w].records);
            for (uint32_t k = 0; k < kNumAccessKinds; ++k)
                EXPECT_EQ(got[w].dataAccesses[k],
                          want[w].dataAccesses[k]);
            EXPECT_EQ(got[w].stores, want[w].stores);
            EXPECT_EQ(got[w].branches, want[w].branches);
            EXPECT_EQ(got[w].taken, want[w].taken);
            EXPECT_EQ(got[w].codeFootprint, want[w].codeFootprint);
            EXPECT_EQ(got[w].heapFootprint, want[w].heapFootprint);
            EXPECT_EQ(got[w].shardFootprint, want[w].shardFootprint);
            EXPECT_EQ(got[w].stackFootprint, want[w].stackFootprint);
        }
    }

    // Planned replay over a tiny-chunk build still covers the oracle:
    // each 2'000-record window spans ~8 chunks of 256 records, so
    // every window boundary and warmup straddles chunk edges, and the
    // chunk geometry must be invisible to the estimate.
    const auto small = makePhaseTrace(schedule, 256);
    const SamplingPlan plan =
        buildClusteredPlan(*small, kTotal, testRep(4, 17));
    SystemSimulator sim(testConfig());
    const SimResult got = sim.runPlanned(*small, plan);
    const SimResult oracle = fullReplayOracle(*small);
    const double o = static_cast<double>(oracle.l3.totalMisses());
    EXPECT_GE(o, got.l3MissBandLo());
    EXPECT_LE(o, got.l3MissBandHi());
}

// ---------------------------------------------------------------------
// Knob plumbing.

TEST(SamplingKnobs, PolicyNamesAndSeedResolution)
{
    EXPECT_STREQ(samplingPolicyName(SamplingPolicy::kOff), "off");
    EXPECT_STREQ(samplingPolicyName(SamplingPolicy::kUniform),
                 "uniform");
    EXPECT_STREQ(samplingPolicyName(SamplingPolicy::kClustered),
                 "clustered");

    EXPECT_EQ(sampleSeed(42), 42u);
    // An environment variable must not re-roll the clustering.
    ::setenv("WSEARCH_SAMPLE_SEED", "1234", 1);
    const uint64_t seed = sampleSeed(0);
    ::unsetenv("WSEARCH_SAMPLE_SEED");
    EXPECT_EQ(seed, 0x5eedc0de12345678ull);
}

TEST(SamplingKnobs, DefaultRepIgnoresEnvironment)
{
    // Environment variables must not reshape the default plan.
    ::setenv("WSEARCH_SAMPLE_WINDOWS", "48", 1);
    ::setenv("WSEARCH_SAMPLE_CLUSTERS", "6", 1);
    ::setenv("WSEARCH_SAMPLE_WARMUP", "7500", 1);
    const RepresentativeSampling def =
        defaultRepresentativeSampling(960'000);
    ::unsetenv("WSEARCH_SAMPLE_WINDOWS");
    ::unsetenv("WSEARCH_SAMPLE_CLUSTERS");
    ::unsetenv("WSEARCH_SAMPLE_WARMUP");

    EXPECT_EQ(def.windowRecords, 10'000u);
    // Default warmup is one full window -- sized so the bench_fig6bc
    // clustered-vs-oracle gate stays inside its band (cold-state bias
    // shrinks with warmup, see DESIGN.md "Representative sampling").
    EXPECT_EQ(def.warmupRecords, 10'000u);
    EXPECT_EQ(def.sampleWindows, 12u);
    EXPECT_TRUE(def.enabled());
}

TEST(SamplingKnobs, UniformPlanShape)
{
    RepresentativeSampling rep;
    rep.windowRecords = 1'000;
    rep.warmupRecords = 500;
    rep.sampleWindows = 4;
    const SamplingPlan plan = buildUniformPlan(60'000, rep);
    ASSERT_EQ(plan.windows.size(), 4u);
    EXPECT_EQ(plan.totalWindows, 60u);
    const uint64_t begins[] = {0, 15'000, 30'000, 45'000};
    for (size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(plan.windows[i].begin, begins[i]);
        EXPECT_EQ(plan.windows[i].records, 1'000u);
        EXPECT_EQ(plan.windows[i].weight, 15u);
    }
    // Window 0 has no records before it to re-warm from; the other
    // three each pay the 500-record warmup.
    EXPECT_EQ(plan.simulatedRecords(), 1'000u + 3u * 1'500u);
    EXPECT_NEAR(plan.simulatedFraction(), 5'500.0 / 60'000.0, 1e-12);
}

} // namespace
} // namespace wsearch
