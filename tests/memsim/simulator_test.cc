#include <gtest/gtest.h>

#include "memsim/simulator.hh"

namespace wsearch {
namespace {

/** Source replaying a fixed record vector once. */
class VectorSource : public TraceSource
{
  public:
    explicit VectorSource(std::vector<TraceRecord> recs)
        : recs_(std::move(recs))
    {
    }

    size_t
    fill(TraceRecord *buf, size_t max) override
    {
        size_t n = 0;
        while (n < max && pos_ < recs_.size())
            buf[n++] = recs_[pos_++];
        return n;
    }

    void reset() override { pos_ = 0; }

  private:
    std::vector<TraceRecord> recs_;
    size_t pos_ = 0;
};

TraceRecord
load(uint64_t pc, uint64_t addr, AccessKind kind = AccessKind::Heap)
{
    TraceRecord r;
    r.pc = pc;
    r.addr = addr;
    r.op = MemOp::Load;
    r.kind = kind;
    return r;
}

HierarchySpec
tiny()
{
    HierarchySpec h;
    h.l1i.cache = {1 * KiB, 64, 4};
    h.l1d.cache = {1 * KiB, 64, 4};
    h.l2.cache = {4 * KiB, 64, 4};
    h.llc.cache = {16 * KiB, 64, 4};
    return h;
}

TEST(RunTrace, CountsMeasuredInstructionsOnly)
{
    std::vector<TraceRecord> recs;
    for (int i = 0; i < 100; ++i)
        recs.push_back(load(0x400000 + i * 4, 0x9000 + i * 64));
    VectorSource src(recs);
    CacheHierarchy hier(tiny());
    const SimResult res = runTrace(src, hier, 30, 70);
    EXPECT_EQ(res.instructions, 70u);
    EXPECT_EQ(res.l1i.totalAccesses(), 70u);
    EXPECT_EQ(res.l1d.totalAccesses(), 70u);
}

TEST(RunTrace, WarmupStateSurvivesStatReset)
{
    // Access the same block during warmup and measurement: the
    // measured access must be a hit (contents preserved).
    std::vector<TraceRecord> recs = {load(0x400000, 0x9000),
                                     load(0x400000, 0x9000)};
    VectorSource src(recs);
    CacheHierarchy hier(tiny());
    const SimResult res = runTrace(src, hier, 1, 1);
    EXPECT_EQ(res.instructions, 1u);
    EXPECT_EQ(res.l1d.totalMisses(), 0u);
}

TEST(RunTrace, StopsAtSourceExhaustion)
{
    std::vector<TraceRecord> recs(10, load(0x400000, 0x9000));
    VectorSource src(recs);
    CacheHierarchy hier(tiny());
    const SimResult res = runTrace(src, hier, 0, 1000);
    EXPECT_EQ(res.instructions, 10u);
}

TEST(RunTrace, InstrOnlyRecordsSkipDataPath)
{
    std::vector<TraceRecord> recs;
    TraceRecord r;
    r.pc = 0x400000;
    r.op = MemOp::None;
    recs.assign(50, r);
    VectorSource src(recs);
    CacheHierarchy hier(tiny());
    const SimResult res = runTrace(src, hier, 0, 50);
    EXPECT_EQ(res.l1d.totalAccesses(), 0u);
    EXPECT_EQ(res.l1i.totalAccesses(), 50u);
}

TEST(RunTrace, StoresMarkDirtyAndWriteBack)
{
    std::vector<TraceRecord> recs;
    TraceRecord st = load(0x400000, 0);
    st.op = MemOp::Store;
    recs.push_back(st);
    // Stream enough blocks to push the dirty line out of the L2.
    for (int i = 1; i <= 300; ++i)
        recs.push_back(load(0x400000, i * 64ull));
    VectorSource src(recs);
    CacheHierarchy hier(tiny());
    const SimResult res = runTrace(src, hier, 0, recs.size());
    EXPECT_GT(res.writebacks, 0u);
}

TEST(SimResultMerge, SumsEveryCounter)
{
    // Mirror of ServeSnapshot::merge: counters add field-wise, so a
    // result accumulated over two sampled windows equals the sum of
    // the windows' results.
    SimResult a;
    a.instructions = 100;
    a.l1d.record(AccessKind::Heap, true);
    a.l1d.record(AccessKind::Heap, false);
    a.l2.record(AccessKind::Code, true);
    a.l4.prefetchIssued = 3;
    a.l3Evictions = 7;
    a.writebacks = 2;
    a.backInvalidations = 1;
    a.sampledWindows = 1;

    SimResult b;
    b.instructions = 40;
    b.l1d.record(AccessKind::Heap, true);
    b.l1d.record(AccessKind::Shard, false);
    b.l4.prefetchIssued = 4;
    b.l4.prefetchUseful = 2;
    b.l3Evictions = 3;
    b.sampledWindows = 1;

    SimResult sum = a;
    sum += b;
    EXPECT_EQ(sum.instructions, 140u);
    EXPECT_EQ(sum.l1d.accessesOf(AccessKind::Heap), 3u);
    EXPECT_EQ(sum.l1d.missesOf(AccessKind::Heap), 2u);
    EXPECT_EQ(sum.l1d.accessesOf(AccessKind::Shard), 1u);
    EXPECT_EQ(sum.l2.missesOf(AccessKind::Code), 1u);
    EXPECT_EQ(sum.l4.prefetchIssued, 7u);
    EXPECT_EQ(sum.l4.prefetchUseful, 2u);
    EXPECT_EQ(sum.l3Evictions, 10u);
    EXPECT_EQ(sum.writebacks, 2u);
    EXPECT_EQ(sum.backInvalidations, 1u);
    EXPECT_EQ(sum.sampledWindows, 2u);
}

TEST(SimResultMerge, MergeEqualsContiguousRunWhenStateCarries)
{
    // Two back-to-back measured halves merged == one full measurement
    // (same hierarchy, no reset between halves beyond the stats reset
    // merge semantics assume).
    std::vector<TraceRecord> recs;
    for (int i = 0; i < 200; ++i)
        recs.push_back(load(0x400000 + i * 4, (i % 32) * 64ull));

    VectorSource whole(recs);
    CacheHierarchy h1(tiny());
    const SimResult full = runTrace(whole, h1, 0, 200);

    VectorSource halves(recs);
    CacheHierarchy h2(tiny());
    SimResult merged = runTrace(halves, h2, 0, 100);
    merged += runTrace(halves, h2, 0, 100);
    EXPECT_EQ(merged.instructions, full.instructions);
    EXPECT_EQ(merged.l1d.totalAccesses(), full.l1d.totalAccesses());
    EXPECT_EQ(merged.l1d.totalMisses(), full.l1d.totalMisses());
    EXPECT_EQ(merged.writebacks, full.writebacks);
}

TEST(RunTrace, BatchBoundaryExactness)
{
    // More records than one internal batch (8192) to cover the
    // batching loop.
    std::vector<TraceRecord> recs;
    for (int i = 0; i < 20000; ++i)
        recs.push_back(load(0x400000, (i % 64) * 64ull));
    VectorSource src(recs);
    CacheHierarchy hier(tiny());
    const SimResult res = runTrace(src, hier, 0, 20000);
    EXPECT_EQ(res.instructions, 20000u);
    EXPECT_EQ(res.l1d.totalAccesses(), 20000u);
}

} // namespace
} // namespace wsearch
