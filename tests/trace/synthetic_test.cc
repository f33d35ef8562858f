#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "stats/working_set.hh"
#include "trace/synthetic.hh"
#include "util/units.hh"

namespace wsearch {
namespace {

WorkloadProfile
tinyProfile()
{
    WorkloadProfile p = WorkloadProfile::s1Leaf();
    p.code.footprintBytes = 64 * KiB;
    p.heapWorkingSetBytes = 1 * MiB;
    p.shardSpanBytes = 64 * MiB;
    return p;
}

std::vector<TraceRecord>
collect(SyntheticSearchTrace &src, size_t n)
{
    std::vector<TraceRecord> out(n);
    size_t got = 0;
    while (got < n)
        got += src.fill(out.data() + got, n - got);
    return out;
}

TEST(Synthetic, AddressesLandInSegmentRegions)
{
    SyntheticSearchTrace src(tinyProfile(), 2);
    for (const auto &r : collect(src, 100000)) {
        ASSERT_GE(r.pc, vaddr::kCodeBase);
        ASSERT_LT(r.pc, vaddr::kHeapBase);
        if (!r.hasData())
            continue;
        switch (r.kind) {
          case AccessKind::Heap:
            ASSERT_GE(r.addr, vaddr::kHeapBase);
            ASSERT_LT(r.addr, vaddr::kShardBase);
            break;
          case AccessKind::Shard:
            ASSERT_GE(r.addr, vaddr::kShardBase);
            ASSERT_LT(r.addr, vaddr::kStackBase);
            break;
          case AccessKind::Stack:
            ASSERT_GE(r.addr, vaddr::kStackBase);
            break;
          default:
            FAIL() << "unexpected kind";
        }
    }
}

TEST(Synthetic, EveryProfileEmitsAddressesThatFit)
{
    // A record keeps 48 bits of each address, so one past vaddr::kLimit
    // would wrap into another segment: every address landing in its own
    // segment shows that none was cut.
    std::vector<WorkloadProfile> profiles = {
        WorkloadProfile::s1Leaf(),        WorkloadProfile::s2Leaf(),
        WorkloadProfile::s3Leaf(),        WorkloadProfile::s1Root(),
        WorkloadProfile::s2Root(),        WorkloadProfile::s3Root(),
        WorkloadProfile::specPerlbench(), WorkloadProfile::specMcf(),
        WorkloadProfile::specGobmk(),     WorkloadProfile::specOmnetpp(),
        WorkloadProfile::cloudsuiteWebSearch(),
    };
    for (const WorkloadProfile &sweep : {WorkloadProfile::s1LeafSweep(),
                                         WorkloadProfile::s1LeafCapacitySweep()}) {
        profiles.push_back(sweep);
        profiles.push_back(sweep.atNominalScale());
    }
    constexpr uint32_t kThreads = 16;
    for (const WorkloadProfile &p : profiles) {
        SCOPED_TRACE(p.name + " x" + std::to_string(p.sweepScale));
        ASSERT_LE(vaddr::kHeapBase + p.heapWorkingSetBytes,
                  vaddr::kShardBase);
        ASSERT_LE(vaddr::kShardBase + p.shardSpanBytes, vaddr::kStackBase);
        ASSERT_LE(p.stackBytesPerThread, vaddr::kStackStride);
        SyntheticSearchTrace src(p, kThreads);
        for (const TraceRecord &r : collect(src, 40000)) {
            ASSERT_GE(r.pc, vaddr::kCodeBase);
            ASSERT_LT(r.pc, vaddr::kCodeBase + p.code.footprintBytes);
            if (!r.hasData())
                continue;
            switch (r.kind) {
              case AccessKind::Heap:
                ASSERT_GE(r.addr, vaddr::kHeapBase);
                ASSERT_LT(r.addr, vaddr::kShardBase);
                break;
              case AccessKind::Shard:
                ASSERT_GE(r.addr, vaddr::kShardBase);
                ASSERT_LT(r.addr, vaddr::kShardBase + p.shardSpanBytes);
                break;
              case AccessKind::Stack:
                ASSERT_GE(r.addr, vaddr::kStackBase);
                ASSERT_LT(r.addr,
                          vaddr::kStackBase + kThreads * vaddr::kStackStride);
                break;
              default:
                FAIL() << "unexpected kind";
            }
        }
    }
}

TEST(Synthetic, Deterministic)
{
    SyntheticSearchTrace a(tinyProfile(), 4), b(tinyProfile(), 4);
    const auto ra = collect(a, 20000);
    const auto rb = collect(b, 20000);
    for (size_t i = 0; i < ra.size(); ++i) {
        ASSERT_EQ(ra[i].pc, rb[i].pc);
        ASSERT_EQ(ra[i].addr, rb[i].addr);
        ASSERT_EQ(ra[i].tid, rb[i].tid);
    }
}

TEST(Synthetic, ResetRestartsStream)
{
    SyntheticSearchTrace src(tinyProfile(), 2);
    const auto first = collect(src, 5000);
    src.reset();
    const auto again = collect(src, 5000);
    for (size_t i = 0; i < first.size(); ++i)
        ASSERT_EQ(first[i].addr, again[i].addr);
}

TEST(Synthetic, RoundRobinThreads)
{
    SyntheticSearchTrace src(tinyProfile(), 4);
    const auto recs = collect(src, 64);
    for (size_t i = 0; i < recs.size(); ++i)
        ASSERT_EQ(recs[i].tid, i % 4);
}

TEST(Synthetic, LoadStoreFractions)
{
    WorkloadProfile p = tinyProfile();
    p.loadFrac = 0.3;
    p.storeFrac = 0.1;
    SyntheticSearchTrace src(p, 1);
    uint64_t loads = 0, stores = 0, n = 400000;
    for (const auto &r : collect(src, n)) {
        if (r.op == MemOp::Load)
            ++loads;
        else if (r.op == MemOp::Store)
            ++stores;
    }
    EXPECT_NEAR(static_cast<double>(loads) / n, 0.3, 0.01);
    EXPECT_NEAR(static_cast<double>(stores) / n, 0.1, 0.01);
}

TEST(Synthetic, SharedHeapWorkingSetBounded)
{
    WorkloadProfile p = tinyProfile();
    p.heapWorkingSetBytes = 256 * KiB;
    p.heapHotFrac = 0.2;
    p.heapWarmFrac = 0.1; // leave 70% of heap accesses to the shared WS
    SyntheticSearchTrace src(p, 4);
    // The shared component lives at the bottom of the heap region.
    WorkingSetTracker ws(vaddr::kHeapBase, 1 * GiB, 64);
    for (const auto &r : collect(src, 800000))
        if (r.hasData() && r.kind == AccessKind::Heap)
            ws.touch(r.addr);
    EXPECT_LE(ws.workingSetBytes(), 256 * KiB);
    // And most of it should actually be touched (Zipf covers it).
    EXPECT_GE(ws.workingSetBytes(), 128 * KiB);
}

TEST(Synthetic, ScratchRegionsArePerThread)
{
    SyntheticSearchTrace src(tinyProfile(), 2);
    std::set<uint64_t> scratch0, scratch1;
    for (const auto &r : collect(src, 400000)) {
        if (!r.hasData() || r.kind != AccessKind::Heap)
            continue;
        if (r.addr < vaddr::kHeapBase + (1ull << 40))
            continue; // shared component
        (r.tid == 0 ? scratch0 : scratch1).insert(r.addr / 64);
    }
    ASSERT_FALSE(scratch0.empty());
    for (auto b : scratch0)
        ASSERT_EQ(scratch1.count(b), 0u);
}

TEST(Synthetic, HeapSharedAcrossThreadsShardDisjoint)
{
    // The defining Figure 5 mechanism: shared-heap blocks overlap
    // heavily between threads; shard blocks almost never do.
    WorkloadProfile p = tinyProfile();
    p.heapHotFrac = 0.2;
    p.heapWarmFrac = 0.1; // 70% of heap accesses hit the shared WS
    SyntheticSearchTrace src(p, 2);
    std::set<uint64_t> heap0, heap1, shard0, shard1;
    for (const auto &r : collect(src, 2000000)) {
        if (!r.hasData())
            continue;
        const uint64_t block = r.addr / 64;
        if (r.kind == AccessKind::Heap) {
            if (r.addr >= vaddr::kHeapBase + (1ull << 40))
                continue; // per-thread scratch: disjoint by design
            (r.tid == 0 ? heap0 : heap1).insert(block);
        } else if (r.kind == AccessKind::Shard) {
            (r.tid == 0 ? shard0 : shard1).insert(block);
        }
    }
    auto overlap = [](const std::set<uint64_t> &a,
                      const std::set<uint64_t> &b) {
        uint64_t inter = 0;
        for (auto x : a)
            if (b.count(x))
                ++inter;
        return static_cast<double>(inter) /
            static_cast<double>(std::min(a.size(), b.size()));
    };
    EXPECT_GT(overlap(heap0, heap1), 0.5);
    EXPECT_LT(overlap(shard0, shard1), 0.1);
}

TEST(Synthetic, ShardRunsAreSequential)
{
    WorkloadProfile p = tinyProfile();
    p.shardFrac = 0.5;
    p.heapFrac = 0.3;
    p.stackFrac = 0.2;
    SyntheticSearchTrace src(p, 1);
    uint64_t prev = 0;
    uint64_t sequential = 0, total = 0;
    for (const auto &r : collect(src, 200000)) {
        if (!r.hasData() || r.kind != AccessKind::Shard)
            continue;
        if (prev && r.addr == prev + p.shardItemBytes)
            ++sequential;
        ++total;
        prev = r.addr;
    }
    // Most shard accesses continue the current run.
    EXPECT_GT(static_cast<double>(sequential) / total, 0.9);
}

TEST(Synthetic, BranchRecordsConsistent)
{
    // Only a taken branch moves a thread's fetch anywhere but the next
    // instruction, and each thread fetches its own path.
    const WorkloadProfile p = tinyProfile();
    SyntheticSearchTrace src(p, 3);
    std::vector<const TraceRecord *> last(3, nullptr);
    uint64_t sequential = 0, taken = 0;
    const std::vector<TraceRecord> recs = collect(src, 100000);
    for (const TraceRecord &r : recs) {
        const TraceRecord *&prev = last[r.tid];
        if (prev && prev->branch != BranchKind::Taken) {
            ASSERT_EQ(r.pc, prev->pc + p.code.instrBytes);
            ++sequential;
        } else if (prev) {
            ++taken;
        }
        prev = &r;
    }
    EXPECT_GT(sequential, 0u);
    EXPECT_GT(taken, 0u);
}

} // namespace
} // namespace wsearch
