#include <gtest/gtest.h>

#include "search/leaf.hh"
#include "search/root.hh"

namespace wsearch {
namespace {

TEST(RootMerge, MergesBestFirst)
{
    std::vector<std::vector<ScoredDoc>> partials = {
        {{1, 9.f}, {2, 5.f}},
        {{3, 7.f}, {4, 1.f}},
        {{5, 8.f}},
    };
    const auto merged = RootServer::merge(partials, 3);
    ASSERT_EQ(merged.size(), 3u);
    EXPECT_EQ(merged[0].doc, 1u);
    EXPECT_EQ(merged[1].doc, 5u);
    EXPECT_EQ(merged[2].doc, 3u);
}

TEST(RootMerge, HandlesEmptyPartials)
{
    std::vector<std::vector<ScoredDoc>> partials = {{}, {{1, 2.f}}, {}};
    const auto merged = RootServer::merge(partials, 10);
    ASSERT_EQ(merged.size(), 1u);
    EXPECT_EQ(merged[0].doc, 1u);
}

TEST(LeafFootprint, SharedHeapDominatesAndScalesSubLinearly)
{
    // A production-scale shard: the shared metadata/lexicon heap
    // dwarfs the per-thread buffers, which is the paper's Figure 4
    // observation.
    ProceduralIndex::Config pc;
    pc.numDocs = 400000;
    pc.numTerms = 50000;
    pc.maxDocFreq = 1000;
    pc.minDocFreq = 4;
    pc.payloadBytes = 0;
    ProceduralIndex shard(pc);
    LeafServer::Config c1, c8;
    c1.numThreads = 1;
    c1.perThreadBufferBytes = 256 * KiB;
    c8.numThreads = 8;
    c8.perThreadBufferBytes = 256 * KiB;
    LeafServer l1(shard, c1), l8(shard, c8);
    const FootprintStats f1 = l1.footprint();
    const FootprintStats f8 = l8.footprint();
    // Heap >> stack and code scales not at all (paper Figure 4).
    EXPECT_GT(f8.heapBytes(), f8.stackBytes);
    EXPECT_EQ(f1.codeBytes, f8.codeBytes);
    // 8x threads must NOT mean 8x heap: shared part is constant.
    EXPECT_LT(static_cast<double>(f8.heapBytes()),
              4.0 * static_cast<double>(f1.heapBytes()));
    EXPECT_EQ(f8.stackBytes, 8 * f1.stackBytes);
}

} // namespace
} // namespace wsearch
