#include <gtest/gtest.h>

#include "stats/counters.hh"

namespace wsearch {
namespace {

TEST(CacheLevelStats, RecordAndTotals)
{
    CacheLevelStats s;
    s.record(AccessKind::Code, true);
    s.record(AccessKind::Code, false);
    s.record(AccessKind::Heap, true);
    s.record(AccessKind::Shard, true);
    EXPECT_EQ(s.totalAccesses(), 4u);
    EXPECT_EQ(s.totalMisses(), 3u);
    EXPECT_EQ(s.missesOf(AccessKind::Code), 1u);
    EXPECT_EQ(s.accessesOf(AccessKind::Code), 2u);
}

TEST(CacheLevelStats, Mpki)
{
    CacheLevelStats s;
    for (int i = 0; i < 10; ++i)
        s.record(AccessKind::Heap, true);
    EXPECT_DOUBLE_EQ(s.mpki(AccessKind::Heap, 1000), 10.0);
    EXPECT_DOUBLE_EQ(s.mpkiTotal(2000), 5.0);
    EXPECT_DOUBLE_EQ(s.mpki(AccessKind::Heap, 0), 0.0);
}

TEST(CacheLevelStats, MpkiDataExcludesCode)
{
    CacheLevelStats s;
    for (int i = 0; i < 5; ++i)
        s.record(AccessKind::Code, true);
    for (int i = 0; i < 3; ++i)
        s.record(AccessKind::Heap, true);
    for (int i = 0; i < 2; ++i)
        s.record(AccessKind::Shard, true);
    EXPECT_DOUBLE_EQ(s.mpkiData(1000), 5.0);
    EXPECT_DOUBLE_EQ(s.mpkiTotal(1000), 10.0);
}

TEST(CacheLevelStats, HitRate)
{
    CacheLevelStats s;
    s.record(AccessKind::Heap, false);
    s.record(AccessKind::Heap, false);
    s.record(AccessKind::Heap, true);
    s.record(AccessKind::Heap, true);
    EXPECT_DOUBLE_EQ(s.hitRate(AccessKind::Heap), 0.5);
    EXPECT_DOUBLE_EQ(s.hitRate(AccessKind::Stack), 1.0); // no accesses
    EXPECT_DOUBLE_EQ(s.hitRateTotal(), 0.5);
}

TEST(CacheLevelStats, Accumulate)
{
    CacheLevelStats a, b;
    a.record(AccessKind::Code, true);
    b.record(AccessKind::Code, true);
    b.record(AccessKind::Heap, false);
    a += b;
    EXPECT_EQ(a.totalAccesses(), 3u);
    EXPECT_EQ(a.totalMisses(), 2u);
}

TEST(CacheLevelStats, Reset)
{
    CacheLevelStats s;
    s.record(AccessKind::Heap, true);
    s.prefetchIssued = 5;
    s.reset();
    EXPECT_EQ(s.totalAccesses(), 0u);
    EXPECT_EQ(s.prefetchIssued, 0u);
}

TEST(AccessKindNames, AllNamed)
{
    EXPECT_STREQ(accessKindName(AccessKind::Code), "code");
    EXPECT_STREQ(accessKindName(AccessKind::Heap), "heap");
    EXPECT_STREQ(accessKindName(AccessKind::Shard), "shard");
    EXPECT_STREQ(accessKindName(AccessKind::Stack), "stack");
}

} // namespace
} // namespace wsearch
