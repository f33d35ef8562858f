#include <gtest/gtest.h>

#include <set>

#include "search/engine_trace.hh"
#include "stats/working_set.hh"

namespace wsearch {
namespace {

ProceduralIndex::Config
smallShard()
{
    ProceduralIndex::Config c;
    c.numDocs = 200000;
    c.numTerms = 20000;
    c.maxDocFreq = 2000;
    c.minDocFreq = 8;
    c.payloadBytes = 8;
    return c;
}

EngineTraceConfig
smallTraceConfig(uint32_t threads = 2)
{
    EngineTraceConfig c;
    c.numThreads = threads;
    c.queries.vocabSize = 20000;
    c.queries.distinctQueries = 1 << 14;
    c.queryCacheEntries = 1 << 10;
    c.code.footprintBytes = 256 * KiB;
    return c;
}

std::vector<TraceRecord>
collect(TraceSource &src, size_t n)
{
    std::vector<TraceRecord> out(n);
    size_t got = 0;
    while (got < n)
        got += src.fill(out.data() + got, n - got);
    return out;
}

TEST(EngineTrace, ProducesValidRecords)
{
    ProceduralIndex shard(smallShard());
    EngineTraceSource src(shard, smallTraceConfig());
    const auto recs = collect(src, 200000);
    uint64_t data = 0;
    for (const auto &r : recs) {
        ASSERT_GE(r.pc, vaddr::kCodeBase);
        ASSERT_LT(r.pc, vaddr::kHeapBase);
        if (!r.hasData())
            continue;
        ++data;
        switch (r.kind) {
          case AccessKind::Shard:
            ASSERT_GE(r.addr, vaddr::kShardBase);
            ASSERT_LT(r.addr,
                      vaddr::kShardBase + shard.shardBytes() + 64);
            break;
          case AccessKind::Heap:
            ASSERT_GE(r.addr, vaddr::kHeapBase);
            ASSERT_LT(r.addr, vaddr::kShardBase);
            break;
          case AccessKind::Stack:
            ASSERT_GE(r.addr, vaddr::kStackBase);
            break;
          default:
            FAIL();
        }
    }
    // A substantial share of records must carry data accesses.
    EXPECT_GT(data, recs.size() / 10);
    EXPECT_GT(src.queriesExecuted(), 0u);
}

TEST(EngineTrace, AddressesFitARecord)
{
    // Every engine segment ends below the next one, and the last below
    // vaddr::kLimit, for as many threads as a record's tid can name; a
    // record keeps 48 bits of each address, so one past the limit
    // would wrap into another segment instead.
    constexpr uint64_t kMaxThreads = 65536;
    EXPECT_LE(engine_vaddr::kQueryCacheBase +
                  engine_vaddr::kQueryCacheBuckets *
                      engine_vaddr::kQueryCacheBucketBytes,
              vaddr::kShardBase);
    EXPECT_LE(engine_vaddr::scratchAddr(kMaxThreads, 0),
              engine_vaddr::kQueryCacheBase);
    EXPECT_LE(engine_vaddr::stackAddr(kMaxThreads, 0), vaddr::kLimit);

    constexpr uint32_t kThreads = 4;
    ProceduralIndex shard(smallShard());
    EngineTraceSource src(shard, smallTraceConfig(kThreads));
    for (const TraceRecord &r : collect(src, 100000)) {
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
            ASSERT_LT(r.addr, engine_vaddr::stackAddr(kThreads, 0));
            break;
          default:
            FAIL();
        }
    }
}

TEST(EngineTrace, Deterministic)
{
    ProceduralIndex shard(smallShard());
    EngineTraceSource a(shard, smallTraceConfig());
    EngineTraceSource b(shard, smallTraceConfig());
    const auto ra = collect(a, 50000);
    const auto rb = collect(b, 50000);
    for (size_t i = 0; i < ra.size(); ++i) {
        ASSERT_EQ(ra[i].pc, rb[i].pc);
        ASSERT_EQ(ra[i].addr, rb[i].addr);
    }
}

TEST(EngineTrace, ResetRestarts)
{
    ProceduralIndex shard(smallShard());
    EngineTraceSource src(shard, smallTraceConfig());
    const auto first = collect(src, 20000);
    src.reset();
    const auto again = collect(src, 20000);
    for (size_t i = 0; i < first.size(); ++i)
        ASSERT_EQ(first[i].addr, again[i].addr);
}

TEST(EngineTrace, CacheTierAbsorbsPopularQueries)
{
    ProceduralIndex shard(smallShard());
    EngineTraceConfig cfg = smallTraceConfig();
    cfg.queries.distinctQueries = 256; // highly repetitive traffic
    cfg.queries.popularityTheta = 1.1;
    cfg.queryCacheEntries = 512;
    EngineTraceSource src(shard, cfg);
    collect(src, 400000);
    EXPECT_GT(src.cacheAbsorbed(), src.queriesExecuted());
}

TEST(EngineTrace, RoundRobinThreadIds)
{
    ProceduralIndex shard(smallShard());
    EngineTraceSource src(shard, smallTraceConfig(3));
    const auto recs = collect(src, 99);
    for (size_t i = 0; i < recs.size(); ++i)
        ASSERT_EQ(recs[i].tid, i % 3);
}

TEST(EngineTrace, ShardRunsAreMostlySequential)
{
    // Posting decode produces sequential shard access runs -- the
    // spatial-locality structure the paper attributes to the shard.
    ProceduralIndex shard(smallShard());
    EngineTraceSource src(shard, smallTraceConfig(1));
    const auto recs = collect(src, 300000);
    uint64_t prev = 0;
    uint64_t seq = 0, total = 0;
    for (const auto &r : recs) {
        if (!r.hasData() || r.kind != AccessKind::Shard)
            continue;
        if (prev && r.addr >= prev && r.addr <= prev + 64)
            ++seq;
        ++total;
        prev = r.addr;
    }
    ASSERT_GT(total, 1000u);
    EXPECT_GT(static_cast<double>(seq) / total, 0.8);
}

TEST(EngineTrace, HeapWorkingSetSharedAcrossThreads)
{
    // Doc-metadata touches overlap between threads (shared heap
    // structures, Figure 5), shard touches do not.
    ProceduralIndex shard(smallShard());
    EngineTraceSource src(shard, smallTraceConfig(2));
    std::set<uint64_t> meta0, meta1;
    const auto recs = collect(src, 1500000);
    for (const auto &r : recs) {
        if (!r.hasData() || r.kind != AccessKind::Heap)
            continue;
        if (r.addr >= engine_vaddr::kLexiconBase)
            continue; // lexicon/scratch
        (r.tid == 0 ? meta0 : meta1).insert(r.addr / 64);
    }
    ASSERT_GT(meta0.size(), 100u);
    uint64_t inter = 0;
    for (const auto b : meta0)
        if (meta1.count(b))
            ++inter;
    EXPECT_GT(static_cast<double>(inter) /
                  static_cast<double>(std::min(meta0.size(),
                                               meta1.size())),
              0.1);
}

} // namespace
} // namespace wsearch
