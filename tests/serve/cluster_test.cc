#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "search/corpus.hh"
#include "search/root.hh"
#include "search/sharding.hh"
#include "serve/cluster.hh"
#include "serve/loadgen.hh"

namespace wsearch {
namespace {

CorpusConfig
testCorpusConfig()
{
    CorpusConfig cc;
    cc.numDocs = 1200;
    cc.vocabSize = 2000;
    cc.avgDocLen = 60;
    return cc;
}

QueryGenerator::Config
testTraffic()
{
    QueryGenerator::Config qc;
    qc.vocabSize = 2000;
    qc.distinctQueries = 4096;
    qc.maxTerms = 3;
    return qc;
}

SearchRequest
asRequest(const Query &q)
{
    SearchRequest req;
    req.query = q;
    return req;
}

/** Serial scatter-gather over the same shards: the reference the
 *  concurrent cluster must reproduce at full coverage. */
std::vector<ScoredDoc>
serialReference(const ShardedIndex &si, const Query &q)
{
    std::vector<std::vector<ScoredDoc>> partials;
    for (uint32_t s = 0; s < si.numShards(); ++s) {
        LeafServer leaf(si.shard(s), si.leafConfig(s));
        partials.push_back(leaf.serve(0, asRequest(q)).docs);
    }
    return RootServer::merge(partials, q.topK);
}

TEST(Sharding, PartitionIsDisjointAndComplete)
{
    const CorpusGenerator corpus(testCorpusConfig());
    const ShardedIndex si = buildShardedIndex(corpus, 4);
    ASSERT_EQ(si.numShards(), 4u);
    uint32_t total = 0;
    for (uint32_t s = 0; s < 4; ++s)
        total += si.shard(s).numDocs();
    EXPECT_EQ(total, corpus.config().numDocs);
    // Shard s, local doc d holds global doc d * 4 + s: spot-check the
    // doc lengths against the corpus.
    for (uint32_t s = 0; s < 4; ++s) {
        for (DocId d = 0; d < 3; ++d) {
            const Document doc = corpus.document(d * 4 + s);
            EXPECT_EQ(si.shard(s).docLen(d), doc.terms.size());
        }
    }
}

TEST(ClusterServer, FullCoverageMatchesSerialReference)
{
    const CorpusGenerator corpus(testCorpusConfig());
    const ShardedIndex si = buildShardedIndex(corpus, 4);

    ClusterConfig cc;
    cc.pool.numWorkers = 2;
    cc.deadlineNs = 0; // wait for every shard
    ClusterServer cluster(si.shardPtrs(), cc);

    QueryGenerator gen(testTraffic());
    for (uint32_t i = 0; i < 60; ++i) {
        const Query q = gen.next();
        const ClusterResult res = cluster.handle(asRequest(q));
        EXPECT_EQ(res.page.shardsTotal, 4u);
        ASSERT_EQ(res.page.shardsAnswered, 4u) << "query " << i;
        EXPECT_FALSE(res.page.degraded());
        const std::vector<ScoredDoc> expected =
            serialReference(si, q);
        ASSERT_EQ(res.page.docs.size(), expected.size())
            << "query " << i;
        for (size_t r = 0; r < expected.size(); ++r) {
            EXPECT_EQ(res.page.docs[r].doc, expected[r].doc)
                << "query " << i << " rank " << r;
            EXPECT_FLOAT_EQ(res.page.docs[r].score,
                            expected[r].score)
                << "query " << i << " rank " << r;
        }
    }
    const ClusterSnapshot snap = cluster.snapshot();
    EXPECT_EQ(snap.queries, 60u);
    EXPECT_EQ(snap.degraded, 0u);
    EXPECT_DOUBLE_EQ(snap.meanCoverage(), 1.0);
    EXPECT_EQ(snap.queryNs.count(), 60u);
    EXPECT_EQ(snap.shardNs.count(), 240u);
}

TEST(ClusterServer, CachedPagesMatchSerialReference)
{
    // The shard pools' cache tiers answer Zipf repeats: a page merged
    // from cached shard answers must equal the one computed afresh.
    const CorpusGenerator corpus(testCorpusConfig());
    const ShardedIndex si = buildShardedIndex(corpus, 4);

    ClusterConfig cc;
    cc.pool.numWorkers = 2;
    cc.pool.cacheCapacity = 64;
    cc.deadlineNs = 0;
    ClusterServer cluster(si.shardPtrs(), cc);

    QueryGenerator gen(testTraffic());
    for (uint32_t i = 0; i < 100; ++i) {
        const Query q = gen.next();
        const ClusterResult res = cluster.handle(asRequest(q));
        ASSERT_EQ(res.page.shardsAnswered, 4u) << "query " << i;
        const std::vector<ScoredDoc> expected =
            serialReference(si, q);
        ASSERT_EQ(res.page.docs.size(), expected.size())
            << "query " << i;
        for (size_t r = 0; r < expected.size(); ++r) {
            EXPECT_EQ(res.page.docs[r].doc, expected[r].doc)
                << "query " << i << " rank " << r;
            EXPECT_FLOAT_EQ(res.page.docs[r].score,
                            expected[r].score)
                << "query " << i << " rank " << r;
        }
    }
    uint64_t cache_hits = 0;
    for (const ShardSnapshot &ss : cluster.snapshot().shards)
        cache_hits += ss.pool.cacheHits;
    EXPECT_GT(cache_hits, 0u);
}

TEST(ClusterServer, TightDeadlineDegradesGracefully)
{
    const CorpusGenerator corpus(testCorpusConfig());
    const ShardedIndex si = buildShardedIndex(corpus, 4);

    ClusterConfig cc;
    cc.pool.numWorkers = 1;
    cc.deadlineNs = 1000; // 1 us: no leaf can answer in time
    ClusterServer cluster(si.shardPtrs(), cc);

    QueryGenerator gen(testTraffic());
    uint64_t answered = 0;
    for (uint32_t i = 0; i < 20; ++i) {
        const ClusterResult res = cluster.handle(asRequest(gen.next()));
        EXPECT_EQ(res.page.shardsTotal, 4u);
        answered += res.page.shardsAnswered;
        // Whatever merged is still a valid, ordered page.
        for (size_t r = 1; r < res.page.docs.size(); ++r)
            EXPECT_TRUE(res.page.docs[r] < res.page.docs[r - 1] ||
                        !(res.page.docs[r - 1] <
                          res.page.docs[r]));
    }
    cluster.drainAll();
    const ClusterSnapshot snap = cluster.snapshot();
    EXPECT_EQ(snap.queries, 20u);
    EXPECT_LT(snap.meanCoverage(), 1.0);
    EXPECT_GT(snap.shardMisses, 0u);
    // Leaves drop expired work instead of executing it: everything
    // the gather gave up on was either expired at the worker or
    // executed too late; the pools must stay consistent either way.
    uint64_t expired = 0;
    for (const ShardSnapshot &ss : snap.shards) {
        EXPECT_TRUE(ss.pool.consistent());
        expired += ss.pool.expired;
    }
    EXPECT_GT(expired + answered, 0u);
}

TEST(ClusterServer, HedgingAccountsAndStaysConsistent)
{
    const CorpusGenerator corpus(testCorpusConfig());
    const ShardedIndex si = buildShardedIndex(corpus, 2);

    ClusterConfig cc;
    cc.replicasPerShard = 2;
    cc.pool.numWorkers = 1;
    cc.deadlineNs = 2'000'000'000; // generous
    cc.hedgeDelayNs = 50'000;      // 50 us: hedges fire regularly
    ClusterServer cluster(si.shardPtrs(), cc);

    QueryGenerator gen(testTraffic());
    uint64_t hedges = 0;
    for (uint32_t i = 0; i < 50; ++i) {
        const ClusterResult res = cluster.handle(asRequest(gen.next()));
        EXPECT_EQ(res.page.shardsAnswered, 2u);
        hedges += res.hedges;
    }
    cluster.drainAll();
    const ClusterSnapshot snap = cluster.snapshot();
    EXPECT_EQ(snap.queries, 50u);
    EXPECT_EQ(snap.hedgesIssued, hedges);
    EXPECT_LE(snap.hedgeWins, snap.hedgesIssued);
    uint64_t shard_hedges = 0, executed = 0, cancelled = 0;
    for (const ShardSnapshot &ss : snap.shards) {
        EXPECT_TRUE(ss.pool.consistent());
        shard_hedges += ss.hedges;
        executed += ss.pool.executed();
        cancelled += ss.pool.cancelled;
    }
    EXPECT_EQ(shard_hedges, hedges);
    // Every query needs one execution per shard; hedges add at most
    // one more each (cancellation reclaims the rest).
    EXPECT_GE(executed, 100u);
    EXPECT_LE(executed, 100u + hedges);
    EXPECT_LE(cancelled, hedges);
}

TEST(ClusterServer, ConcurrentCallersStaysConsistent)
{
    const CorpusGenerator corpus(testCorpusConfig());
    const ShardedIndex si = buildShardedIndex(corpus, 2);

    ClusterConfig cc;
    cc.replicasPerShard = 2;
    cc.pool.numWorkers = 1;
    cc.deadlineNs = 2'000'000'000;
    cc.hedgeDelayNs = 200'000;
    ClusterServer cluster(si.shardPtrs(), cc);

    LoadGenConfig lg;
    lg.queries = testTraffic();
    lg.clients = 4;
    lg.numQueries = 120;
    const ClusterLoadReport r = runClusterClosedLoop(cluster, lg);
    EXPECT_GE(r.snap.queries, lg.numQueries);
    EXPECT_GT(r.achievedQps, 0.0);
    EXPECT_EQ(r.snap.shardAnswers + r.snap.shardMisses,
              r.snap.queries * 2);
    EXPECT_EQ(r.snap.queryNs.count(), r.snap.queries);
    for (const ShardSnapshot &ss : r.snap.shards)
        EXPECT_TRUE(ss.pool.consistent());
}

// ---------------------------------------------------------------
// Coverage-aware merge (RootServer::mergeWithCoverage)
// ---------------------------------------------------------------

std::vector<std::vector<ScoredDoc>>
mergeFixture()
{
    // 4 shards; shard 3 will be the one that misses.
    return {
        {{0, 9.0f}, {4, 6.5f}, {8, 3.0f}},
        {{1, 8.0f}, {5, 6.5f}, {9, 2.0f}},
        {{2, 7.0f}, {6, 5.0f}},
        {{3, 9.5f}, {7, 0.5f}},
    };
}

constexpr ShardOutcome kAns = ShardOutcome::Answered;
constexpr ShardOutcome kMiss = ShardOutcome::Missed;

/** Sorted union of the answered partials, truncated to k. */
std::vector<ScoredDoc>
sortedReference(const std::vector<std::vector<ScoredDoc>> &partials,
                const std::vector<ShardOutcome> &outcomes, uint32_t k)
{
    std::vector<ScoredDoc> all;
    for (size_t s = 0; s < partials.size(); ++s)
        if (outcomes[s] == kAns)
            all.insert(all.end(), partials[s].begin(),
                       partials[s].end());
    std::sort(all.begin(), all.end(),
              [](const ScoredDoc &a, const ScoredDoc &b) {
                  return b < a;
              });
    if (all.size() > k)
        all.resize(k);
    return all;
}

TEST(MergeWithCoverage, DegradedPageMatchesSortedReference)
{
    const auto partials = mergeFixture();
    const std::vector<ShardOutcome> outcomes = {kAns, kAns, kAns, kMiss};
    const MergedPage page =
        RootServer::mergeWithCoverage(partials, outcomes, 5);
    EXPECT_EQ(page.shardsTotal, 4u);
    EXPECT_EQ(page.shardsAnswered, 3u);
    EXPECT_EQ(page.shardsUnavailable, 0u);
    EXPECT_TRUE(page.degraded());
    EXPECT_DOUBLE_EQ(page.coverage(), 0.75);

    const auto expected = sortedReference(partials, outcomes, 5);
    ASSERT_EQ(page.docs.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(page.docs[i].doc, expected[i].doc) << "rank " << i;
        EXPECT_FLOAT_EQ(page.docs[i].score, expected[i].score);
    }
    // The missing shard's docs (3, 7) must not appear.
    for (const ScoredDoc &sd : page.docs)
        EXPECT_NE(sd.doc % 4, 3u);
}

TEST(MergeWithCoverage, DeterministicAcrossRepeats)
{
    const auto partials = mergeFixture();
    const std::vector<ShardOutcome> outcomes = {kAns, kMiss, kAns, kAns};
    const MergedPage first =
        RootServer::mergeWithCoverage(partials, outcomes, 4);
    for (int rep = 0; rep < 10; ++rep) {
        const MergedPage again =
            RootServer::mergeWithCoverage(partials, outcomes, 4);
        ASSERT_EQ(again.docs.size(), first.docs.size());
        for (size_t i = 0; i < first.docs.size(); ++i)
            EXPECT_EQ(again.docs[i].doc, first.docs[i].doc);
    }
}

TEST(MergeWithCoverage, TieBreaksByDocIdAscending)
{
    // Docs 4 and 5 share score 6.5: lower doc id ranks first.
    const auto partials = mergeFixture();
    const std::vector<ShardOutcome> outcomes = {kAns, kAns, kMiss, kMiss};
    const MergedPage page =
        RootServer::mergeWithCoverage(partials, outcomes, 6);
    const auto pos = [&](DocId d) {
        for (size_t i = 0; i < page.docs.size(); ++i)
            if (page.docs[i].doc == d)
                return i;
        return page.docs.size();
    };
    EXPECT_LT(pos(4), pos(5));
}

TEST(MergeWithCoverage, DeduplicatesKeepingBestScore)
{
    // A primary and its hedge both answered for shard 0 and ended up
    // in different partial slots: doc 4 appears twice.
    const std::vector<std::vector<ScoredDoc>> partials = {
        {{0, 9.0f}, {4, 6.5f}},
        {{4, 7.5f}, {0, 9.0f}},
    };
    const std::vector<ShardOutcome> outcomes = {kAns, kAns};
    const MergedPage page =
        RootServer::mergeWithCoverage(partials, outcomes, 10);
    ASSERT_EQ(page.docs.size(), 2u);
    EXPECT_EQ(page.docs[0].doc, 0u);
    EXPECT_EQ(page.docs[1].doc, 4u);
    EXPECT_FLOAT_EQ(page.docs[1].score, 7.5f); // best score kept
}

TEST(MergeWithCoverage, ZeroAnsweredYieldsEmptyValidPage)
{
    const auto partials = mergeFixture();
    const std::vector<ShardOutcome> outcomes = {kMiss, kMiss, kMiss,
                                                kMiss};
    const MergedPage page =
        RootServer::mergeWithCoverage(partials, outcomes, 5);
    EXPECT_TRUE(page.docs.empty());
    EXPECT_EQ(page.shardsAnswered, 0u);
    EXPECT_TRUE(page.degraded());
    EXPECT_DOUBLE_EQ(page.coverage(), 0.0);
}

} // namespace
} // namespace wsearch
