/**
 * @file
 * End-to-end mini search system: build a materialized inverted index
 * over a synthetic corpus in two disjoint shards, serve real queries
 * through the scatter-gather cluster (a query-cache tier in front of
 * each leaf, the root merging their top-k), then run the
 * *instrumented* engine as a trace source through the cache simulator
 * and print its memory-hierarchy profile — the same pipeline the
 * paper used with production servers and Pin traces.
 *
 *   ./examples/search_leaf
 *
 * Exits 1 when the sample result page holds a doc id outside the
 * corpus or the same doc twice.
 */

#include <algorithm>
#include <cstdio>
#include <unordered_set>

#include "cpu/system.hh"
#include "search/engine_trace.hh"
#include "search/sharding.hh"
#include "serve/cluster.hh"

namespace wsearch {
namespace {

/** Part 1: functional search over a real (materialized) index,
 *  served by a two-shard cluster. @return false on a bad page. */
bool
serveThroughCluster()
{
    CorpusConfig cc;
    cc.numDocs = 5000;
    cc.vocabSize = 4000;
    cc.avgDocLen = 100;
    CorpusGenerator corpus(cc);
    const ShardedIndex index = buildShardedIndex(corpus, 2);
    uint64_t postings = 0;
    for (uint32_t s = 0; s < index.numShards(); ++s)
        postings += index.shard(s).shardBytes();
    std::printf("Built index: %u docs in %u shards, %s of postings\n",
                cc.numDocs, index.numShards(),
                formatBytes(postings).c_str());

    ClusterConfig ccfg;
    ccfg.pool.numWorkers = 2;
    ccfg.pool.cacheCapacity = 1024;
    ccfg.deadlineNs = 0; // wait for every shard
    ClusterServer cluster(index.shardPtrs(), ccfg);

    QueryGenerator::Config qc;
    qc.vocabSize = cc.vocabSize;
    qc.distinctQueries = 2000;
    QueryGenerator queries(qc);
    for (int i = 0; i < 2000; ++i) {
        SearchRequest req;
        req.query = queries.next();
        cluster.handle(req);
    }
    const ClusterSnapshot snap = cluster.snapshot();
    uint64_t cache_hits = 0;
    for (const ShardSnapshot &s : snap.shards)
        cache_hits += s.pool.cacheHits;
    std::printf("Served %llu queries; %llu shard answers, %llu of "
                "them from the cache tier\n",
                (unsigned long long)snap.queries,
                (unsigned long long)snap.shardAnswers,
                (unsigned long long)cache_hits);

    const Query sample = queries.materialize(123);
    SearchRequest sample_req;
    sample_req.query = sample;
    const std::vector<ScoredDoc> results =
        cluster.handle(sample_req).page.docs;
    std::printf("Sample query %llu (%zu terms, %s): top hits ",
                (unsigned long long)sample.id, sample.terms.size(),
                sample.conjunctive ? "AND" : "OR");
    for (size_t i = 0; i < std::min<size_t>(3, results.size()); ++i)
        std::printf("doc%u(%.2f) ", results[i].doc, results[i].score);
    std::printf("\n\n");

    std::unordered_set<DocId> seen;
    for (const ScoredDoc &sd : results) {
        if (sd.doc >= cc.numDocs || !seen.insert(sd.doc).second) {
            std::fprintf(stderr, "bad sample page: doc%u is %s\n",
                         sd.doc, sd.doc >= cc.numDocs
                             ? "outside the corpus" : "repeated");
            return false;
        }
    }
    return true;
}

} // namespace
} // namespace wsearch

int
main()
{
    using namespace wsearch;

    if (!serveThroughCluster())
        return 1;

    // --- Part 2: the instrumented engine as a trace source over a
    //     production-scale procedural shard, driven through the
    //     PLT1-like hierarchy.
    ProceduralIndex::Config pc;
    pc.numDocs = 1u << 22;
    pc.numTerms = 1u << 20;
    ProceduralIndex shard(pc);
    std::printf("Procedural shard: %s nominal\n",
                formatBytes(shard.shardBytes()).c_str());

    EngineTraceConfig tc;
    tc.numThreads = 8;
    tc.queries.vocabSize = shard.numTerms();
    EngineTraceSource trace(shard, tc);

    SystemConfig sys;
    sys.hierarchy.numCores = 8;
    sys.hierarchy.llc = cache_gen_llc(40 * MiB, 64, 20);
    SystemSimulator sim(sys);
    const SystemResult r = sim.run(trace, 4'000'000, 12'000'000);

    std::printf("Engine-trace profile on a 40 MiB-L3 hierarchy:\n");
    std::printf("  queries executed    %llu (+%llu absorbed by the "
                "cache tier)\n",
                (unsigned long long)trace.queriesExecuted(),
                (unsigned long long)trace.cacheAbsorbed());
    std::printf("  IPC per thread      %.2f\n", r.ipcPerThread);
    std::printf("  L2 MPKI             %.2f\n",
                r.l2.mpkiTotal(r.instructions));
    std::printf("  L3 MPKI             %.2f (shard %.2f, heap %.2f)\n",
                r.l3.mpkiTotal(r.instructions),
                r.l3.mpki(AccessKind::Shard, r.instructions),
                r.l3.mpki(AccessKind::Heap, r.instructions));
    std::printf("  L3 hit rate         %.1f%%\n",
                100.0 * r.l3.hitRateTotal());
    return 0;
}
