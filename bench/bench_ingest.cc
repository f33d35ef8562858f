/**
 * @file
 * Live-index ingest benchmark: sustained add+commit rate into a
 * LiveIndex, query latency against a quiesced snapshot, and the mixed
 * phase -- queries racing a full-speed writer with the background
 * MergeWorker compacting segments underneath. Reports docs/s, query
 * p50/p99, and merge counters; the mixed-phase p99 is the "what does
 * ingest cost the reader" number.
 *
 * Flags:
 *   --smoke        small corpus + short phases; the CI gate
 *
 * Output: human table on stdout plus BENCH_ingest.json.
 */

#include <atomic>
#include <cstdio>
#include <random>
#include <thread>
#include <vector>

#include "common.hh"
#include "search/live/live_index.hh"
#include "search/live/merge_worker.hh"
#include "search/live/snapshot_search.hh"
#include "serve/latency_histogram.hh"
#include "util/table.hh"

namespace wsearch {
namespace {

constexpr TermId kVocab = 50'000;
constexpr uint32_t kTermsPerDoc = 8;
constexpr uint32_t kCommitBatch = 1000;

std::vector<TermId>
docTerms(std::mt19937_64 &rng)
{
    std::vector<TermId> t(kTermsPerDoc);
    for (TermId &x : t)
        x = static_cast<TermId>(rng() % kVocab);
    return t;
}

SearchRequest
randomQuery(std::mt19937_64 &rng)
{
    SearchRequest req;
    req.query.id = rng();
    req.query.terms.resize(2 + rng() % 3);
    for (TermId &t : req.query.terms)
        t = static_cast<TermId>(rng() % kVocab);
    req.query.topK = 10;
    return req;
}

struct IngestResult
{
    double docsPerSec = 0;
    double wallSec = 0;
};

/** Add+commit @p num_docs docs starting at id @p first. */
IngestResult
runIngest(LiveIndex &idx, DocId first, uint32_t num_docs,
          uint64_t rng_seed)
{
    std::mt19937_64 rng(rng_seed);
    const double t0 = bench::nowSec();
    for (uint32_t i = 0; i < num_docs; ++i) {
        idx.add(first + i, docTerms(rng));
        if ((i + 1) % kCommitBatch == 0)
            idx.commit();
    }
    idx.commit();
    IngestResult r;
    r.wallSec = bench::nowSec() - t0;
    r.docsPerSec = num_docs / r.wallSec;
    return r;
}

struct QueryResult
{
    double qps = 0;
    double p50Us = 0;
    double p99Us = 0;
    uint64_t queries = 0;
};

/** Run queries against live snapshots until @p stop (or @p max_q). */
QueryResult
runQueries(const LiveIndex &idx, uint64_t max_q, uint64_t rng_seed,
           const std::atomic<bool> *stop = nullptr)
{
    SnapshotSearcher searcher(0);
    std::mt19937_64 rng(rng_seed);
    LatencyHistogram hist;
    const double t0 = bench::nowSec();
    uint64_t n = 0;
    for (; n < max_q && (!stop || !stop->load()); ++n) {
        const SearchRequest req = randomQuery(rng);
        const auto snap = idx.snapshot();
        const double q0 = bench::nowSec();
        searcher.search(*snap, req);
        hist.record(static_cast<uint64_t>(
            (bench::nowSec() - q0) * 1e9));
    }
    QueryResult r;
    r.queries = n;
    r.qps = n / (bench::nowSec() - t0);
    r.p50Us = hist.quantile(0.50) * 1e-3;
    r.p99Us = hist.quantile(0.99) * 1e-3;
    return r;
}

int
runBenchIngest(bool smoke)
{
    bench::Artifact art("ingest", smoke);
    const uint32_t num_docs = smoke ? 20'000 : 200'000;
    const uint64_t num_queries = smoke ? 2'000 : 20'000;
    std::printf("# bench_ingest: %u docs, %u terms/doc%s\n", num_docs,
                kTermsPerDoc, smoke ? " (smoke)" : "");
    std::fflush(stdout);

    LiveConfig cfg;
    cfg.mergeTriggerSegments = 8;
    cfg.mergeFanIn = 8;

    // Phase 1: ingest-only, merges deferred -- the raw ack rate.
    LiveIndex ingest_idx(cfg);
    const IngestResult ingest =
        runIngest(ingest_idx, 1, num_docs, /*rng_seed=*/1);

    // Compact so phase 2 queries a merged steady-state index.
    while (ingest_idx.mergePending())
        ingest_idx.mergeOnce();

    // Phase 2: query-only against the quiesced snapshot.
    const QueryResult quiet =
        runQueries(ingest_idx, num_queries, /*rng_seed=*/2);

    // Phase 3: queries racing a full-speed writer, background merges
    // on. The writer updates into the already-populated doc space, so
    // segments accumulate tombstones and the MergeWorker has real
    // compaction work.
    std::atomic<bool> writer_done{false};
    IngestResult mixed_ingest;
    QueryResult mixed;
    {
        MergeWorker::Config mc;
        MergeWorker merger(ingest_idx, mc);
        std::thread writer([&] {
            mixed_ingest =
                runIngest(ingest_idx, 1, num_docs, /*rng_seed=*/3);
            writer_done.store(true);
        });
        mixed = runQueries(ingest_idx, ~0ull, /*rng_seed=*/4,
                           &writer_done);
        writer.join();
        merger.stop();
    }
    const LiveStats stats = ingest_idx.stats();

    Table t({"Phase", "Docs/s", "QPS", "p50 (us)", "p99 (us)"});
    t.addRow({"ingest-only", Table::fmt(ingest.docsPerSec, 0), "-",
              "-", "-"});
    t.addRow({"query-only", "-", Table::fmt(quiet.qps, 0),
              Table::fmt(quiet.p50Us, 1), Table::fmt(quiet.p99Us, 1)});
    t.addRow({"mixed", Table::fmt(mixed_ingest.docsPerSec, 0),
              Table::fmt(mixed.qps, 0), Table::fmt(mixed.p50Us, 1),
              Table::fmt(mixed.p99Us, 1)});
    t.print();
    std::printf("\nlive docs %llu, segments %u, merges %llu "
                "(%llu crashed), version %llu\n",
                static_cast<unsigned long long>(stats.liveDocs),
                stats.segments,
                static_cast<unsigned long long>(stats.merges),
                static_cast<unsigned long long>(stats.mergesCrashed),
                static_cast<unsigned long long>(stats.version));

    // Background merges race the writer, so segment and merge counts
    // legitimately vary from run to run; only the doc ledger is
    // deterministic. The ingest floor is 10k docs/s sustained: the
    // in-memory buffer acks orders of magnitude faster, so a miss
    // means an accidental O(n^2) crept into commit or publish.
    art.config("docs", num_docs)
        .config("terms_per_doc", kTermsPerDoc)
        .config("commit_batch", kCommitBatch)
        .add("ingest_docs_per_sec", ingest.docsPerSec)
        .add("ingest_wall_sec", ingest.wallSec)
        .add("query_only_qps", quiet.qps)
        .add("query_only_p50_us", quiet.p50Us)
        .add("query_only_p99_us", quiet.p99Us)
        .add("mixed_docs_per_sec", mixed_ingest.docsPerSec)
        .add("mixed_qps", mixed.qps)
        .add("mixed_p50_us", mixed.p50Us)
        .add("mixed_p99_us", mixed.p99Us)
        .add("mixed_queries", mixed.queries)
        .counter("live_docs", stats.liveDocs)
        .add("segments", stats.segments)
        .add("merges", stats.merges)
        .add("final_version", stats.version)
        .check("below_ingest_floor",
               ingest.docsPerSec < 10'000.0 ? 1 : 0);
    return art.finish();
}

} // namespace
} // namespace wsearch

int
main(int argc, char **argv)
{
    return wsearch::runBenchIngest(
        wsearch::bench::parseArgs(argc, argv).smoke);
}
