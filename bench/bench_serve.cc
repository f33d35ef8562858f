/**
 * @file
 * Serving-runtime characterization: drives the concurrent leaf worker
 * pool (src/serve) with an open-loop Poisson load generator across a
 * sweep of offered QPS and prints the throughput-latency curve whose
 * saturation knee the paper's SMT/core-trading analysis presupposes
 * (§IV: the leaf is throughput-bound but latency-constrained).
 *
 * Four sections:
 *   1. closed-loop calibration of the saturation capacity;
 *   2. the open-loop QPS sweep (the knee table);
 *   3. the same mid-load point with the query-cache tier enabled,
 *      showing the cache absorbing popular queries ahead of the queue;
 *   4. thread scaling across 1/2/4/8 workers on two mixes (queue-only
 *      and cache-hit-heavy), the section that loads the data plane
 *      hardest: the one-mutex admission queue, the one-mutex LRU
 *      cache tier, and the per-worker stats. Every row's
 *      admission accounting is deterministic: its counters are gated
 *      by scripts/bench_diff.py, and a row that sheds or loses a
 *      query fails the run's failed_scaling_rows check. The
 *      throughput/speedup columns are wall-clock and only meaningful
 *      on multi-core hardware. On a host with at least 4 hardware
 *      threads, a mix whose 4-worker QPS is below twice its 1-worker
 *      QPS prints a GitHub Actions ::warning:: line; the warning
 *      never fails the run and adds nothing to the artifact.
 *
 * --smoke shrinks the corpus, query counts and point durations;
 * sections 1-3 run 2 workers.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common.hh"
#include "search/corpus.hh"
#include "search/index.hh"
#include "serve/loadgen.hh"
#include "serve/serve_stats.hh"
#include "serve/worker_pool.hh"
#include "util/table.hh"

namespace wsearch {
namespace {

QueryGenerator::Config
trafficFor(const CorpusConfig &corpus)
{
    QueryGenerator::Config qc;
    qc.vocabSize = corpus.vocabSize; // terms must exist in the shard
    qc.distinctQueries = 1u << 16;
    qc.popularityTheta = 0.9;
    qc.maxTerms = 3;
    qc.conjunctiveFrac = 0.7;
    return qc;
}

int
runBenchServe(const bench::Args &args)
{
    const bool fast = args.smoke;
    bench::Artifact art("serve", fast);
    const uint32_t workers = 2;

    CorpusConfig cc;
    cc.numDocs = fast ? 6000 : 20000;
    cc.vocabSize = 20000;
    std::printf("# bench_serve: building index (%u docs, %u terms), "
                "%u workers\n",
                cc.numDocs, cc.vocabSize, workers);
    std::fflush(stdout);
    const CorpusGenerator corpus(cc);
    const MaterializedIndex index(corpus);

    LoadGenConfig lg;
    lg.queries = trafficFor(cc);

    // --- 1. Calibrate saturation capacity (closed loop). -------------
    LeafWorkerPool::Config pc;
    pc.numWorkers = workers;
    pc.queueCapacity = 512;
    double capacity;
    {
        LeafWorkerPool pool(index, pc);
        LoadGenConfig cal = lg;
        cal.clients = 4 * workers;
        cal.numQueries = fast ? 2000 : 8000;
        const LoadReport r = runClosedLoop(pool, cal);
        capacity = r.achievedQps;
        std::printf("\n## Closed-loop calibration (%u clients)\n",
                    cal.clients);
        Table t({"Clients", "Queries", "Capacity QPS", "p50 (us)",
                 "p99 (us)"});
        t.addRow({Table::fmtInt(cal.clients),
                  Table::fmtInt(r.snap.completed),
                  Table::fmt(capacity, 1),
                  fmtUsec(r.snap.sojournNs.quantile(0.50)),
                  fmtUsec(r.snap.sojournNs.quantile(0.99))});
        t.print();
    }

    // --- 2. Open-loop QPS sweep: the throughput-latency knee. --------
    std::printf("\n## Open-loop QPS sweep (Poisson arrivals)\n");
    const std::vector<double> fractions = {0.3, 0.5, 0.7, 0.85,
                                           0.95, 1.05, 1.2, 1.5};
    const double point_sec = fast ? 0.5 : 2.0;
    Table sweep({"Offered QPS", "Achieved QPS", "Shed %",
                 "Mean qdepth", "p50 (us)", "p95 (us)", "p99 (us)",
                 "p99.9 (us)"});
    ServeSnapshot saturated;
    for (const double f : fractions) {
        const double qps = std::max(1.0, f * capacity);
        LeafWorkerPool pool(index, pc);
        LoadGenConfig point = lg;
        point.offeredQps = qps;
        point.numQueries = std::max<uint64_t>(
            500, static_cast<uint64_t>(qps * point_sec));
        const LoadReport r = runOpenLoop(pool, point);
        const LatencyHistogram &s = r.snap.sojournNs;
        sweep.addRow({Table::fmt(qps, 1), Table::fmt(r.achievedQps, 1),
                      Table::fmtPct(r.shedFraction, 1),
                      Table::fmt(r.meanQueueDepth, 1),
                      fmtUsec(s.quantile(0.50)),
                      fmtUsec(s.quantile(0.95)),
                      fmtUsec(s.quantile(0.99)),
                      fmtUsec(s.quantile(0.999))});
        std::fflush(stdout);
        if (f == fractions.back())
            saturated = r.snap;
    }
    sweep.print();

    std::printf("\n## Saturated-point report (%.0f%% of capacity)\n",
                fractions.back() * 100);
    printServeReport(saturated, 0.0);

    // --- 3. Cache tier in front of the pool. -------------------------
    std::printf("\n## Query-cache tier at 70%% of capacity\n");
    Table ct({"Cache entries", "Hit rate", "Evictions", "Achieved QPS",
              "p50 (us)", "p99 (us)"});
    double cached_hit_rate = 0, cached_qps = 0;
    for (const size_t cache_cap : {size_t{0}, size_t{4096}}) {
        LeafWorkerPool::Config cpc = pc;
        cpc.cacheCapacity = cache_cap;
        LeafWorkerPool pool(index, cpc);
        LoadGenConfig point = lg;
        point.offeredQps = std::max(1.0, 0.7 * capacity);
        point.numQueries = std::max<uint64_t>(
            500,
            static_cast<uint64_t>(point.offeredQps * point_sec));
        const LoadReport r = runOpenLoop(pool, point);
        const ServeSnapshot &s = r.snap;
        const double hit_rate = s.cacheLookups
            ? static_cast<double>(s.cacheHits) /
                static_cast<double>(s.cacheLookups)
            : 0.0;
        // Cache hits answer in-line; fold them into the latency view.
        LatencyHistogram all = s.sojournNs;
        all.merge(s.cacheHitNs);
        ct.addRow({Table::fmtInt(cache_cap), Table::fmtPct(hit_rate, 1),
                   Table::fmtInt(s.cacheEvictions),
                   Table::fmt(r.achievedQps, 1),
                   fmtUsec(all.quantile(0.50)),
                   fmtUsec(all.quantile(0.99))});
        if (cache_cap) {
            cached_hit_rate = hit_rate;
            cached_qps = r.achievedQps;
        }
    }
    ct.print();

    // --- 4. Thread scaling: up to 16 clients on 8 workers. ----------
    // Closed loop so every submission resolves (no shed): the row
    // counters (queries, resolved, shed, consistency) are exactly
    // reproducible, while qps/speedup are wall-clock and only
    // materialize on multi-core CI hardware.
    struct ScaleMix
    {
        const char *name;
        size_t cacheCapacity;
        uint32_t distinctQueries;
    };
    const ScaleMix mixes[] = {
        // Every query through the admission queue to a worker.
        {"queue", 0, 1u << 16},
        // Popular repeats resolved by the cache tier's one LRU.
        {"cachehit", 4096, 1024},
    };
    const uint32_t scale_workers[] = {1, 2, 4, 8};
    const uint64_t scale_queries = fast ? 1500 : 6000;
    std::printf("\n## Thread scaling (closed loop, %llu queries per "
                "point)\n",
                static_cast<unsigned long long>(scale_queries));
    Table st({"Mix", "Workers", "Queries", "Resolved", "Shed",
              "Hit rate", "QPS", "Speedup vs 1w"});
    uint64_t failed_rows = 0;
    std::vector<const char *> flat_mixes; // 4 workers < 2x 1 worker
    for (const ScaleMix &mix : mixes) {
        double qps_1w = 0.0;
        for (const uint32_t w : scale_workers) {
            LeafWorkerPool::Config spc;
            spc.numWorkers = w;
            spc.queueCapacity = 512;
            spc.cacheCapacity = mix.cacheCapacity;
            LeafWorkerPool pool(index, spc);
            LoadGenConfig run = lg;
            run.queries.distinctQueries = mix.distinctQueries;
            run.clients = 2 * w;
            run.numQueries = scale_queries;
            const double s0 = bench::nowSec();
            const LoadReport r = runClosedLoop(pool, run);
            const double wall_sec = bench::nowSec() - s0;
            const ServeSnapshot &s = r.snap;
            const uint64_t resolved = s.completed + s.cacheHits;
            if (qps_1w == 0.0)
                qps_1w = r.achievedQps;
            const double speedup =
                qps_1w > 0 ? r.achievedQps / qps_1w : 0.0;
            if (w == 4 && speedup < 2.0)
                flat_mixes.push_back(mix.name);
            const double hit_rate = s.cacheLookups
                ? static_cast<double>(s.cacheHits) /
                    static_cast<double>(s.cacheLookups)
                : 0.0;
            // The row's accounting invariant: every submitted query
            // resolved, none shed, all identities intact.
            if (s.submitted != scale_queries ||
                resolved != scale_queries || s.shed != 0 ||
                !s.consistent())
                ++failed_rows;
            art.row()
                .key("mix", mix.name)
                .key("workers", w)
                .counter("queries", s.submitted)
                .counter("resolved", resolved)
                .counter("shed", s.shed)
                .counter("stats_consistent", s.consistent() ? 1 : 0)
                .add("wall_sec", wall_sec)
                .add("qps", r.achievedQps)
                .add("speedup_vs_1w", speedup)
                .add("hit_rate", hit_rate);
            st.addRow({mix.name, Table::fmtInt(w),
                       Table::fmtInt(s.submitted),
                       Table::fmtInt(resolved), Table::fmtInt(s.shed),
                       Table::fmtPct(hit_rate, 1),
                       Table::fmt(r.achievedQps, 1),
                       Table::fmt(speedup, 2)});
            std::fflush(stdout);
        }
    }
    st.print();
    std::printf("Speedup columns need real cores: on a single-CPU "
                "host the workers serialize and the ratio stays ~1.\n");
    // Scaling tripwire: warns, never fails, and stays out of the
    // artifact, whose sections bench_diff.py gates.
    if (std::thread::hardware_concurrency() >= 4)
        for (const char *m : flat_mixes)
            std::printf("::warning::bench_serve: the %s mix's 4-worker "
                        "QPS is below 2x its 1-worker QPS\n",
                        m);

    art.config("workers", workers)
        .config("scaling_queries", scale_queries)
        .add("docs", cc.numDocs)
        .add("capacity_qps", capacity)
        .add("saturated_completed", saturated.completed)
        .add("saturated_p50_us",
             saturated.sojournNs.quantile(0.50) * 1e-3)
        .add("saturated_p99_us",
             saturated.sojournNs.quantile(0.99) * 1e-3)
        .add("cached_hit_rate", cached_hit_rate)
        .add("cached_qps", cached_qps)
        .counter("scaling_rows_ok", failed_rows == 0 ? 1 : 0)
        .check("failed_scaling_rows", failed_rows);
    return art.finish();
}

} // namespace
} // namespace wsearch

int
main(int argc, char **argv)
{
    return wsearch::runBenchServe(wsearch::bench::parseArgs(argc, argv));
}
