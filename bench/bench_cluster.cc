/**
 * @file
 * Scatter-gather cluster characterization (src/serve cluster layer).
 * Three sections, each a closed-loop run against a fresh cluster:
 *
 *   1. shard fan-out sweep at a fixed generous deadline, with the
 *      per-shard corpus held constant (weak scaling): every query
 *      waits for the slowest of S shards, so tail latency grows with
 *      fan-out even though per-shard work does not -- the
 *      tail-at-scale effect the serving tree must engineer around;
 *   2. deadline sweep at the widest fan-out: tightening the budget
 *      caps the tail but costs coverage -- the graceful-degradation
 *      trade the root makes instead of failing queries;
 *   3. hedging: replicas suffer occasional background-interference
 *      stalls (the pool's interference knob); with two replicas per
 *      shard, a backup request for the slowest few percent of shard
 *      answers cuts p99 for a few percent of extra executed leaf
 *      load (cancellation reclaims the rest).
 *
 * A fourth section, selected with --faults, injects deterministic
 * fault plans (serve/fault.hh) into a hedged, retrying cluster and
 * reports what each failure mode costs: coverage, unavailable-shard
 * counts, retry/hedge traffic, and the latency tail.
 *
 * --smoke shrinks the per-shard corpus and the query count; every
 * section runs 4 closed-loop clients.
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common.hh"
#include "search/corpus.hh"
#include "search/sharding.hh"
#include "serve/cluster.hh"
#include "serve/fault.hh"
#include "serve/loadgen.hh"
#include "util/table.hh"

namespace wsearch {
namespace {

QueryGenerator::Config
trafficFor(const CorpusConfig &corpus)
{
    QueryGenerator::Config qc;
    qc.vocabSize = corpus.vocabSize;
    qc.distinctQueries = 1u << 16;
    qc.popularityTheta = 0.9;
    qc.maxTerms = 3;
    qc.conjunctiveFrac = 0.7;
    return qc;
}

std::string
fmtDeadline(uint64_t ns)
{
    if (ns == 0)
        return "none";
    if (ns % 1'000'000 == 0)
        return Table::fmtInt(ns / 1'000'000) + " ms";
    return Table::fmtInt(ns / 1'000) + " us";
}

/** Closed-loop clients of every section. */
constexpr uint32_t kClients = 4;

void
runBenchCluster(const bench::Args &args)
{
    const bool fast = args.smoke;

    // Weak scaling: the per-shard corpus is constant, so a bigger
    // cluster serves a bigger corpus at the same per-shard work and
    // latency differences are pure fan-out effects.
    const uint32_t per_shard_docs = fast ? 1000 : 2500;
    CorpusConfig cc;
    cc.vocabSize = 20000;
    std::printf("# bench_cluster: %u docs/shard, %u terms, %u "
                "closed-loop clients\n",
                per_shard_docs, cc.vocabSize, kClients);
    std::fflush(stdout);
    const auto corpus_for = [&cc, per_shard_docs](uint32_t num_shards) {
        CorpusConfig scaled = cc;
        scaled.numDocs = per_shard_docs * num_shards;
        return CorpusGenerator(scaled);
    };

    LoadGenConfig lg;
    lg.queries = trafficFor(cc);
    lg.clients = kClients;
    lg.numQueries = fast ? 800 : 3000;

    // --- 1. Shard fan-out sweep at a fixed deadline. -----------------
    const uint64_t wide_deadline = 50'000'000; // 50 ms: rarely missed
    std::printf("\n## Fan-out sweep (deadline %s)\n",
                fmtDeadline(wide_deadline).c_str());
    Table fan({"Shards", "QPS", "Coverage", "Degraded", "p50 (us)",
               "p95 (us)", "p99 (us)", "p99.9 (us)", "shard p50 (us)",
               "shard p99 (us)"});
    for (const uint32_t s : {1u, 2u, 4u, 8u}) {
        const CorpusGenerator corpus = corpus_for(s);
        const ShardedIndex si = buildShardedIndex(corpus, s);
        ClusterConfig cfg;
        cfg.pool.numWorkers = 1;
        cfg.deadlineNs = wide_deadline;
        ClusterServer cluster(si.shardPtrs(), cfg);
        const ClusterLoadReport r = runClusterClosedLoop(cluster, lg);
        const LatencyHistogram &q = r.snap.queryNs;
        fan.addRow({Table::fmtInt(s), Table::fmt(r.achievedQps, 1),
                    Table::fmtPct(r.snap.meanCoverage(), 2),
                    Table::fmtInt(r.snap.degraded),
                    fmtUsec(q.quantile(0.50)), fmtUsec(q.quantile(0.95)),
                    fmtUsec(q.quantile(0.99)),
                    fmtUsec(q.quantile(0.999)),
                    fmtUsec(r.snap.shardNs.quantile(0.50)),
                    fmtUsec(r.snap.shardNs.quantile(0.99))});
        std::fflush(stdout);
    }
    fan.print();

    // --- 2. Deadline sweep at the widest fan-out. --------------------
    const uint32_t sweep_shards = 8;
    std::printf("\n## Deadline sweep (%u shards)\n", sweep_shards);
    const CorpusGenerator sweep_corpus = corpus_for(sweep_shards);
    const ShardedIndex sweep_index =
        buildShardedIndex(sweep_corpus, sweep_shards);
    Table dl({"Deadline", "Coverage", "Degraded", "Expired", "p50 (us)",
              "p99 (us)", "p99.9 (us)"});
    for (const uint64_t deadline_ns :
         {uint64_t{0}, uint64_t{50'000'000}, uint64_t{10'000'000},
          uint64_t{2'000'000}, uint64_t{500'000}, uint64_t{200'000}}) {
        ClusterConfig cfg;
        cfg.pool.numWorkers = 1;
        cfg.deadlineNs = deadline_ns;
        ClusterServer cluster(sweep_index.shardPtrs(), cfg);
        const ClusterLoadReport r = runClusterClosedLoop(cluster, lg);
        uint64_t expired = 0;
        for (const ShardSnapshot &ss : r.snap.shards)
            expired += ss.pool.expired;
        const LatencyHistogram &q = r.snap.queryNs;
        dl.addRow({fmtDeadline(deadline_ns),
                   Table::fmtPct(r.snap.meanCoverage(), 2),
                   Table::fmtInt(r.snap.degraded),
                   Table::fmtInt(expired), fmtUsec(q.quantile(0.50)),
                   fmtUsec(q.quantile(0.99)),
                   fmtUsec(q.quantile(0.999))});
        std::fflush(stdout);
    }
    dl.print();

    // --- 3. Hedging stragglers (2 replicas per shard). ---------------
    const uint32_t hedge_shards = 4;
    // The stall must sit well above the ordinary queueing tail or the
    // interference never dominates p99 and a hedge has nothing to
    // beat; 20 ms is ~2-3x the saturated 8-shard p99 on the reference
    // 1-CPU host.
    const uint32_t interference_every = 128;
    const uint64_t interference_pause = 20'000'000; // 20 ms stall
    std::printf("\n## Hedging (%u shards, 2 replicas each; "
                "1/%u executions stall %s)\n",
                hedge_shards, interference_every,
                fmtDeadline(interference_pause).c_str());
    const CorpusGenerator hedge_corpus = corpus_for(hedge_shards);
    const ShardedIndex hedge_index =
        buildShardedIndex(hedge_corpus, hedge_shards);
    ClusterConfig base;
    base.replicasPerShard = 2;
    base.pool.numWorkers = 1;
    base.pool.interferenceEveryN = interference_every;
    base.pool.interferencePauseNs = interference_pause;
    base.deadlineNs = wide_deadline;

    // Baseline (hedging off) calibrates the straggler threshold: a
    // delay at the shard-latency p95 hedges only the slowest ~5% of
    // shard answers -- the interference stalls sit far above it.
    ClusterLoadReport baseline;
    {
        ClusterServer cluster(hedge_index.shardPtrs(), base);
        baseline = runClusterClosedLoop(cluster, lg);
    }
    const uint64_t p95 = baseline.snap.shardNs.quantile(0.95);
    const uint64_t p90 = baseline.snap.shardNs.quantile(0.90);

    Table hedge({"Hedge delay", "Hedges", "Wins", "Extra leaf load",
                 "Coverage", "p50 (us)", "p95 (us)", "p99 (us)",
                 "p99.9 (us)"});
    const auto add_row = [&hedge](const char *label,
                                  const ClusterLoadReport &r) {
        const LatencyHistogram &q = r.snap.queryNs;
        hedge.addRow({label, Table::fmtInt(r.snap.hedgesIssued),
                      Table::fmtInt(r.snap.hedgeWins),
                      Table::fmtPct(r.extraLeafLoad(), 2),
                      Table::fmtPct(r.snap.meanCoverage(), 2),
                      fmtUsec(q.quantile(0.50)),
                      fmtUsec(q.quantile(0.95)),
                      fmtUsec(q.quantile(0.99)),
                      fmtUsec(q.quantile(0.999))});
    };
    add_row("off", baseline);
    {
        ClusterConfig cfg = base;
        cfg.hedgeDelayNs = std::max<uint64_t>(p95, 1);
        ClusterServer cluster(hedge_index.shardPtrs(), cfg);
        add_row("shard p95", runClusterClosedLoop(cluster, lg));
        std::fflush(stdout);
    }
    {
        ClusterConfig cfg = base;
        cfg.hedgeDelayNs = std::max<uint64_t>(p90, 1);
        ClusterServer cluster(hedge_index.shardPtrs(), cfg);
        add_row("shard p90", runClusterClosedLoop(cluster, lg));
    }
    hedge.print();

    std::printf("\n## Full cluster report (hedging at shard p95)\n");
    {
        ClusterConfig cfg = base;
        cfg.hedgeDelayNs = std::max<uint64_t>(p95, 1);
        ClusterServer cluster(hedge_index.shardPtrs(), cfg);
        const ClusterLoadReport r = runClusterClosedLoop(cluster, lg);
        printClusterReport(r.snap, r.durationSec);
    }
}

// --- 4. Fault sweep (--faults). ----------------------------------
void
runBenchFaults(const bench::Args &args)
{
    const bool fast = args.smoke;
    const uint32_t num_shards = 4;
    const uint32_t per_shard_docs = fast ? 1000 : 2500;
    CorpusConfig cc;
    cc.vocabSize = 20000;
    cc.numDocs = per_shard_docs * num_shards;
    std::printf("# bench_cluster --faults: %u shards x 2 replicas, "
                "%u docs/shard, %u clients\n",
                num_shards, per_shard_docs, kClients);
    std::fflush(stdout);
    const CorpusGenerator corpus(cc);
    const ShardedIndex si = buildShardedIndex(corpus, num_shards);

    LoadGenConfig lg;
    lg.queries = trafficFor(cc);
    lg.clients = kClients;
    lg.numQueries = fast ? 600 : 2000;

    const uint64_t deadline = 10'000'000; // 10 ms
    std::printf("deadline %s, hedge at 2 ms, 1 retry/shard, eject "
                "after 3 failures\n",
                fmtDeadline(deadline).c_str());

    struct Scenario
    {
        const char *name;
        void (*setup)(FaultPlan &);
    };
    const Scenario scenarios[] = {
        {"none", [](FaultPlan &) {}},
        // 1% of executions stall 2-8 ms: stragglers for hedging.
        {"1% delay 2-8ms",
         [](FaultPlan &p) {
             p.defaultSpec().delayProb = 0.01;
             p.defaultSpec().delayMinNs = 2'000'000;
             p.defaultSpec().delayMaxNs = 8'000'000;
         }},
        // 5% of executions fail outright: retries go elsewhere.
        {"5% failures",
         [](FaultPlan &p) { p.defaultSpec().failProb = 0.05; }},
        // One replica of shard 0 dead: its twin carries the shard.
        {"1 replica crashed",
         [](FaultPlan &p) { p.replicaSpec(0, 0).crashAtNs = 1; }},
        // Shard 0 fully dead: coverage loss, fail-fast unavailable.
        {"shard 0 crashed",
         [](FaultPlan &p) {
             p.replicaSpec(0, 0).crashAtNs = 1;
             p.replicaSpec(0, 1).crashAtNs = 1;
         }},
        // Everything at once, milder rates.
        {"combo",
         [](FaultPlan &p) {
             p.defaultSpec().delayProb = 0.005;
             p.defaultSpec().delayMinNs = 2'000'000;
             p.defaultSpec().delayMaxNs = 8'000'000;
             p.defaultSpec().failProb = 0.02;
             p.defaultSpec().dropProb = 0.005;
             p.defaultSpec().corruptProb = 0.005;
             p.replicaSpec(0, 0).crashAtNs = 1;
         }},
    };

    Table t({"Scenario", "Coverage", "Unavail", "Retries", "Hedges",
             "Wins", "p50 (us)", "p99 (us)", "p99.9 (us)"});
    for (const Scenario &sc : scenarios) {
        FaultPlan plan;
        sc.setup(plan);
        ClusterConfig cfg;
        cfg.replicasPerShard = 2;
        cfg.pool.numWorkers = 1;
        cfg.deadlineNs = deadline;
        cfg.hedgeDelayNs = 2'000'000;
        cfg.maxRetriesPerShard = 1;
        cfg.retryBackoffNs = 200'000;
        cfg.ejectAfterFailures = 3;
        cfg.probationNs = 50'000'000;
        cfg.faults = &plan;
        ClusterServer cluster(si.shardPtrs(), cfg);
        const ClusterLoadReport r = runClusterClosedLoop(cluster, lg);
        const LatencyHistogram &q = r.snap.queryNs;
        t.addRow({sc.name, Table::fmtPct(r.snap.meanCoverage(), 2),
                  Table::fmtInt(r.snap.shardsUnavailable),
                  Table::fmtInt(r.snap.retriesIssued),
                  Table::fmtInt(r.snap.hedgesIssued),
                  Table::fmtInt(r.snap.hedgeWins),
                  fmtUsec(q.quantile(0.50)), fmtUsec(q.quantile(0.99)),
                  fmtUsec(q.quantile(0.999))});
        std::fflush(stdout);
    }
    t.print();
}

} // namespace
} // namespace wsearch

int
main(int argc, char **argv)
{
    bool faults = false;
    const wsearch::bench::Args args =
        wsearch::bench::parseArgs(argc, argv, &faults);
    if (faults)
        wsearch::runBenchFaults(args);
    else
        wsearch::runBenchCluster(args);
    return 0;
}
