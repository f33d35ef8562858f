/**
 * ServeSnapshot unit tests: merge() must accumulate every counter --
 * including the fault-injection and drop-reason counters added with
 * the deadline, hedging, and fault layers -- and executed() /
 * consistent() must agree with the documented accounting identities.
 * A merge that silently forgets a counter shows up here, not as a
 * subtly-wrong fleet report.
 *
 * Also covers the per-worker stats aggregation: LeafWorkerPool::
 * snapshot() SUMS counters from per-worker slots plus the pool's
 * admission counters (submitted is derived, not stored), so these
 * tests pin that the aggregated view still satisfies every identity
 * -- after a drain and mid-flight.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <thread>

#include "search/corpus.hh"
#include "search/index.hh"
#include "search/query.hh"
#include "serve/serve_stats.hh"
#include "serve/worker_pool.hh"

namespace wsearch {
namespace {

/** A snapshot with every field distinct, so a dropped or swapped
 *  counter in merge() cannot cancel out. */
ServeSnapshot
sampleSnapshot(uint64_t base)
{
    ServeSnapshot s;
    s.shed = base + 1;
    s.cacheHits = base + 2;
    s.refused = base + 3;
    s.expired = base + 4;
    s.cancelled = base + 5;
    s.faultFailed = base + 6;
    s.faultDropped = base + 7;
    s.faultCorrupted = base + 8;
    s.cacheLookups = base + 9;
    s.cacheEvictions = base + 10;
    s.snapshotsAdopted = base + 16;
    s.handoffsRejected = base + 17;
    s.indexVersionLow = base + 18;
    s.indexVersionHigh = base + 19;
    // Keeps both consistency identities true for any base.
    s.completed = s.expired + s.cancelled + s.faultFailed + base + 20;
    s.accepted = s.completed;
    s.submitted = s.accepted + s.shed + s.cacheHits + s.refused;
    s.sojournNs.record(base + 11);
    s.serviceNs.record(base + 12);
    s.cacheHitNs.record(base + 13);
    s.workers.push_back({base + 14, base + 15});
    return s;
}

TEST(ServeSnapshot, MergeAccumulatesEveryCounter)
{
    ServeSnapshot a = sampleSnapshot(0);
    const ServeSnapshot a0 = a;
    const ServeSnapshot b = sampleSnapshot(1000);
    ASSERT_TRUE(a.consistent());
    ASSERT_TRUE(b.consistent());

    a.merge(b);
    EXPECT_EQ(a.submitted, a0.submitted + b.submitted);
    EXPECT_EQ(a.accepted, a0.accepted + b.accepted);
    EXPECT_EQ(a.completed, a0.completed + b.completed);
    EXPECT_EQ(a.shed, 1u + 1001u);
    EXPECT_EQ(a.cacheHits, 2u + 1002u);
    EXPECT_EQ(a.refused, 3u + 1003u);
    EXPECT_EQ(a.expired, 4u + 1004u);
    EXPECT_EQ(a.cancelled, 5u + 1005u);
    EXPECT_EQ(a.faultFailed, 6u + 1006u);
    EXPECT_EQ(a.faultDropped, 7u + 1007u);
    EXPECT_EQ(a.faultCorrupted, 8u + 1008u);
    EXPECT_EQ(a.cacheLookups, 9u + 1009u);
    EXPECT_EQ(a.cacheEvictions, 10u + 1010u);
    EXPECT_EQ(a.snapshotsAdopted, 16u + 1016u);
    EXPECT_EQ(a.handoffsRejected, 17u + 1017u);
    // Version range: min over non-zero lows, max over highs.
    EXPECT_EQ(a.indexVersionLow, 18u);
    EXPECT_EQ(a.indexVersionHigh, 1019u);
    EXPECT_EQ(a.sojournNs.count(), 2u);
    EXPECT_EQ(a.serviceNs.count(), 2u);
    EXPECT_EQ(a.cacheHitNs.count(), 2u);
    ASSERT_EQ(a.workers.size(), 2u);
    EXPECT_EQ(a.workers[0].served, 14u);
    EXPECT_EQ(a.workers[1].served, 1014u);
    EXPECT_EQ(a.workers[1].busyNs, 1015u);
    // The merge of two consistent snapshots is consistent: both
    // identities are linear in the counters.
    EXPECT_TRUE(a.consistent());
}

TEST(ServeSnapshot, ExecutedExcludesEveryDropReason)
{
    ServeSnapshot s;
    s.completed = 50;
    s.expired = 7;
    s.cancelled = 5;
    s.faultFailed = 3;
    // Dropped/corrupted requests *did* execute; they must not be
    // subtracted.
    s.faultDropped = 4;
    s.faultCorrupted = 2;
    EXPECT_EQ(s.executed(), 50u - 7u - 5u - 3u);
}

TEST(ServeSnapshot, ConsistencyCatchesBrokenAccounting)
{
    ServeSnapshot ok = sampleSnapshot(0);
    EXPECT_TRUE(ok.consistent());

    // A submit not accounted by any admission outcome.
    ServeSnapshot lost = sampleSnapshot(0);
    lost.submitted += 1;
    EXPECT_FALSE(lost.consistent());

    // More drops than completions.
    ServeSnapshot drops = sampleSnapshot(0);
    drops.expired = drops.completed + 1;
    drops.cancelled = 0;
    drops.faultFailed = 0;
    EXPECT_FALSE(drops.consistent());

    // More suppressed/corrupted replies than completions.
    ServeSnapshot faults = sampleSnapshot(0);
    faults.faultDropped = faults.completed + 1;
    faults.faultCorrupted = 0;
    EXPECT_FALSE(faults.consistent());

    // An inverted index-version range (a torn fleet view).
    ServeSnapshot torn = sampleSnapshot(0);
    torn.indexVersionLow = torn.indexVersionHigh + 1;
    EXPECT_FALSE(torn.consistent());
}

TEST(ServeSnapshot, VersionRangeIgnoresFrozenPools)
{
    // A frozen pool reports version 0; merging it into a live fleet
    // view must not drag the low end to zero.
    ServeSnapshot live;
    live.indexVersionLow = live.indexVersionHigh = 9;
    ServeSnapshot frozen; // all zeros
    live.merge(frozen);
    EXPECT_EQ(live.indexVersionLow, 9u);
    EXPECT_EQ(live.indexVersionHigh, 9u);

    // Merging in the other order converges to the same range.
    ServeSnapshot fleet;
    fleet.merge(frozen);
    ServeSnapshot other;
    other.indexVersionLow = other.indexVersionHigh = 4;
    fleet.merge(other);
    ServeSnapshot lagging;
    lagging.indexVersionLow = 3;
    lagging.indexVersionHigh = 11;
    fleet.merge(lagging);
    EXPECT_EQ(fleet.indexVersionLow, 3u);
    EXPECT_EQ(fleet.indexVersionHigh, 11u);
}

/** Tiny shared shard for the slab-aggregation pool tests. */
const MaterializedIndex &
slabTestIndex()
{
    static const CorpusGenerator corpus([] {
        CorpusConfig cc;
        cc.numDocs = 500;
        cc.vocabSize = 500;
        cc.avgDocLen = 40;
        return cc;
    }());
    static const MaterializedIndex index(corpus);
    return index;
}

SearchRequest
slabRequest(const Query &q)
{
    SearchRequest req;
    req.query = q;
    return req;
}

/**
 * Per-worker slab aggregation: executed work and drop reasons are
 * counted on each worker's own slab; the snapshot must sum them into
 * a view where every identity holds and the per-worker served
 * counters reconcile with executed().
 */
TEST(ServeSnapshot, PoolAggregatesPerWorkerSlabs)
{
    LeafWorkerPool::Config pc;
    pc.numWorkers = 4;
    pc.queueCapacity = 64;
    LeafWorkerPool pool(slabTestIndex(), pc);

    QueryGenerator::Config qc;
    qc.vocabSize = 500;
    qc.distinctQueries = 256;
    QueryGenerator gen(qc);

    const uint32_t kServed = 300;
    const uint32_t kExpired = 50;
    for (uint32_t i = 0; i < kServed; ++i)
        ASSERT_EQ(pool.submit(slabRequest(gen.next()),
                              /*block=*/true),
                  LeafWorkerPool::Admit::Accepted);
    for (uint32_t i = 0; i < kExpired; ++i) {
        // A deadline in the distant past: the popping worker must
        // drop it as Expired, counted on ITS slab.
        SearchRequest req = slabRequest(gen.next());
        req.deadlineNs = 1;
        ASSERT_EQ(pool.submit(req, /*block=*/true),
                  LeafWorkerPool::Admit::Accepted);
    }
    pool.drain();

    const ServeSnapshot s = pool.snapshot();
    EXPECT_TRUE(s.consistent());
    EXPECT_EQ(s.submitted, kServed + kExpired);
    EXPECT_EQ(s.accepted, kServed + kExpired);
    EXPECT_EQ(s.completed, kServed + kExpired);
    EXPECT_EQ(s.expired, kExpired);
    EXPECT_EQ(s.executed(), kServed);
    // The per-worker served counters (one slab each) must reconcile
    // with the aggregated executed count, and with 4 workers on a
    // 64-deep queue the work cannot all land on one slab.
    uint64_t served = 0;
    for (const WorkerCounters &w : s.workers)
        served += w.served;
    EXPECT_EQ(s.workers.size(), 4u);
    EXPECT_EQ(served, kServed);
    EXPECT_EQ(s.sojournNs.count(), kServed);
    EXPECT_EQ(s.serviceNs.count(), kServed);
}

/**
 * The admission identity (submitted == accepted + shed + cacheHits +
 * refused) must hold at ANY instant, not just after a drain: the
 * snapshot derives submitted from the summed slabs, so a mid-flight
 * reader can never catch the counters out of step.
 */
TEST(ServeSnapshot, AdmissionIdentityHoldsMidFlight)
{
    LeafWorkerPool::Config pc;
    pc.numWorkers = 2;
    pc.queueCapacity = 8; // small: force sheds under pressure
    pc.cacheCapacity = 128;
    LeafWorkerPool pool(slabTestIndex(), pc);

    QueryGenerator::Config qc;
    qc.vocabSize = 500;
    qc.distinctQueries = 64; // repeats: cache hits mid-run
    QueryGenerator gen(qc);

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> violations{0};
    std::thread observer([&] {
        while (!stop.load()) {
            const ServeSnapshot s = pool.snapshot();
            if (s.submitted !=
                s.accepted + s.shed + s.cacheHits + s.refused)
                violations.fetch_add(1);
            if (s.indexVersionLow > s.indexVersionHigh)
                violations.fetch_add(1);
        }
    });

    const uint32_t kQueries = 4000;
    for (uint32_t i = 0; i < kQueries; ++i)
        pool.submit(slabRequest(gen.next()), /*block=*/false);
    pool.drain();
    stop.store(true);
    observer.join();

    EXPECT_EQ(violations.load(), 0u);
    const ServeSnapshot s = pool.snapshot();
    EXPECT_TRUE(s.consistent());
    EXPECT_EQ(s.submitted, kQueries);
    EXPECT_EQ(s.accepted + s.shed + s.cacheHits, kQueries);
    EXPECT_EQ(s.completed, s.accepted);
    // One latency sample per cache hit, summed over segments.
    EXPECT_EQ(s.cacheHitNs.count(), s.cacheHits);
}

} // namespace
} // namespace wsearch
