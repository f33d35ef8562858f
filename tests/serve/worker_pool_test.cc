#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "search/corpus.hh"
#include "search/index.hh"
#include "search/leaf.hh"
#include "search/query.hh"
#include "serve/clock.hh"
#include "serve/fault.hh"
#include "serve/loadgen.hh"
#include "serve/worker_pool.hh"

namespace wsearch {
namespace {

/** Small shared shard for all pool tests. */
const MaterializedIndex &
testIndex()
{
    static const CorpusGenerator corpus([] {
        CorpusConfig cc;
        cc.numDocs = 2000;
        cc.vocabSize = 2000;
        cc.avgDocLen = 60;
        return cc;
    }());
    static const MaterializedIndex index(corpus);
    return index;
}

SearchRequest
asRequest(const Query &q)
{
    SearchRequest req;
    req.query = q;
    return req;
}

QueryGenerator::Config
testTraffic()
{
    QueryGenerator::Config qc;
    qc.vocabSize = 2000;
    qc.distinctQueries = 512; // enough repeats for cache tests
    qc.maxTerms = 3;
    return qc;
}

TEST(LeafWorkerPool, ConcurrentTopKMatchesSingleThreaded)
{
    const MaterializedIndex &index = testIndex();
    const uint32_t kQueries = 400;

    // Reference: the same query stream through one executor.
    QueryGenerator gen(testTraffic());
    std::vector<Query> queries;
    for (uint32_t i = 0; i < kQueries; ++i)
        queries.push_back(gen.next());
    LeafServer::Config lc;
    lc.numThreads = 1;
    LeafServer reference(index, lc);
    std::vector<std::vector<ScoredDoc>> expected;
    for (const Query &q : queries)
        expected.push_back(reference.serve(0, asRequest(q)).docs);

    // Concurrent: 4 workers, results collected via futures.
    LeafWorkerPool::Config pc;
    pc.numWorkers = 4;
    pc.queueCapacity = 64;
    LeafWorkerPool pool(index, pc);
    std::vector<std::future<std::vector<ScoredDoc>>> futures;
    for (const Query &q : queries) {
        auto reply = std::make_shared<
            std::promise<std::vector<ScoredDoc>>>();
        futures.push_back(reply->get_future());
        EXPECT_EQ(pool.submit(asRequest(q), /*block=*/true,
                              std::move(reply)),
                  LeafWorkerPool::Admit::Accepted);
    }
    for (uint32_t i = 0; i < kQueries; ++i) {
        const std::vector<ScoredDoc> got = futures[i].get();
        ASSERT_EQ(got.size(), expected[i].size()) << "query " << i;
        for (size_t r = 0; r < got.size(); ++r) {
            EXPECT_EQ(got[r].doc, expected[i][r].doc)
                << "query " << i << " rank " << r;
            EXPECT_FLOAT_EQ(got[r].score, expected[i][r].score)
                << "query " << i << " rank " << r;
        }
    }
    pool.drain();
    const ServeSnapshot s = pool.snapshot();
    EXPECT_TRUE(s.consistent());
    EXPECT_EQ(s.accepted, kQueries);
    EXPECT_EQ(s.completed, kQueries);
    EXPECT_EQ(s.sojournNs.count(), kQueries);
    EXPECT_EQ(s.serviceNs.count(), kQueries);
    uint64_t served = 0;
    for (const WorkerCounters &w : s.workers)
        served += w.served;
    EXPECT_EQ(served, kQueries);
}

TEST(LeafWorkerPool, AdmissionAccounting)
{
    LeafWorkerPool::Config pc;
    pc.numWorkers = 2;
    pc.queueCapacity = 2;
    LeafWorkerPool pool(testIndex(), pc);
    QueryGenerator gen(testTraffic());
    const uint32_t kQueries = 500;
    for (uint32_t i = 0; i < kQueries; ++i)
        pool.submit(asRequest(gen.next()), /*block=*/false);
    pool.drain();
    const ServeSnapshot s = pool.snapshot();
    EXPECT_TRUE(s.consistent());
    EXPECT_EQ(s.submitted, kQueries);
    EXPECT_EQ(s.completed, s.accepted);
    EXPECT_EQ(s.sojournNs.count(), s.completed);
}

TEST(LeafWorkerPool, CacheTierAnswersRepeats)
{
    LeafWorkerPool::Config pc;
    pc.numWorkers = 2;
    pc.cacheCapacity = 64;
    LeafWorkerPool pool(testIndex(), pc);
    QueryGenerator gen(testTraffic());
    const Query q = gen.next();

    auto reply1 = std::make_shared<
        std::promise<std::vector<ScoredDoc>>>();
    auto fut1 = reply1->get_future();
    EXPECT_EQ(pool.submit(asRequest(q), /*block=*/true,
                          std::move(reply1)),
              LeafWorkerPool::Admit::Accepted);
    const std::vector<ScoredDoc> first = fut1.get();

    auto reply2 = std::make_shared<
        std::promise<std::vector<ScoredDoc>>>();
    auto fut2 = reply2->get_future();
    EXPECT_EQ(pool.submit(asRequest(q), /*block=*/true,
                          std::move(reply2)),
              LeafWorkerPool::Admit::CacheHit);
    const std::vector<ScoredDoc> second = fut2.get();

    ASSERT_EQ(first.size(), second.size());
    for (size_t i = 0; i < first.size(); ++i)
        EXPECT_EQ(first[i].doc, second[i].doc);

    const ServeSnapshot s = pool.snapshot();
    EXPECT_EQ(s.cacheHits, 1u);
    EXPECT_EQ(s.cacheHitNs.count(), 1u);
    EXPECT_TRUE(s.consistent());
}

/** A small cache must not be split so fine that stripes round down
 *  to zero entries: stripe resolution clamps to the capacity. */
TEST(LeafWorkerPool, CacheStripesClampedToCapacity)
{
    LeafWorkerPool::Config pc;
    pc.numWorkers = 8; // one stripe per worker would be 8
    pc.cacheCapacity = 3;
    LeafWorkerPool pool(testIndex(), pc);
    EXPECT_EQ(pool.cacheStripeCount(), 2u); // pow2 <= capacity

    // Zero capacity (tier off): no clamp, uniform shed-to-miss.
    LeafWorkerPool::Config offPc;
    offPc.numWorkers = 4;
    LeafWorkerPool offPool(testIndex(), offPc);
    EXPECT_EQ(offPool.cacheStripeCount(), 4u);
}

TEST(LeafWorkerPool, ShedFulfillsReplyEmpty)
{
    // Shut the pool down first so every push is refused.
    LeafWorkerPool::Config pc;
    pc.numWorkers = 1;
    pc.queueCapacity = 1;
    LeafWorkerPool pool(testIndex(), pc);
    pool.shutdown();
    QueryGenerator gen(testTraffic());
    auto reply = std::make_shared<
        std::promise<std::vector<ScoredDoc>>>();
    auto fut = reply->get_future();
    EXPECT_EQ(pool.submit(asRequest(gen.next()), /*block=*/true,
                          std::move(reply)),
              LeafWorkerPool::Admit::Shed);
    EXPECT_TRUE(fut.get().empty());
    const ServeSnapshot s = pool.snapshot();
    EXPECT_EQ(s.shed, 1u);
    EXPECT_TRUE(s.consistent());
}

/** The worker's drop paths answer a promise too: a request that is
 *  cancelled, or past its deadline, before it runs gets an empty page. */
TEST(LeafWorkerPool, PromiseSeesEmptyPageWhenDropped)
{
    LeafWorkerPool::Config pc;
    pc.numWorkers = 1;
    LeafWorkerPool pool(testIndex(), pc);
    QueryGenerator gen(testTraffic());
    const Query q = gen.next();
    auto page = [&](const SearchRequest &req) {
        auto reply = std::make_shared<
            std::promise<std::vector<ScoredDoc>>>();
        auto fut = reply->get_future();
        EXPECT_EQ(pool.submit(req, /*block=*/true, std::move(reply)),
                  LeafWorkerPool::Admit::Accepted);
        // A promise nobody fulfils would hang the test; fail instead.
        if (fut.wait_for(std::chrono::seconds(30)) !=
            std::future_status::ready) {
            ADD_FAILURE() << "the reply was never fulfilled";
            return std::vector<ScoredDoc>{};
        }
        return fut.get();
    };

    ASSERT_FALSE(page(asRequest(q)).empty()); // q has results
    SearchRequest cancelled = asRequest(q);
    cancelled.cancel = std::make_shared<std::atomic<bool>>(true);
    EXPECT_TRUE(page(cancelled).empty());
    SearchRequest expired = asRequest(q);
    expired.deadlineNs = 1; // long past
    EXPECT_TRUE(page(expired).empty());

    pool.drain();
    const ServeSnapshot s = pool.snapshot();
    EXPECT_EQ(s.cancelled, 1u);
    EXPECT_EQ(s.expired, 1u);
    EXPECT_EQ(s.completed, 3u);
    EXPECT_TRUE(s.consistent());
}

/**
 * drain() must wait for a request a worker has already popped: the
 * queue reads empty while the request executes, but drain() returns
 * only once it has completed and its callback has run. The injected
 * delay parks the worker after its pop, on a virtual clock.
 */
TEST(LeafWorkerPool, DrainWaitsForExecutingRequest)
{
    SimClock clock;
    FaultPlan plan;
    plan.defaultSpec().delayProb = 1.0;
    plan.defaultSpec().delayMinNs = 1'000'000;
    plan.defaultSpec().delayMaxNs = 1'000'000;
    LeafWorkerPool::Config pc;
    pc.numWorkers = 1;
    pc.clock = &clock;
    pc.faults = &plan;
    LeafWorkerPool pool(testIndex(), pc);
    // Destroyed before the pool: a failed ASSERT unparks the worker,
    // so the pool's shutdown cannot hang on its virtual sleep.
    struct Release
    {
        SimClock &clock;
        ~Release() { clock.release(); }
    } release{clock};

    QueryGenerator gen(testTraffic());
    std::atomic<bool> completed{false};
    ASSERT_EQ(pool.submitAsync(asRequest(gen.next()), /*block=*/true,
                               [&](std::vector<ScoredDoc> &&,
                                   ServeOutcome outcome, uint64_t) {
                                   EXPECT_EQ(outcome, ServeOutcome::Ok);
                                   completed.store(true);
                               }),
              LeafWorkerPool::Admit::Accepted);
    ASSERT_TRUE(clock.awaitSleepers(1)); // popped, parked in its delay
    EXPECT_EQ(pool.queueDepth(), 0u);

    std::atomic<bool> drained{false};
    std::atomic<bool> completed_at_drain{false};
    std::thread drainer([&] {
        pool.drain();
        completed_at_drain.store(completed.load());
        drained.store(true);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(drained.load());
    EXPECT_FALSE(completed.load());
    clock.advanceBy(1'000'000);
    drainer.join();
    EXPECT_TRUE(drained.load());
    EXPECT_TRUE(completed_at_drain.load());
    const ServeSnapshot s = pool.snapshot();
    EXPECT_EQ(s.completed, 1u);
    EXPECT_EQ(s.executed(), 1u);
    EXPECT_TRUE(s.consistent());
}

TEST(LeafWorkerPool, ShutdownIsIdempotent)
{
    LeafWorkerPool::Config pc;
    pc.numWorkers = 2;
    LeafWorkerPool pool(testIndex(), pc);
    pool.shutdown();
    pool.shutdown(); // second call must be a no-op
}

TEST(LoadGen, ClosedLoopCompletesAllQueries)
{
    LeafWorkerPool::Config pc;
    pc.numWorkers = 2;
    LeafWorkerPool pool(testIndex(), pc);
    LoadGenConfig lg;
    lg.queries = testTraffic();
    lg.clients = 4;
    lg.numQueries = 300;
    const LoadReport r = runClosedLoop(pool, lg);
    EXPECT_TRUE(r.snap.consistent());
    EXPECT_GE(r.snap.submitted, lg.numQueries);
    EXPECT_EQ(r.snap.completed, r.snap.accepted);
    EXPECT_EQ(r.snap.shed, 0u); // blocking submits never shed
    EXPECT_GT(r.achievedQps, 0.0);
    EXPECT_GT(r.durationSec, 0.0);
    EXPECT_GT(r.snap.sojournNs.quantile(0.5), 0u);
}

TEST(LoadGen, OpenLoopDrainsAndReports)
{
    LeafWorkerPool::Config pc;
    pc.numWorkers = 2;
    pc.queueCapacity = 256;
    LeafWorkerPool pool(testIndex(), pc);
    LoadGenConfig lg;
    lg.queries = testTraffic();
    lg.offeredQps = 2000.0;
    lg.numQueries = 400;
    const LoadReport r = runOpenLoop(pool, lg);
    EXPECT_TRUE(r.snap.consistent());
    EXPECT_EQ(r.snap.submitted, lg.numQueries);
    EXPECT_EQ(r.snap.completed, r.snap.accepted);
    EXPECT_EQ(r.snap.sojournNs.count(), r.snap.completed);
    EXPECT_GT(r.snap.completed, 0u);
    EXPECT_GT(r.achievedQps, 0.0);
    // p50 and p99 are real, ordered latencies.
    const uint64_t p50 = r.snap.sojournNs.quantile(0.5);
    const uint64_t p99 = r.snap.sojournNs.quantile(0.99);
    EXPECT_GT(p50, 0u);
    EXPECT_GE(p99, p50);
}

TEST(LoadGen, OpenLoopCacheTierAbsorbsRepeats)
{
    LeafWorkerPool::Config pc;
    pc.numWorkers = 2;
    pc.queueCapacity = 256;
    pc.cacheCapacity = 1024; // > distinctQueries: everything caches
    LeafWorkerPool pool(testIndex(), pc);
    LoadGenConfig lg;
    lg.queries = testTraffic(); // 512 distinct queries
    lg.offeredQps = 4000.0;
    lg.numQueries = 2000;
    const LoadReport r = runOpenLoop(pool, lg);
    EXPECT_TRUE(r.snap.consistent());
    EXPECT_GT(r.snap.cacheHits, 0u);
    EXPECT_EQ(r.snap.cacheHits + r.snap.accepted + r.snap.shed,
              lg.numQueries);
}

} // namespace
} // namespace wsearch
