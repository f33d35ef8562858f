#include "serve/loadgen.hh"

#include <atomic>
#include <cmath>
#include <thread>

#include "serve/clock.hh"
#include "util/rng.hh"

namespace wsearch {

namespace {

/** Samples pool queue depth every kPeriodMs until stopped. */
class DepthSampler
{
  public:
    explicit DepthSampler(const LeafWorkerPool &pool)
        : pool_(pool), thread_([this] { run(); })
    {
    }

    ~DepthSampler()
    {
        if (thread_.joinable())
            stop();
    }

    void
    stop()
    {
        done_.store(true);
        thread_.join();
    }

    uint64_t maxDepth() const { return maxDepth_; }

    double
    meanDepth() const
    {
        return samples_ ? static_cast<double>(sumDepth_) /
                static_cast<double>(samples_)
                        : 0.0;
    }

  private:
    static constexpr uint32_t kPeriodMs = 2;

    void
    run()
    {
        while (!done_.load()) {
            const uint64_t d = pool_.queueDepth();
            if (d > maxDepth_)
                maxDepth_ = d;
            sumDepth_ += d;
            ++samples_;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(kPeriodMs));
        }
    }

    const LeafWorkerPool &pool_;
    std::atomic<bool> done_{false};
    // Written only by the sampler thread; read after stop().
    uint64_t maxDepth_ = 0;
    uint64_t sumDepth_ = 0;
    uint64_t samples_ = 0;
    std::thread thread_;
};

LoadReport
buildReport(const LeafWorkerPool &pool, uint64_t start_ns,
            uint64_t end_ns, const DepthSampler &sampler)
{
    LoadReport r;
    r.snap = pool.snapshot();
    r.durationSec = static_cast<double>(end_ns - start_ns) / 1e9;
    if (r.durationSec > 0) {
        r.offeredQps =
            static_cast<double>(r.snap.submitted) / r.durationSec;
        r.achievedQps =
            static_cast<double>(r.snap.completed + r.snap.cacheHits) /
            r.durationSec;
    }
    r.shedFraction = r.snap.submitted
        ? static_cast<double>(r.snap.shed) /
            static_cast<double>(r.snap.submitted)
        : 0.0;
    r.maxQueueDepth = sampler.maxDepth();
    r.meanQueueDepth = sampler.meanDepth();
    return r;
}

} // namespace

LoadReport
runOpenLoop(LeafWorkerPool &pool, const LoadGenConfig &cfg)
{
    wsearch_assert(cfg.offeredQps > 0);
    QueryGenerator gen(cfg.queries, cfg.seed);
    Rng arrivals(mix64(cfg.seed ^ 0x0a11ull));
    const double mean_gap_ns = 1e9 / cfg.offeredQps;

    DepthSampler sampler(pool);
    const uint64_t start = nowNs();
    uint64_t next_arrival = start;
    for (uint64_t i = 0; i < cfg.numQueries; ++i) {
        // Exponential inter-arrival; 1 - U in (0, 1] avoids log(0).
        const double u = 1.0 - arrivals.nextDouble();
        next_arrival += static_cast<uint64_t>(
            -std::log(u) * mean_gap_ns);
        sleepUntilNs(next_arrival);
        SearchRequest req;
        req.query = gen.next();
        pool.submit(req, /*block=*/false);
    }
    pool.drain();
    const uint64_t end = nowNs();
    sampler.stop();
    return buildReport(pool, start, end, sampler);
}

LoadReport
runClosedLoop(LeafWorkerPool &pool, const LoadGenConfig &cfg)
{
    wsearch_assert(cfg.clients >= 1);
    std::atomic<uint64_t> issued{0};

    DepthSampler sampler(pool);
    const uint64_t start = nowNs();
    std::vector<std::thread> clients;
    clients.reserve(cfg.clients);
    for (uint32_t c = 0; c < cfg.clients; ++c) {
        clients.emplace_back([&pool, &cfg, &issued, c] {
            QueryGenerator gen(cfg.queries,
                               cfg.seed + 7919ull * (c + 1));
            while (issued.fetch_add(1) < cfg.numQueries) {
                auto reply = std::make_shared<
                    std::promise<std::vector<ScoredDoc>>>();
                auto fut = reply->get_future();
                SearchRequest req;
                req.query = gen.next();
                pool.submit(req, /*block=*/true, std::move(reply));
                // Fulfilled on completion, cache hit, or shed.
                fut.get();
            }
        });
    }
    for (std::thread &t : clients)
        t.join();
    pool.drain();
    const uint64_t end = nowNs();
    sampler.stop();
    return buildReport(pool, start, end, sampler);
}

ClusterLoadReport
runClusterClosedLoop(ClusterServer &cluster, const LoadGenConfig &cfg)
{
    wsearch_assert(cfg.clients >= 1);
    std::atomic<uint64_t> issued{0};

    const uint64_t start = nowNs();
    std::vector<std::thread> clients;
    clients.reserve(cfg.clients);
    for (uint32_t c = 0; c < cfg.clients; ++c) {
        clients.emplace_back([&cluster, &cfg, &issued, c] {
            QueryGenerator gen(cfg.queries,
                               cfg.seed + 7919ull * (c + 1));
            while (issued.fetch_add(1) < cfg.numQueries) {
                SearchRequest req;
                req.query = gen.next();
                cluster.handle(req);
            }
        });
    }
    for (std::thread &t : clients)
        t.join();
    // Late stragglers (cancelled hedges, expired leftovers) still sit
    // in queues; drain so per-pool accounting is settled.
    cluster.drainAll();
    const uint64_t end = nowNs();

    ClusterLoadReport r;
    r.snap = cluster.snapshot();
    r.durationSec = static_cast<double>(end - start) / 1e9;
    if (r.durationSec > 0)
        r.achievedQps =
            static_cast<double>(r.snap.queries) / r.durationSec;
    return r;
}

} // namespace wsearch
