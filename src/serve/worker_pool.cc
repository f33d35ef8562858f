#include "serve/worker_pool.hh"

#include <algorithm>

namespace wsearch {

namespace {

LeafServer::Config
leafConfigFor(const LeafWorkerPool::Config &cfg)
{
    LeafServer::Config lc = cfg.leaf;
    lc.numThreads = cfg.numWorkers;
    lc.clock = cfg.clock;
    return lc;
}

/**
 * Model a corrupted/truncated leaf response: the tail is lost and
 * what remains arrives out of order. The root's merge must cope (it
 * re-sorts and dedups), so a corrupt reply degrades result quality
 * without ever producing an invalid page.
 */
void
corruptReply(std::vector<ScoredDoc> &docs)
{
    docs.resize(docs.size() / 2);
    std::reverse(docs.begin(), docs.end());
}

} // namespace

LeafWorkerPool::LeafWorkerPool(const IndexShard &shard,
                               const Config &cfg)
    : cfg_(cfg), leaf_(shard, leafConfigFor(cfg)),
      queue_(cfg.queueCapacity), cache_(cfg.cacheCapacity)
{
    startWorkers();
}

LeafWorkerPool::LeafWorkerPool(
    std::shared_ptr<const IndexSnapshot> snapshot, const Config &cfg)
    : cfg_(cfg), leaf_(std::move(snapshot), leafConfigFor(cfg)),
      queue_(cfg.queueCapacity), cache_(cfg.cacheCapacity)
{
    startWorkers();
}

void
LeafWorkerPool::startWorkers()
{
    wsearch_assert(cfg_.numWorkers >= 1);
    slots_.reserve(cfg_.numWorkers);
    for (uint32_t w = 0; w < cfg_.numWorkers; ++w)
        slots_.push_back(std::make_unique<WorkerSlot>());
    threads_.reserve(cfg_.numWorkers);
    for (uint32_t w = 0; w < cfg_.numWorkers; ++w)
        threads_.emplace_back([this, w] { workerMain(w); });
}

LeafWorkerPool::~LeafWorkerPool()
{
    shutdown();
}

void
LeafWorkerPool::finish(ServeRequest &req,
                       std::vector<ScoredDoc> &&results,
                       ServeOutcome outcome, uint64_t index_version)
{
    if (req.done) {
        req.done(std::move(results), outcome, index_version);
        req.done = nullptr;
    }
}

LeafWorkerPool::Admit
LeafWorkerPool::submit(const SearchRequest &request, bool block,
                       Reply reply)
{
    ServeCompletion done;
    if (reply)
        done = [reply = std::move(reply)](std::vector<ScoredDoc> &&results,
                                          ServeOutcome, uint64_t) {
            reply->set_value(std::move(results));
        };
    return submitAsync(request, block, std::move(done));
}

LeafWorkerPool::Admit
LeafWorkerPool::submitAsync(const SearchRequest &request, bool block,
                            ServeCompletion done)
{
    ServeRequest req;
    req.request = request;
    req.done = std::move(done);
    return enqueue(std::move(req), block);
}

LeafWorkerPool::Admit
LeafWorkerPool::enqueue(ServeRequest &&req, bool block)
{
    Clock &clk = clock();

    // A crashed replica refuses instantly -- before the cache tier,
    // the way a dead endpoint never opens the connection.
    if (cfg_.faults &&
        !cfg_.faults->admit(cfg_.shardId, cfg_.replicaId,
                            req.request.query.id, clk.now())) {
        ++refused_;
        finish(req, {}, ServeOutcome::Refused, 0);
        return Admit::Refused;
    }

    if (cfg_.cacheCapacity > 0) {
        // A hit's sample is its lock-to-answer latency.
        std::vector<ScoredDoc> hit_results;
        const uint64_t t0 = clk.now();
        std::unique_lock<std::mutex> lk(cacheMu_);
        if (cache_.lookup(req.request.query.id,
                          req.done ? &hit_results : nullptr)) {
            cacheHitNs_.record(clk.now() - t0);
            lk.unlock();
            ++cacheHits_;
            finish(req, std::move(hit_results), ServeOutcome::Ok,
                   leaf_.currentVersion());
            return Admit::CacheHit;
        }
    }

    req.enqueueNs = clk.now();
    const bool ok = block ? queue_.push(std::move(req))
                          : queue_.tryPush(std::move(req));
    if (!ok) {
        ++shed_;
        // req is untouched on a failed push; tell the waiter.
        finish(req, {}, ServeOutcome::Shed, 0);
        return Admit::Shed;
    }
    ++accepted_;
    return Admit::Accepted;
}

void
LeafWorkerPool::dropRequest(WorkerSlot &slot, ServeRequest &req,
                            ServeOutcome outcome, uint64_t &counter)
{
    {
        std::lock_guard<std::mutex> lk(slot.mu);
        ++counter;
        ++slot.completed;
    }
    finish(req, {}, outcome, 0);
    req.request.cancel.reset();
}

void
LeafWorkerPool::workerMain(uint32_t worker_id)
{
    // Interference schedule: worker-local (every worker pauses on
    // every Nth of ITS OWN executions -- the pool-wide pause rate
    // without a shared tick counter).
    uint64_t interference_tick = 0;
    ServeRequest req;
    while (queue_.pop(req)) {
        serveOne(worker_id, req, interference_tick);
        queue_.done();
    }
}

void
LeafWorkerPool::serveOne(uint32_t worker_id, ServeRequest &req,
                         uint64_t &interference_tick)
{
    WorkerSlot &slot = *slots_[worker_id];
    Clock &clk = clock();
    uint64_t start = clk.now();

    // Drop rather than execute work nobody is waiting for: a hedge
    // whose twin already answered, or a request that sat in the queue
    // past its deadline.
    if (req.request.cancel &&
        req.request.cancel->load(std::memory_order_acquire)) {
        dropRequest(slot, req, ServeOutcome::Cancelled, slot.cancelled);
        return;
    }
    if (req.request.deadlineNs != 0 && start > req.request.deadlineNs) {
        dropRequest(slot, req, ServeOutcome::Expired, slot.expired);
        return;
    }

    FaultDecision fd;
    if (cfg_.faults)
        fd = cfg_.faults->onExecute(cfg_.shardId, cfg_.replicaId,
                                    req.request.query.id, start);
    if (fd.delayNs != 0) {
        // Injected slowness (or a stuck worker, which is just a very
        // large delay). The sleep may outlive the deadline or the
        // hedge twin: re-check before executing, exactly like the
        // pop-time checks above.
        clk.sleepUntil(start + fd.delayNs);
        const uint64_t now = clk.now();
        if (req.request.cancel &&
            req.request.cancel->load(std::memory_order_acquire)) {
            dropRequest(slot, req, ServeOutcome::Cancelled,
                        slot.cancelled);
            return;
        }
        if (req.request.deadlineNs != 0 && now > req.request.deadlineNs) {
            dropRequest(slot, req, ServeOutcome::Expired, slot.expired);
            return;
        }
        start = now; // service time excludes the injected delay
    }
    if (fd.fail) {
        dropRequest(slot, req, ServeOutcome::Failed, slot.faultFailed);
        return;
    }

    if (cfg_.interferenceEveryN != 0 && cfg_.interferencePauseNs != 0 &&
        interference_tick++ % cfg_.interferenceEveryN ==
            cfg_.interferenceEveryN - 1) {
        clk.sleepUntil(start + cfg_.interferencePauseNs);
    }

    SearchResponse resp = leaf_.serve(worker_id, req.request);
    const uint64_t end = clk.now();

    if (fd.corrupt) {
        corruptReply(resp.docs);
        resp.degraded = true; // never cache a corrupted page
    }

    // Never cache a degraded page: the next asker deserves the full
    // answer, not whatever a deadline-clipped run salvaged.
    if (cfg_.cacheCapacity > 0 && !resp.degraded) {
        std::lock_guard<std::mutex> lk(cacheMu_);
        cache_.insert(req.request.query.id, resp.docs);
    }
    {
        std::lock_guard<std::mutex> lk(slot.mu);
        ++slot.counters.served;
        slot.counters.busyNs += end - start;
        slot.serviceNs.record(end - start);
        slot.sojournNs.record(end - req.enqueueNs);
        slot.faultCorrupted += fd.corrupt;
        slot.faultDropped += fd.dropReply;
        ++slot.completed;
    }
    // A dropped reply is lost in flight: the caller sees silence.
    if (fd.dropReply)
        req.done = nullptr;
    // The executor reports !ok only when it observed the cancel flag
    // or an already-passed deadline before starting.
    const ServeOutcome outcome = resp.ok ? ServeOutcome::Ok
        : (req.request.cancel &&
           req.request.cancel->load(std::memory_order_acquire))
        ? ServeOutcome::Cancelled
        : ServeOutcome::Expired;
    finish(req, std::move(resp.docs), outcome, resp.indexVersion);
    req.request.cancel.reset();
}

void
LeafWorkerPool::drain()
{
    queue_.join();
}

void
LeafWorkerPool::shutdown()
{
    std::call_once(shutdownOnce_, [this] {
        queue_.close();
        for (std::thread &t : threads_)
            t.join();
    });
}

ServeSnapshot
LeafWorkerPool::snapshot() const
{
    ServeSnapshot s;
    s.accepted = accepted_.load();
    s.shed = shed_.load();
    s.cacheHits = cacheHits_.load();
    s.refused = refused_.load();
    // Derived, not stored: the admission identity
    // submitted == accepted + shed + cacheHits + refused therefore
    // holds at any instant by construction.
    s.submitted = s.accepted + s.shed + s.cacheHits + s.refused;
    if (leaf_.live()) {
        s.snapshotsAdopted = leaf_.snapshotsAdopted();
        s.handoffsRejected = leaf_.handoffsRejected();
        s.indexVersionLow = s.indexVersionHigh =
            leaf_.currentVersion();
    }
    s.workers.reserve(slots_.size());
    for (const auto &slot : slots_) {
        std::lock_guard<std::mutex> lk(slot->mu);
        s.completed += slot->completed;
        s.expired += slot->expired;
        s.cancelled += slot->cancelled;
        s.faultFailed += slot->faultFailed;
        s.faultDropped += slot->faultDropped;
        s.faultCorrupted += slot->faultCorrupted;
        s.workers.push_back(slot->counters);
        s.serviceNs.merge(slot->serviceNs);
        s.sojournNs.merge(slot->sojournNs);
    }
    std::lock_guard<std::mutex> lk(cacheMu_);
    s.cacheLookups = cache_.lookups();
    s.cacheEvictions = cache_.evictions();
    s.cacheHitNs = cacheHitNs_;
    return s;
}

} // namespace wsearch
