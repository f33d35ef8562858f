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
 * Lock stripes for the cache tier: the smallest power of two >=
 * numWorkers, capped at 16 -- enough that concurrent admissions on
 * distinct queries take distinct locks -- then clamped so a non-zero
 * capacity funds every stripe with at least one entry: capacity
 * splits evenly across stripes, and a segment that rounded down to
 * zero entries would shed its whole hash class to miss even though
 * the configured total capacity is positive.
 */
size_t
stripeCountFor(const LeafWorkerPool::Config &cfg)
{
    const size_t want =
        std::min<size_t>(16, std::max<uint32_t>(1, cfg.numWorkers));
    size_t n = 1;
    while (n < want)
        n *= 2;
    if (cfg.cacheCapacity > 0)
        while (n > cfg.cacheCapacity)
            n /= 2;
    return n;
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
      queue_(cfg.queueCapacity),
      cache_(cfg.cacheCapacity, stripeCountFor(cfg))
{
    wsearch_assert(cfg.numWorkers >= 1);
    slots_.reserve(cfg.numWorkers);
    for (uint32_t w = 0; w < cfg.numWorkers; ++w)
        slots_.push_back(std::make_unique<WorkerSlot>());
    threads_.reserve(cfg.numWorkers);
    for (uint32_t w = 0; w < cfg.numWorkers; ++w)
        threads_.emplace_back([this, w] { workerMain(w); });
}

LeafWorkerPool::LeafWorkerPool(
    std::shared_ptr<const IndexSnapshot> snapshot, const Config &cfg)
    : cfg_(cfg), leaf_(std::move(snapshot), leafConfigFor(cfg)),
      queue_(cfg.queueCapacity),
      cache_(cfg.cacheCapacity, stripeCountFor(cfg))
{
    wsearch_assert(cfg.numWorkers >= 1);
    slots_.reserve(cfg.numWorkers);
    for (uint32_t w = 0; w < cfg.numWorkers; ++w)
        slots_.push_back(std::make_unique<WorkerSlot>());
    threads_.reserve(cfg.numWorkers);
    for (uint32_t w = 0; w < cfg.numWorkers; ++w)
        threads_.emplace_back([this, w] { workerMain(w); });
}

LeafWorkerPool::~LeafWorkerPool()
{
    shutdown();
}

LeafWorkerPool::SubmitSlab &
LeafWorkerPool::submitSlab()
{
    // Each submitting thread sticks to one slab for its lifetime (the
    // index is global across pools: a thread that talks to several
    // replicas lands on the same slab index in each, which is fine --
    // the point is that DIFFERENT threads land on different lines).
    static std::atomic<uint32_t> next{0};
    thread_local const uint32_t idx =
        next.fetch_add(1, std::memory_order_relaxed) %
        kSubmitSlabs;
    return submitSlabs_[idx];
}

void
LeafWorkerPool::finish(ServeRequest &req,
                       std::vector<ScoredDoc> &&results,
                       ServeOutcome outcome, uint64_t index_version)
{
    if (req.done) {
        // The callback consumes the results; give the promise (rarely
        // both are set) a copy first.
        if (req.reply)
            req.reply->set_value(results);
        req.done(std::move(results), outcome, index_version);
    } else if (req.reply) {
        req.reply->set_value(std::move(results));
    }
    req.reply.reset();
    req.done = nullptr;
}

LeafWorkerPool::Admit
LeafWorkerPool::submit(const SearchRequest &request, bool block,
                       Reply reply)
{
    ServeRequest req;
    req.request = request;
    req.reply = std::move(reply);
    return enqueue(std::move(req), block);
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
    SubmitSlab &slab = submitSlab();
    Clock &clk = clock();

    // A crashed replica refuses instantly -- before the cache tier,
    // the way a dead endpoint never opens the connection.
    if (cfg_.faults &&
        !cfg_.faults->admit(cfg_.shardId, cfg_.replicaId,
                            req.request.query.id, clk.now())) {
        slab.refused.fetch_add(1, std::memory_order_relaxed);
        finish(req, {}, ServeOutcome::Refused, 0);
        return Admit::Refused;
    }

    const bool wants_results = req.reply || req.done;
    if (cfg_.cacheCapacity > 0) {
        std::vector<ScoredDoc> hit_results;
        if (cache_.lookup(req.request.query.id,
                          wants_results ? &hit_results : nullptr,
                          &clk)) {
            slab.cacheHits.fetch_add(1, std::memory_order_relaxed);
            finish(req, std::move(hit_results), ServeOutcome::Ok,
                   leaf_.currentVersion());
            return Admit::CacheHit;
        }
    }

    req.enqueueNs = clk.now();

    // Count the acceptance before the enqueue so drain()'s
    // "completed >= accepted" predicate can never observe a completed
    // request that was not yet counted as accepted.
    slab.accepted.fetch_add(1, std::memory_order_release);
    const bool ok = block ? queue_.push(std::move(req))
                          : queue_.tryPush(std::move(req));
    if (!ok) {
        slab.accepted.fetch_sub(1, std::memory_order_release);
        slab.shed.fetch_add(1, std::memory_order_relaxed);
        // The rollback can lower the accepted total a concurrent
        // drain() already read; re-evaluate its predicate.
        notifyDrainWaiters();
        // req is untouched on a failed push; tell the waiter.
        finish(req, {}, ServeOutcome::Shed, 0);
        return Admit::Shed;
    }
    return Admit::Accepted;
}

void
LeafWorkerPool::notifyDrainWaiters()
{
    // Fence pairs with drain()'s registration fence: either this load
    // sees the waiter (and we notify through the mutex), or the
    // waiter's predicate sees our counter update (and never sleeps on
    // it). Steady-state traffic with no drain() in flight pays one
    // fence + one relaxed load here -- no lock, no notify.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (drainWaiters_.load(std::memory_order_relaxed) == 0)
        return;
    {
        // Empty critical section pairs with drain()'s wait so the
        // notify cannot slip between its predicate check and sleep.
        std::lock_guard<std::mutex> lk(drainMu_);
    }
    drainCv_.notify_all();
}

void
LeafWorkerPool::completeRequest(WorkerSlot &slot)
{
    slot.completed.fetch_add(1, std::memory_order_release);
    notifyDrainWaiters();
}

void
LeafWorkerPool::dropRequest(WorkerSlot &slot, ServeRequest &req,
                            ServeOutcome outcome,
                            std::atomic<uint64_t> &counter)
{
    counter.fetch_add(1, std::memory_order_relaxed);
    finish(req, {}, outcome, 0);
    req.request.cancel.reset();
    completeRequest(slot);
}

void
LeafWorkerPool::workerMain(uint32_t worker_id)
{
    WorkerSlot &slot = *slots_[worker_id];
    Clock &clk = clock();
    // Interference schedule: worker-local since the rework (every
    // worker pauses on every Nth of ITS OWN executions rather than
    // the pool pausing on every Nth global execution -- same pause
    // rate, no shared tick counter on the hot path).
    uint64_t interference_tick = 0;
    ServeRequest req;
    while (queue_.pop(req)) {
        uint64_t start = clk.now();

        // Drop rather than execute work nobody is waiting for: a
        // hedge whose twin already answered, or a request that sat in
        // the queue past its deadline.
        const bool dropped_cancel = req.request.cancel &&
            req.request.cancel->load(std::memory_order_acquire);
        const bool dropped_expired = !dropped_cancel &&
            req.request.deadlineNs != 0 &&
            start > req.request.deadlineNs;
        if (dropped_cancel) {
            dropRequest(slot, req, ServeOutcome::Cancelled,
                        slot.cancelled);
            continue;
        }
        if (dropped_expired) {
            dropRequest(slot, req, ServeOutcome::Expired,
                        slot.expired);
            continue;
        }

        FaultDecision fd;
        if (cfg_.faults)
            fd = cfg_.faults->onExecute(cfg_.shardId, cfg_.replicaId,
                                        req.request.query.id, start);
        if (fd.delayNs != 0) {
            // Injected slowness (or a stuck worker, which is just a
            // very large delay). The sleep may outlive the deadline
            // or the hedge twin: re-check before executing, exactly
            // like the pop-time checks above.
            clk.sleepUntil(start + fd.delayNs);
            const uint64_t now = clk.now();
            if (req.request.cancel &&
                req.request.cancel->load(std::memory_order_acquire)) {
                dropRequest(slot, req, ServeOutcome::Cancelled,
                            slot.cancelled);
                continue;
            }
            if (req.request.deadlineNs != 0 &&
                now > req.request.deadlineNs) {
                dropRequest(slot, req, ServeOutcome::Expired,
                            slot.expired);
                continue;
            }
            start = now; // service time excludes the injected delay
        }
        if (fd.fail) {
            dropRequest(slot, req, ServeOutcome::Failed,
                        slot.faultFailed);
            continue;
        }

        if (cfg_.interferenceEveryN != 0 &&
            cfg_.interferencePauseNs != 0 &&
            interference_tick++ % cfg_.interferenceEveryN ==
                cfg_.interferenceEveryN - 1) {
            clk.sleepUntil(start + cfg_.interferencePauseNs);
        }

        SearchResponse resp = leaf_.serve(worker_id, req.request);
        const uint64_t end = clk.now();

        if (fd.corrupt) {
            slot.faultCorrupted.fetch_add(
                1, std::memory_order_relaxed);
            corruptReply(resp.docs);
            resp.degraded = true; // never cache a corrupted page
        }

        // Never cache a degraded page: the next asker deserves the
        // full answer, not whatever a deadline-clipped run salvaged.
        if (cfg_.cacheCapacity > 0 && !resp.degraded)
            cache_.insert(req.request.query.id, resp.docs);
        {
            std::lock_guard<std::mutex> lk(slot.mu);
            ++slot.counters.served;
            slot.counters.busyNs += end - start;
            slot.serviceNs.record(end - start);
            slot.sojournNs.record(end - req.enqueueNs);
        }
        if (fd.dropReply) {
            // The reply is lost in flight: the caller sees silence.
            // (The promise channel -- closed-loop tests -- is still
            // fulfilled; silence only makes sense for async callers
            // that own a deadline.)
            slot.faultDropped.fetch_add(1,
                                        std::memory_order_relaxed);
            req.done = nullptr;
        }
        // The executor reports !ok only when it observed the cancel
        // flag or an already-passed deadline before starting.
        const ServeOutcome outcome = resp.ok ? ServeOutcome::Ok
            : (req.request.cancel &&
               req.request.cancel->load(std::memory_order_acquire))
            ? ServeOutcome::Cancelled
            : ServeOutcome::Expired;
        finish(req, std::move(resp.docs), outcome,
               resp.indexVersion);
        req.request.cancel.reset();

        completeRequest(slot);
    }
}

uint64_t
LeafWorkerPool::acceptedApprox() const
{
    uint64_t n = 0;
    for (const SubmitSlab &slab : submitSlabs_)
        n += slab.accepted.load(std::memory_order_acquire);
    return n;
}

uint64_t
LeafWorkerPool::completedApprox() const
{
    uint64_t n = 0;
    for (const auto &slot : slots_)
        n += slot->completed.load(std::memory_order_acquire);
    return n;
}

void
LeafWorkerPool::drain()
{
    std::unique_lock<std::mutex> lk(drainMu_);
    drainWaiters_.fetch_add(1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    drainCv_.wait(lk, [this] {
        // completed first: both totals only grow, so a stale-low
        // completed read is the safe side. completed(t1) >=
        // accepted(t2) with t1 <= t2 means every request accepted by
        // t2 had already completed -- a true quiescent point. The
        // reverse order can pair a fresh completed total with a stale
        // accepted total and declare the pool drained while a request
        // accepted before the reads is still in flight.
        const uint64_t done = completedApprox();
        return done >= acceptedApprox();
    });
    drainWaiters_.fetch_sub(1, std::memory_order_relaxed);
}

void
LeafWorkerPool::shutdown()
{
    {
        std::lock_guard<std::mutex> lk(drainMu_);
        if (joined_)
            return;
        joined_ = true;
    }
    queue_.close();
    for (std::thread &t : threads_)
        t.join();
}

ServeSnapshot
LeafWorkerPool::snapshot() const
{
    ServeSnapshot s;
    for (const SubmitSlab &slab : submitSlabs_) {
        s.accepted += slab.accepted.load(std::memory_order_acquire);
        s.shed += slab.shed.load(std::memory_order_relaxed);
        s.cacheHits +=
            slab.cacheHits.load(std::memory_order_relaxed);
        s.refused += slab.refused.load(std::memory_order_relaxed);
    }
    // Derived, not stored: the admission identity
    // submitted == accepted + shed + cacheHits + refused therefore
    // holds at any instant by construction.
    s.submitted = s.accepted + s.shed + s.cacheHits + s.refused;
    for (const auto &slot : slots_) {
        s.expired += slot->expired.load(std::memory_order_relaxed);
        s.cancelled +=
            slot->cancelled.load(std::memory_order_relaxed);
        s.faultFailed +=
            slot->faultFailed.load(std::memory_order_relaxed);
        s.faultDropped +=
            slot->faultDropped.load(std::memory_order_relaxed);
        s.faultCorrupted +=
            slot->faultCorrupted.load(std::memory_order_relaxed);
        s.completed +=
            slot->completed.load(std::memory_order_acquire);
    }
    if (leaf_.live()) {
        s.snapshotsAdopted = leaf_.snapshotsAdopted();
        s.handoffsRejected = leaf_.handoffsRejected();
        s.indexVersionLow = s.indexVersionHigh =
            leaf_.currentVersion();
    }
    s.workers.reserve(slots_.size());
    for (const auto &slot : slots_) {
        std::lock_guard<std::mutex> lk(slot->mu);
        s.workers.push_back(slot->counters);
        s.serviceNs.merge(slot->serviceNs);
        s.sojournNs.merge(slot->sojournNs);
    }
    const StripedQueryCache::Totals cache_totals = cache_.totals();
    s.cacheLookups = cache_totals.lookups;
    s.cacheEvictions = cache_totals.evictions;
    s.cacheHitNs = cache_.hitHistogram();
    return s;
}

} // namespace wsearch
