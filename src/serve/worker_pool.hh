/**
 * @file
 * Concurrent leaf serving runtime (paper §IV's throughput-bound,
 * latency-constrained leaf). A LeafWorkerPool owns:
 *
 *  - a bounded MPMC request queue (admission control: blocking push
 *    for closed-loop clients, shed-on-full for open-loop overload),
 *    one mutex over a fixed ring of slots, whose in-flight count is
 *    what drain() waits on;
 *  - N std::thread workers, each serving queries on its own logical
 *    thread id of a shared LeafServer -- i.e. a per-thread
 *    QueryExecutor with tid-tagged scratch over one shared IndexShard,
 *    exactly the paper's SMT co-location model;
 *  - the query-result cache tier (the paper Figure 1 cache tier,
 *    lock-striped into hash-partitioned segments) sitting in front of
 *    the queue, so popular queries never occupy a worker;
 *  - per-worker latency histograms and counters, each worker's behind
 *    its own lock, merged into a ServeSnapshot that is safe to take
 *    mid-traffic.
 *
 * The pool runs untraced (NullTouchSink): this subsystem measures
 * wall-clock tail latency of the real engine, not simulated memory
 * behavior.
 */

#ifndef WSEARCH_SERVE_WORKER_POOL_HH
#define WSEARCH_SERVE_WORKER_POOL_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "search/leaf.hh"
#include "search/query.hh"
#include "serve/bounded_queue.hh"
#include "serve/clock.hh"
#include "serve/fault.hh"
#include "serve/serve_stats.hh"
#include "serve/striped_cache.hh"

namespace wsearch {

/**
 * How one submitted request resolved. Scatter-gather callers use the
 * distinction to pick a recovery action: Shed/Refused/Failed are
 * *replica* problems (retry elsewhere, count against its health);
 * Expired/Cancelled are *query* outcomes (deadline pressure or a
 * hedge twin winning) that say nothing about replica health.
 */
enum class ServeOutcome : uint8_t
{
    Ok,        ///< executed (or cache hit); results are valid
    Shed,      ///< refused at admission: queue full or shut down
    Refused,   ///< refused at admission: replica crashed
    Expired,   ///< dropped: deadline passed before execution
    Cancelled, ///< dropped: cancel flag set before execution
    Failed,    ///< execution failed at the replica
};

/**
 * Completion callback: results are valid only for ServeOutcome::Ok.
 * May fire on the submitting thread (cache hit, shed, refused) or on
 * a worker thread, so implementations must be thread-safe and must
 * not call back into the pool. @p index_version is the IndexSnapshot
 * version the answer was computed against (0: frozen shard, or no
 * execution happened).
 */
using ServeCompletion = std::function<void(
    std::vector<ScoredDoc> &&results, ServeOutcome outcome,
    uint64_t index_version)>;

/** One queued unit of work. */
struct ServeRequest
{
    /**
     * The query plus its serving policy. A worker that pops a request
     * whose deadline already passed (or whose cancel flag is set --
     * e.g. its hedge twin answered) drops it instead of executing:
     * nobody is waiting, so the cycles are better spent on requests
     * that can still make their deadlines. A request that starts in
     * time still honors deadline/cancel *mid-query* inside the
     * executor (degraded response).
     */
    SearchRequest request;
    uint64_t enqueueNs = 0; ///< stamped by submit()
    /** Optional completion channel; submit() wraps its promise in one. */
    ServeCompletion done;
};

/** Thread pool executing queries from a bounded queue. */
class LeafWorkerPool
{
  public:
    using Reply = std::shared_ptr<std::promise<std::vector<ScoredDoc>>>;

    struct Config
    {
        uint32_t numWorkers = 2;
        size_t queueCapacity = 1024;
        /**
         * Query-result cache entries in front of the queue (0 off).
         * Since the tier is lock-striped (numWorkers rounded up to a
         * power of two, at most 16 and at most the capacity), capacity
         * is PARTITIONED across stripes (capacity / stripes per
         * segment), not pooled
         * in one global LRU: a hot segment evicts at its own share
         * while cold segments sit underfull, so heavily skewed query
         * mixes can see a lower hit rate than a single LRU of the
         * same total capacity would give.
         */
        size_t cacheCapacity = 0;
        /**
         * Background-interference model ("The Tail at Scale"): every
         * interferenceEveryN-th execution on this pool stalls for
         * interferencePauseNs before serving -- a sleep, not busy
         * work, the way an antagonist co-runner or a GC pause stalls
         * a real replica. Either field 0 disables. This is what gives
         * a hedged cluster stragglers that a backup replica can beat.
         */
        uint32_t interferenceEveryN = 0;
        uint64_t interferencePauseNs = 0;
        /** Leaf configuration; numThreads is overridden to
         *  numWorkers so each worker owns executor tid == worker id,
         *  and the leaf clock is overridden to this pool's clock. */
        LeafServer::Config leaf;
        /**
         * This pool's identity within a cluster, passed to the fault
         * injector so plans can target one replica of one shard.
         */
        uint32_t shardId = 0;
        uint32_t replicaId = 0;
        /** Time source for every timestamp, deadline check, and
         *  injected delay (null = the real steady clock). */
        Clock *clock = nullptr;
        /** Fault injector consulted at admission and execution (null
         *  = no faults; must outlive the pool). */
        const FaultInjector *faults = nullptr;
    };

    /** Admission verdict for one submit(). */
    enum class Admit
    {
        Accepted, ///< enqueued; a worker will execute it
        CacheHit, ///< answered inline from the cache tier
        Shed,     ///< refused: queue full (non-blocking) or shut down
        Refused,  ///< refused: the fault injector crashed this replica
    };

    /** Workers start immediately. @p shard must outlive the pool. */
    LeafWorkerPool(const IndexShard &shard, const Config &cfg);

    /**
     * Live-leaf replica serving @p snapshot (see LeafServer's live
     * mode). The served version advances via
     * leafMutable().adoptSnapshot() -- the cluster's rollout path.
     */
    LeafWorkerPool(std::shared_ptr<const IndexSnapshot> snapshot,
                   const Config &cfg);

    /** Calls shutdown(): queued requests still run before the join. */
    ~LeafWorkerPool();

    LeafWorkerPool(const LeafWorkerPool &) = delete;
    LeafWorkerPool &operator=(const LeafWorkerPool &) = delete;

    /**
     * Submit one request (query + deadline/cancel/algo policy): the
     * promise form of submitAsync, whose rules it follows.
     * @param block true: wait for queue space (closed-loop); false:
     *              shed immediately when the queue is full (open-loop)
     * @param reply optional; fulfilled with the results on CacheHit /
     *              completion, or with {} when shed, refused, expired,
     *              cancelled or failed. A reply the fault injector
     *              drops is never fulfilled.
     */
    Admit submit(const SearchRequest &request, bool block,
                 Reply reply = nullptr);

    /**
     * Asynchronous submit for scatter-gather callers: @p done fires
     * exactly once per call (possibly synchronously, see
     * ServeCompletion) -- except when the fault injector drops the
     * completion, which models a lost response: the caller sees
     * silence and must rely on its own deadline. Deadline and cancel
     * ride in @p request (0/null = unused).
     */
    Admit submitAsync(const SearchRequest &request, bool block,
                      ServeCompletion done);

    /** Wait until every accepted request has completed, its
     *  completion callback included. */
    void drain();

    /**
     * Stop accepting work, finish already-queued requests, join all
     * workers. Idempotent; called by the destructor.
     */
    void shutdown();

    /** Instantaneous queue depth (for load-generator sampling). */
    size_t queueDepth() const { return queue_.depth(); }

    /** Resolved cache-tier stripe count after the capacity clamp
     *  (tests / observability). */
    size_t cacheStripeCount() const { return cache_.stripeCount(); }

    /** Merged counters + histograms; callable while traffic runs. */
    ServeSnapshot snapshot() const;

    const LeafServer &leaf() const { return leaf_; }
    /** Mutable leaf access for snapshot adoption (live replicas). */
    LeafServer &leafMutable() { return leaf_; }
    const Config &config() const { return cfg_; }

  private:
    /**
     * One worker's counters and histograms. The worker takes mu once
     * per request it finishes; snapshot() takes it to read, so every
     * identity between these fields holds in any snapshot.
     */
    struct alignas(64) WorkerSlot
    {
        mutable std::mutex mu;
        uint64_t completed = 0;
        uint64_t expired = 0;        ///< deadline passed
        uint64_t cancelled = 0;      ///< cancel flag set
        uint64_t faultFailed = 0;    ///< injected failures
        uint64_t faultDropped = 0;   ///< completions lost
        uint64_t faultCorrupted = 0; ///< corrupted
        WorkerCounters counters;
        LatencyHistogram serviceNs;
        LatencyHistogram sojournNs;
    };

    /** Start the workers (both constructors). */
    void startWorkers();
    Admit enqueue(ServeRequest &&req, bool block);
    void workerMain(uint32_t worker_id);
    /** Run or drop one popped request and resolve its completion. */
    void serveOne(uint32_t worker_id, ServeRequest &req,
                  uint64_t &interference_tick);
    static void finish(ServeRequest &req,
                       std::vector<ScoredDoc> &&results,
                       ServeOutcome outcome, uint64_t index_version);

    Clock &
    clock() const
    {
        return cfg_.clock ? *cfg_.clock : realClock();
    }

    /** Count a popped-but-dropped request on @p slot (@p counter is
     *  one of its fields) and resolve it with @p outcome. */
    static void dropRequest(WorkerSlot &slot, ServeRequest &req,
                            ServeOutcome outcome, uint64_t &counter);

    Config cfg_;
    LeafServer leaf_;
    BoundedQueue<ServeRequest> queue_;
    std::vector<std::unique_ptr<WorkerSlot>> slots_;
    std::vector<std::thread> threads_;

    // Cache tier (front of the queue), lock-striped by query id.
    StripedQueryCache cache_;

    // Admission outcomes. submitted is not stored: snapshot() derives
    // it as their sum, so the admission identity holds at any instant.
    std::atomic<uint64_t> accepted_{0};
    std::atomic<uint64_t> shed_{0};
    std::atomic<uint64_t> cacheHits_{0};
    std::atomic<uint64_t> refused_{0};

    std::once_flag shutdownOnce_;
};

} // namespace wsearch

#endif // WSEARCH_SERVE_WORKER_POOL_HH
