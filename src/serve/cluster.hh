/**
 * @file
 * Sharded scatter-gather serving cluster (paper Figure 1 at fleet
 * shape): S disjoint index shards, each served by R replica
 * LeafWorkerPools, under a root that
 *
 *  - scatters every query to all S shards concurrently (one replica
 *    per shard, picked by query hash),
 *  - propagates a per-query absolute deadline into each leaf request
 *    (a leaf drops work whose deadline already passed instead of
 *    executing it),
 *  - hedges stragglers: after a configurable delay, shards that have
 *    not answered get one backup request on another replica; the
 *    first answer wins and a shared cancel flag keeps the loser from
 *    executing (bounded extra load, "The Tail at Scale" style),
 *  - retries *failed* attempts (shed, refused by a crashed replica,
 *    or an injected execution failure) on another replica with
 *    doubling backoff, bounded by maxRetriesPerShard -- failures are
 *    distinct from silence: a failure is a signal to go elsewhere
 *    immediately, not to wait out the hedge delay,
 *  - tracks per-replica health: consecutive failures eject a replica
 *    for probationNs, after which one probe query re-admits it (and a
 *    failed probe re-ejects it on the spot),
 *  - gathers until the deadline and merges whatever answered into a
 *    degraded-but-valid page tagged with shard coverage
 *    (MergedPage, e.g. 7/8 shards answered). A shard whose every
 *    replica is down fails fast: it is marked Unavailable the moment
 *    its last attempt resolves, so the query does not burn its
 *    deadline waiting for a shard that provably cannot answer.
 *
 * Observability: per-query latency, coverage, hedge/retry counts,
 * unavailable-shard counts, and per-shard answer-latency histograms,
 * plus the underlying pools' ServeSnapshots, all safe to take
 * mid-traffic.
 *
 * Determinism hooks: a ClusterConfig::clock (fanned out to every
 * pool and leaf) virtualizes all timing, and a
 * ClusterConfig::faults plan injects crashes/delays/failures at the
 * replicas -- see serve/clock.hh and serve/fault.hh.
 */

#ifndef WSEARCH_SERVE_CLUSTER_HH
#define WSEARCH_SERVE_CLUSTER_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "search/index.hh"
#include "search/query.hh"
#include "search/root.hh"
#include "serve/clock.hh"
#include "serve/fault.hh"
#include "serve/serve_stats.hh"
#include "serve/worker_pool.hh"

namespace wsearch {

class LiveIndex;

/** Cluster shape and per-query policy. */
struct ClusterConfig
{
    /** Replica pools per shard (>= 2 for hedging to have a target). */
    uint32_t replicasPerShard = 1;
    /** Per-replica pool config; shardId/replicaId are overwritten
     *  with the replica's cluster coordinates. */
    LeafWorkerPool::Config pool;
    /** Per-query budget (ns; 0 = wait for every shard, no deadline). */
    uint64_t deadlineNs = 50'000'000;
    /** Hedge stragglers this long after scatter (ns; 0 = off). */
    uint64_t hedgeDelayNs = 0;
    /** Backup requests per query (caps hedge load amplification). */
    uint32_t maxHedgesPerQuery = 1;
    /** Retries per shard per query after *failed* attempts (shed /
     *  refused / injected failure; 0 = no retries). */
    uint32_t maxRetriesPerShard = 1;
    /** Base backoff before a retry; doubles per retry (ns). */
    uint64_t retryBackoffNs = 100'000;
    /** Eject a replica after this many consecutive failed attempts
     *  (0 = never eject). */
    uint32_t ejectAfterFailures = 3;
    /** How long an ejected replica sits out before one probe query
     *  re-admits it (ns). */
    uint64_t probationNs = 50'000'000;
    /** Time source for gather waits, backoff, and ejection windows;
     *  fanned out to every pool and leaf (null = real clock). */
    Clock *clock = nullptr;
    /** Fault injector fanned out to every replica pool (null = none;
     *  must outlive the cluster). */
    const FaultInjector *faults = nullptr;
};

/** Outcome of one scatter-gather query. */
struct ClusterResult
{
    MergedPage page;       ///< merged top-k + coverage tag
    uint32_t hedges = 0;   ///< backup requests issued for this query
    uint32_t retries = 0;  ///< retry attempts issued for this query
    uint64_t latencyNs = 0;
};

/** Outcome of one rolling snapshot rollout (per shard or fleet). */
struct RolloutResult
{
    uint32_t replicasUpdated = 0; ///< now serving the new version
    uint32_t handoffsRejected = 0; ///< torn deliveries refused+resent
    uint64_t version = 0; ///< highest version delivered

    void
    merge(const RolloutResult &o)
    {
        replicasUpdated += o.replicasUpdated;
        handoffsRejected += o.handoffsRejected;
        if (o.version > version)
            version = o.version;
    }
};

/** Per-shard slice of a ClusterSnapshot. */
struct ShardSnapshot
{
    uint64_t answered = 0; ///< queries this shard answered in time
    uint64_t missed = 0;   ///< queries with no answer (incl. unavail)
    uint64_t unavailable = 0; ///< misses where it was provably down
    uint64_t hedges = 0;    ///< backup requests issued to it
    uint64_t hedgeWins = 0; ///< answers that came from the backup
    uint64_t retries = 0;   ///< retry attempts issued to it
    uint64_t failures = 0;  ///< attempts that failed (shed/refused/..)
    uint32_t replicasEjected = 0; ///< replicas ejected right now
    uint32_t replicasDraining = 0; ///< replicas mid-rollout right now
    uint64_t rollouts = 0;  ///< completed snapshot rollouts
    LatencyHistogram latencyNs; ///< scatter-to-answer latency
    ServeSnapshot pool;         ///< merged over the shard's replicas
};

/** Point-in-time view of a ClusterServer. */
struct ClusterSnapshot
{
    uint64_t queries = 0;
    uint64_t degraded = 0; ///< queries answered by < all shards
    uint64_t hedgesIssued = 0;
    uint64_t hedgeWins = 0;
    uint64_t retriesIssued = 0;
    uint64_t shardAnswers = 0; ///< sum of per-query answered counts
    uint64_t shardMisses = 0;
    /** Sum of per-query unavailable-shard counts (subset of
     *  shardMisses: the misses that were proven dead, not late). */
    uint64_t shardsUnavailable = 0;

    LatencyHistogram queryNs; ///< end-to-end scatter-gather latency
    LatencyHistogram shardNs; ///< per-shard answer latency, all shards

    std::vector<ShardSnapshot> shards;

    /** Mean fraction of shards answering per query (1.0 = full). */
    double
    meanCoverage() const
    {
        const uint64_t total = shardAnswers + shardMisses;
        return total ? static_cast<double>(shardAnswers) /
                static_cast<double>(total)
                     : 0.0;
    }

    /** Leaf executions across all pools (hedge-load accounting). */
    uint64_t
    leafExecuted() const
    {
        uint64_t n = 0;
        for (const ShardSnapshot &s : shards)
            n += s.pool.executed();
        return n;
    }
};

/** Print summary + per-shard tables for @p snap (EXPERIMENTS.md
 *  paste-able). @p duration_sec scales rates; 0 omits them. */
void printClusterReport(const ClusterSnapshot &snap,
                        double duration_sec);

/** The scatter-gather serving cluster. */
class ClusterServer
{
  public:
    /**
     * @param shards non-owning, disjoint partitions (shard s serving
     *               global docs s, s + S, ...);
     *               must outlive the cluster
     */
    ClusterServer(const std::vector<const IndexShard *> &shards,
                  const ClusterConfig &cfg);

    /**
     * Live cluster: shard s is served from @p indexes[s]'s current
     * snapshot by every replica; new versions reach replicas via
     * rolloutShard()/rolloutAll(). Live indexes carry global doc ids
     * already (identity mapping).
     * @p indexes are non-owning and must outlive the cluster.
     */
    ClusterServer(const std::vector<LiveIndex *> &indexes,
                  const ClusterConfig &cfg);

    /** Shuts down every pool and joins. */
    ~ClusterServer();

    ClusterServer(const ClusterServer &) = delete;
    ClusterServer &operator=(const ClusterServer &) = delete;

    /**
     * Scatter @p req to all shards, gather until the deadline, and
     * merge. Thread-safe; blocks the calling thread for at most the
     * deadline (plus merge time). A degraded page is returned when
     * shards miss -- never an error. req.deadlineNs, when set,
     * overrides the cluster-wide ClusterConfig::deadlineNs; the algo
     * hint is forwarded to every leaf. req.cancel is not forwarded
     * (each shard gets its own hedge-shared flag).
     */
    ClusterResult handle(const SearchRequest &req);

    /**
     * Rolling rollout of @p snap to every replica of @p shard, one
     * replica at a time so the other replicas keep serving: mark the
     * replica draining (the scatter path stops picking it), drain its
     * in-flight work, hand the snapshot over (checksum-validated by
     * the leaf; a corrupted delivery -- injectable via
     * FaultInjector::corruptHandoff -- is rejected, counted, and
     * resent clean), then re-admit. Serialized per shard. With R == 1
     * the lone replica is briefly unpickable; queries during that
     * window see the shard unavailable rather than a torn index.
     */
    RolloutResult rolloutShard(uint32_t shard,
                               std::shared_ptr<const IndexSnapshot>
                                   snap);

    /** rolloutShard(s, live-index s's current snapshot) for every
     *  shard (live clusters only). */
    RolloutResult rolloutAll();

    /** The live index feeding @p shard (null on frozen clusters). */
    LiveIndex *
    liveIndex(uint32_t shard) const
    {
        return shard < live_.size() ? live_[shard] : nullptr;
    }

    /** Wait until every accepted leaf request has completed. */
    void drainAll();

    /** Stop accepting work, finish queues, join all pools. */
    void shutdown();

    /** Merged cluster + per-shard + pool stats, safe mid-traffic. */
    ClusterSnapshot snapshot() const;

    uint32_t
    numShards() const
    {
        return static_cast<uint32_t>(shards_.size());
    }

    const ClusterConfig &config() const { return cfg_; }

    const LeafWorkerPool &
    replicaPool(uint32_t shard, uint32_t replica) const
    {
        return *shards_[shard]->replicas[replica];
    }

    /** The replica a fault-free primary attempt of (@p query_id,
     *  @p shard) lands on -- lets tests aim faults at the exact
     *  replica a query will use. */
    uint32_t
    plannedReplica(uint64_t query_id, uint32_t shard) const
    {
        return replicaFor(query_id, shard, 0);
    }

  private:
    struct Gather;

    /** Ejection state of one replica (guarded by ShardState::mu). */
    struct ReplicaHealth
    {
        uint32_t consecutiveFailures = 0;
        uint64_t ejectedUntilNs = 0; ///< 0 = admitted
        bool draining = false; ///< mid-rollout: not pickable
    };

    /** Per-shard replica set + stats (stats guarded by mu). */
    struct ShardState
    {
        std::vector<std::unique_ptr<LeafWorkerPool>> replicas;
        mutable std::mutex mu;
        std::vector<ReplicaHealth> health;
        uint64_t answered = 0;
        uint64_t missed = 0;
        uint64_t unavailable = 0;
        uint64_t hedges = 0;
        uint64_t hedgeWins = 0;
        uint64_t retries = 0;
        uint64_t failures = 0;
        uint64_t rollouts = 0; ///< completed snapshot rollouts
        LatencyHistogram latencyNs;
        /** Serializes rollouts of this shard (never held with mu). */
        std::mutex rolloutMu;
    };

    Clock &
    clock() const
    {
        return cfg_.clock ? *cfg_.clock : realClock();
    }

    /** Hash-preferred replica for attempt @p attempt of
     *  (query, shard), health-blind. */
    uint32_t replicaFor(uint64_t query_id, uint32_t shard,
                        uint32_t attempt) const;

    /** Health-aware replica choice: the hash-preferred replica, or
     *  the next non-ejected one. @return false when every replica of
     *  the shard is ejected (shard is unavailable right now). */
    bool pickReplica(uint64_t query_id, uint32_t shard,
                     uint32_t attempt, uint64_t now_ns,
                     uint32_t *replica) const;

    /** Update @p replica's health after an attempt resolves. */
    void noteAttemptResult(uint32_t shard, uint32_t replica,
                           bool failed, uint64_t now_ns);

    /** Issue one attempt; @return false when no replica is
     *  admittable (caller must settle the shard as unavailable). */
    bool issue(const SearchRequest &base, uint32_t shard,
               bool is_hedge, uint64_t t0, uint64_t deadline_ns,
               const std::shared_ptr<Gather> &gather,
               const std::shared_ptr<std::atomic<bool>> &cancel);

    /** Mark @p shard provably dead for this query and wake the
     *  gatherer. Caller must not hold gather->mu. */
    static void markUnavailable(const std::shared_ptr<Gather> &gather,
                                uint32_t shard);

    /** Shared pool construction for both ctors. */
    void buildShards(uint32_t num_shards,
                     const std::vector<const IndexShard *> &shards,
                     const std::vector<LiveIndex *> &indexes);

    ClusterConfig cfg_;
    std::vector<std::unique_ptr<ShardState>> shards_;
    /** Per-shard live index (empty on frozen clusters). */
    std::vector<LiveIndex *> live_;

    /** Cluster-level stats, guarded by statsMu_. */
    mutable std::mutex statsMu_;
    uint64_t queries_ = 0;
    uint64_t degraded_ = 0;
    uint64_t hedgesIssued_ = 0;
    uint64_t hedgeWins_ = 0;
    uint64_t retriesIssued_ = 0;
    uint64_t shardAnswers_ = 0;
    uint64_t shardMisses_ = 0;
    uint64_t shardsUnavailable_ = 0;
    LatencyHistogram queryNs_;
    LatencyHistogram shardNs_;
};

} // namespace wsearch

#endif // WSEARCH_SERVE_CLUSTER_HH
