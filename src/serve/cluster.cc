#include "serve/cluster.hh"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>

#include "search/live/live_index.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/table.hh"

namespace wsearch {

/**
 * Shared gather state for one in-flight query. Completions (possibly
 * firing after handle() returned, e.g. a straggler finishing past the
 * deadline) only ever touch this block, which the shared_ptr keeps
 * alive until the last attempt resolves.
 */
struct ClusterServer::Gather
{
    explicit Gather(uint32_t num_shards)
        : got(num_shards, 0), versions(num_shards, 0),
          dead(num_shards, 0),
          partials(num_shards), latNs(num_shards, 0),
          winnerIsHedge(num_shards, 0), outstanding(num_shards, 0),
          attempts(num_shards, 0), retriesUsed(num_shards, 0),
          nextRetryNs(num_shards, 0)
    {
    }

    std::mutex mu;
    std::condition_variable cv;
    std::vector<uint8_t> got;  ///< shard answered (first answer wins)
    std::vector<uint64_t> versions; ///< index version of each answer
    std::vector<uint8_t> dead; ///< provably unavailable this query
    std::vector<std::vector<ScoredDoc>> partials;
    std::vector<uint64_t> latNs;
    std::vector<uint8_t> winnerIsHedge; ///< answer came from a hedge
    std::vector<uint32_t> outstanding;  ///< attempts not yet resolved
    std::vector<uint32_t> attempts;     ///< attempts issued so far
    std::vector<uint32_t> retriesUsed;
    std::vector<uint64_t> nextRetryNs; ///< retry due then (0 = none)
    uint32_t answered = 0;
    bool hedgePending = false; ///< hedge phase has not fired yet
    /**
     * Bumped on every state change so the gather loop can tell a
     * wakeup with news from a timeout: its wait predicate is
     * "events moved or settled", which closes the race where a
     * failure lands right after the loop computed its next wake time.
     */
    uint64_t events = 0;

    /** Nothing more can change this query's page: every shard
     *  answered, died, or has no attempt in flight, no retry
     *  scheduled, and no hedge still to come. Caller holds mu. */
    bool
    settled() const
    {
        for (size_t s = 0; s < got.size(); ++s) {
            if (got[s] || dead[s])
                continue;
            if (outstanding[s] != 0 || nextRetryNs[s] != 0 ||
                hedgePending)
                return false;
        }
        return true;
    }
};

void
ClusterServer::buildShards(
    uint32_t num_shards,
    const std::vector<const IndexShard *> &shards,
    const std::vector<LiveIndex *> &indexes)
{
    shards_.reserve(num_shards);
    for (uint32_t s = 0; s < num_shards; ++s) {
        auto state = std::make_unique<ShardState>();
        LeafWorkerPool::Config pc = cfg_.pool;
        if (shards.empty()) {
            // Live segments carry global doc ids; identity mapping.
            pc.leaf.docIdStride = 1;
            pc.leaf.docIdOffset = 0;
        } else {
            // Shard s serves global docs s, s + S, ...
            pc.leaf.docIdStride = num_shards;
            pc.leaf.docIdOffset = s;
        }
        pc.shardId = s;
        if (cfg_.clock)
            pc.clock = cfg_.clock;
        if (cfg_.faults)
            pc.faults = cfg_.faults;
        state->health.resize(cfg_.replicasPerShard);
        state->replicas.reserve(cfg_.replicasPerShard);
        for (uint32_t r = 0; r < cfg_.replicasPerShard; ++r) {
            pc.replicaId = r;
            if (shards.empty())
                state->replicas.push_back(
                    std::make_unique<LeafWorkerPool>(
                        indexes[s]->snapshot(), pc));
            else
                state->replicas.push_back(
                    std::make_unique<LeafWorkerPool>(*shards[s],
                                                     pc));
        }
        shards_.push_back(std::move(state));
    }
}

ClusterServer::ClusterServer(
    const std::vector<const IndexShard *> &shards,
    const ClusterConfig &cfg)
    : cfg_(cfg)
{
    wsearch_assert(!shards.empty());
    wsearch_assert(cfg.replicasPerShard >= 1);
    buildShards(static_cast<uint32_t>(shards.size()), shards, {});
}

ClusterServer::ClusterServer(const std::vector<LiveIndex *> &indexes,
                             const ClusterConfig &cfg)
    : cfg_(cfg), live_(indexes)
{
    wsearch_assert(!indexes.empty());
    wsearch_assert(cfg.replicasPerShard >= 1);
    buildShards(static_cast<uint32_t>(indexes.size()), {}, indexes);
}

ClusterServer::~ClusterServer()
{
    shutdown();
}

uint32_t
ClusterServer::replicaFor(uint64_t query_id, uint32_t shard,
                          uint32_t attempt) const
{
    // Hash-spread primaries across replicas; each further attempt
    // moves to the next replica so a hedge or retry lands on a
    // different pool (when R >= 2) than the attempt it follows.
    const uint64_t h =
        mix64(query_id ^ (0x9e3779b97f4a7c15ull * (shard + 1)));
    return static_cast<uint32_t>((h + attempt) %
                                 cfg_.replicasPerShard);
}

bool
ClusterServer::pickReplica(uint64_t query_id, uint32_t shard,
                           uint32_t attempt, uint64_t now_ns,
                           uint32_t *replica) const
{
    const uint32_t R = cfg_.replicasPerShard;
    const uint32_t preferred = replicaFor(query_id, shard, attempt);
    const ShardState &st = *shards_[shard];
    std::lock_guard<std::mutex> lk(st.mu);
    for (uint32_t i = 0; i < R; ++i) {
        const uint32_t r = (preferred + i) % R;
        // An ejected replica whose probation has lapsed is admitted
        // again: this attempt is its probe. Success resets its
        // health; another failure re-ejects it immediately. A
        // draining replica (mid-rollout) is skipped outright.
        if (st.health[r].ejectedUntilNs <= now_ns &&
            !st.health[r].draining) {
            *replica = r;
            return true;
        }
    }
    return false;
}

void
ClusterServer::noteAttemptResult(uint32_t shard, uint32_t replica,
                                 bool failed, uint64_t now_ns)
{
    ShardState &st = *shards_[shard];
    std::lock_guard<std::mutex> lk(st.mu);
    ReplicaHealth &h = st.health[replica];
    if (!failed) {
        h.consecutiveFailures = 0;
        h.ejectedUntilNs = 0;
        return;
    }
    ++st.failures;
    ++h.consecutiveFailures;
    if (cfg_.ejectAfterFailures != 0 &&
        h.consecutiveFailures >= cfg_.ejectAfterFailures)
        h.ejectedUntilNs = now_ns + cfg_.probationNs;
}

void
ClusterServer::markUnavailable(const std::shared_ptr<Gather> &gather,
                               uint32_t shard)
{
    std::lock_guard<std::mutex> lk(gather->mu);
    if (!gather->got[shard])
        gather->dead[shard] = 1;
    ++gather->events;
    gather->cv.notify_all();
}

bool
ClusterServer::issue(const SearchRequest &base, uint32_t shard,
                     bool is_hedge, uint64_t t0, uint64_t deadline_ns,
                     const std::shared_ptr<Gather> &gather,
                     const std::shared_ptr<std::atomic<bool>> &cancel)
{
    uint32_t attempt;
    {
        std::lock_guard<std::mutex> lk(gather->mu);
        attempt = gather->attempts[shard]++;
    }
    uint32_t replica = 0;
    if (!pickReplica(base.query.id, shard, attempt, clock().now(),
                     &replica))
        return false;
    {
        std::lock_guard<std::mutex> lk(gather->mu);
        ++gather->outstanding[shard];
    }
    if (is_hedge) {
        std::lock_guard<std::mutex> lk(shards_[shard]->mu);
        ++shards_[shard]->hedges;
    }
    auto done = [this, gather, shard, replica, is_hedge, t0,
                 cancel](std::vector<ScoredDoc> &&results,
                         ServeOutcome outcome,
                         uint64_t index_version) {
        const uint64_t now = clock().now();
        // Shed/Refused/Failed are replica problems; Expired/Cancelled
        // (deadline pressure, a hedge twin winning) say nothing about
        // the replica. Health first (ShardState::mu), gather state
        // second -- the two locks are never held together.
        const bool failed = outcome == ServeOutcome::Shed ||
            outcome == ServeOutcome::Refused ||
            outcome == ServeOutcome::Failed;
        if (outcome == ServeOutcome::Ok || failed)
            noteAttemptResult(shard, replica, failed, now);
        std::lock_guard<std::mutex> lk(gather->mu);
        --gather->outstanding[shard];
        ++gather->events;
        if (outcome == ServeOutcome::Ok && !gather->got[shard]) {
            gather->got[shard] = 1;
            gather->versions[shard] = index_version;
            gather->partials[shard] = std::move(results);
            gather->latNs[shard] = now - t0;
            gather->winnerIsHedge[shard] = is_hedge ? 1 : 0;
            ++gather->answered;
            // First answer wins; stop the twin before it executes.
            cancel->store(true, std::memory_order_release);
        } else if (failed && !gather->got[shard]) {
            if (gather->retriesUsed[shard] <
                cfg_.maxRetriesPerShard) {
                // Schedule a backoff retry; the gather loop issues it
                // (a completion must not call back into a pool).
                const uint32_t used = gather->retriesUsed[shard]++;
                gather->nextRetryNs[shard] = now +
                    (cfg_.retryBackoffNs << std::min(used, 10u));
            } else if (gather->outstanding[shard] == 0 &&
                       gather->nextRetryNs[shard] == 0) {
                // Retries exhausted and nothing left in flight: the
                // shard is provably down for this query. Fail fast
                // rather than burn the rest of the deadline.
                gather->dead[shard] = 1;
            }
        }
        gather->cv.notify_all();
    };
    LeafWorkerPool &pool = *shards_[shard]->replicas[replica];
    // Per-attempt leaf request: the caller's query and algo hint, the
    // effective deadline, and this shard's hedge-shared cancel flag.
    SearchRequest leaf_req = base;
    leaf_req.deadlineNs = deadline_ns;
    leaf_req.cancel = cancel;
    // Non-blocking admission: a full replica queue sheds, which the
    // completion reports as a failed attempt -- blocking here would
    // stall the scatter loop behind one hot shard.
    pool.submitAsync(leaf_req, /*block=*/false, std::move(done));
    return true;
}

ClusterResult
ClusterServer::handle(const SearchRequest &req)
{
    Clock &clk = clock();
    const Query &query = req.query;
    const uint32_t num_shards = numShards();
    auto gather = std::make_shared<Gather>(num_shards);
    const uint64_t t0 = clk.now();
    // A caller-supplied absolute deadline wins over the cluster-wide
    // per-query budget.
    const uint64_t deadline = req.deadlineNs != 0
        ? req.deadlineNs
        : (cfg_.deadlineNs ? t0 + cfg_.deadlineNs : 0);

    gather->hedgePending =
        cfg_.hedgeDelayNs != 0 && cfg_.maxHedgesPerQuery > 0;
    const uint64_t hedge_at = deadline
        ? std::min(t0 + cfg_.hedgeDelayNs, deadline)
        : t0 + cfg_.hedgeDelayNs;

    std::vector<std::shared_ptr<std::atomic<bool>>> cancels;
    cancels.reserve(num_shards);
    for (uint32_t s = 0; s < num_shards; ++s)
        cancels.push_back(std::make_shared<std::atomic<bool>>(false));

    for (uint32_t s = 0; s < num_shards; ++s)
        if (!issue(req, s, /*is_hedge=*/false, t0, deadline, gather,
                   cancels[s]))
            markUnavailable(gather, s);

    uint32_t hedges = 0;
    uint32_t retries = 0;

    // Gather event loop: sleep until the next actionable instant (a
    // due retry, the hedge fire, the deadline) or a completion event,
    // act, repeat -- until nothing more can change the page.
    std::unique_lock<std::mutex> lk(gather->mu);
    uint64_t seen = gather->events;
    while (!gather->settled()) {
        const uint64_t now = clk.now();
        if (deadline && now >= deadline)
            break;

        std::vector<uint32_t> due;
        for (uint32_t s = 0; s < num_shards; ++s) {
            if (!gather->got[s] && !gather->dead[s] &&
                gather->nextRetryNs[s] != 0 &&
                gather->nextRetryNs[s] <= now) {
                gather->nextRetryNs[s] = 0;
                due.push_back(s);
            }
        }
        if (!due.empty()) {
            // Submitting can complete synchronously (shed/refused),
            // which takes gather->mu: issue outside the lock.
            lk.unlock();
            for (const uint32_t s : due) {
                {
                    std::lock_guard<std::mutex> slk(shards_[s]->mu);
                    ++shards_[s]->retries;
                }
                ++retries;
                if (!issue(req, s, /*is_hedge=*/false, t0, deadline,
                           gather, cancels[s]))
                    markUnavailable(gather, s);
            }
            lk.lock();
            seen = gather->events;
            continue;
        }

        if (gather->hedgePending && now >= hedge_at) {
            // Hedge phase (fires once): back up whichever shards are
            // still silent, bounded by maxHedgesPerQuery.
            gather->hedgePending = false;
            std::vector<uint32_t> stragglers;
            for (uint32_t s = 0; s < num_shards &&
                 stragglers.size() < cfg_.maxHedgesPerQuery;
                 ++s) {
                if (!gather->got[s] && !gather->dead[s])
                    stragglers.push_back(s);
            }
            lk.unlock();
            for (const uint32_t s : stragglers) {
                if (issue(req, s, /*is_hedge=*/true, t0, deadline,
                          gather, cancels[s]))
                    ++hedges;
                else
                    markUnavailable(gather, s);
            }
            lk.lock();
            seen = gather->events;
            continue;
        }

        uint64_t wake = deadline;
        if (gather->hedgePending)
            wake = wake ? std::min(wake, hedge_at) : hedge_at;
        for (uint32_t s = 0; s < num_shards; ++s)
            if (!gather->got[s] && gather->nextRetryNs[s] != 0)
                wake = wake
                    ? std::min(wake, gather->nextRetryNs[s])
                    : gather->nextRetryNs[s];
        clk.waitUntil(gather->cv, lk, wake, [&] {
            return gather->events != seen || gather->settled();
        });
        seen = gather->events;
    }

    ClusterResult res;
    std::vector<ShardOutcome> outcomes(num_shards,
                                       ShardOutcome::Missed);
    for (uint32_t s = 0; s < num_shards; ++s) {
        outcomes[s] = gather->got[s] ? ShardOutcome::Answered
            : gather->dead[s]        ? ShardOutcome::Unavailable
                                     : ShardOutcome::Missed;
    }
    res.page = RootServer::mergeWithCoverage(gather->partials,
                                             outcomes, query.topK);
    if (!live_.empty())
        res.page.shardVersions = gather->versions;
    res.hedges = hedges;
    res.retries = retries;
    // Copy what the stats need: stragglers may still mutate the
    // gather block after the lock is released.
    const std::vector<uint64_t> lat = gather->latNs;
    const std::vector<uint8_t> winner_is_hedge = gather->winnerIsHedge;
    lk.unlock();
    res.latencyNs = clk.now() - t0;

    uint32_t wins = 0;
    for (uint32_t s = 0; s < num_shards; ++s) {
        ShardState &st = *shards_[s];
        std::lock_guard<std::mutex> slk(st.mu);
        switch (outcomes[s]) {
        case ShardOutcome::Answered:
            ++st.answered;
            st.latencyNs.record(lat[s]);
            if (winner_is_hedge[s]) {
                ++st.hedgeWins;
                ++wins;
            }
            break;
        case ShardOutcome::Unavailable:
            ++st.missed;
            ++st.unavailable;
            break;
        case ShardOutcome::Missed:
            ++st.missed;
            break;
        }
    }
    {
        std::lock_guard<std::mutex> stats_lk(statsMu_);
        ++queries_;
        if (res.page.degraded())
            ++degraded_;
        hedgesIssued_ += hedges;
        hedgeWins_ += wins;
        retriesIssued_ += retries;
        shardAnswers_ += res.page.shardsAnswered;
        shardMisses_ += num_shards - res.page.shardsAnswered;
        shardsUnavailable_ += res.page.shardsUnavailable;
        queryNs_.record(res.latencyNs);
        for (uint32_t s = 0; s < num_shards; ++s)
            if (outcomes[s] == ShardOutcome::Answered)
                shardNs_.record(lat[s]);
    }
    return res;
}

RolloutResult
ClusterServer::rolloutShard(uint32_t shard,
                            std::shared_ptr<const IndexSnapshot> snap)
{
    wsearch_assert(shard < shards_.size());
    wsearch_assert(snap != nullptr);
    ShardState &st = *shards_[shard];
    RolloutResult res;
    res.version = snap->version;
    // One rollout of a shard at a time; concurrent callers queue.
    std::lock_guard<std::mutex> rlk(st.rolloutMu);
    const uint32_t R = static_cast<uint32_t>(st.replicas.size());
    for (uint32_t r = 0; r < R; ++r) {
        {
            std::lock_guard<std::mutex> lk(st.mu);
            st.health[r].draining = true;
        }
        LeafWorkerPool &pool = *st.replicas[r];
        // Let in-flight work finish on the old version before the
        // swap; new traffic already avoids this replica. A caller
        // that picked this replica just before the draining flag
        // was set can still submit after one drain() returns, so
        // re-drain until the queue reads empty.
        do {
            pool.drain();
        } while (pool.queueDepth() != 0);
        // The injector models a torn handoff: the replica receives a
        // snapshot whose contents do not match its checksum. The leaf
        // must refuse it (and keep serving its old version), after
        // which the rollout resends the pristine copy.
        const bool corrupt = cfg_.faults &&
            cfg_.faults->corruptHandoff(shard, r, snap->version,
                                        clock().now());
        bool adopted = false;
        if (corrupt) {
            adopted = pool.leafMutable().adoptSnapshot(
                snap->corruptedCopy());
            wsearch_assert(!adopted); // a torn handoff must not land
        }
        if (!adopted)
            adopted = pool.leafMutable().adoptSnapshot(snap);
        if (corrupt)
            ++res.handoffsRejected;
        if (adopted)
            ++res.replicasUpdated;
        {
            std::lock_guard<std::mutex> lk(st.mu);
            st.health[r].draining = false;
        }
    }
    {
        std::lock_guard<std::mutex> lk(st.mu);
        ++st.rollouts;
    }
    return res;
}

RolloutResult
ClusterServer::rolloutAll()
{
    wsearch_assert(!live_.empty());
    RolloutResult res;
    const uint32_t S = static_cast<uint32_t>(live_.size());
    for (uint32_t s = 0; s < S; ++s)
        res.merge(rolloutShard(s, live_[s]->snapshot()));
    return res;
}

void
ClusterServer::drainAll()
{
    for (const auto &shard : shards_)
        for (const auto &pool : shard->replicas)
            pool->drain();
}

void
ClusterServer::shutdown()
{
    for (const auto &shard : shards_)
        for (const auto &pool : shard->replicas)
            pool->shutdown();
}

ClusterSnapshot
ClusterServer::snapshot() const
{
    ClusterSnapshot snap;
    {
        std::lock_guard<std::mutex> lk(statsMu_);
        snap.queries = queries_;
        snap.degraded = degraded_;
        snap.hedgesIssued = hedgesIssued_;
        snap.hedgeWins = hedgeWins_;
        snap.retriesIssued = retriesIssued_;
        snap.shardAnswers = shardAnswers_;
        snap.shardMisses = shardMisses_;
        snap.shardsUnavailable = shardsUnavailable_;
        snap.queryNs = queryNs_;
        snap.shardNs = shardNs_;
    }
    const uint64_t now = clock().now();
    snap.shards.reserve(shards_.size());
    for (const auto &shard : shards_) {
        ShardSnapshot ss;
        {
            std::lock_guard<std::mutex> lk(shard->mu);
            ss.answered = shard->answered;
            ss.missed = shard->missed;
            ss.unavailable = shard->unavailable;
            ss.hedges = shard->hedges;
            ss.hedgeWins = shard->hedgeWins;
            ss.retries = shard->retries;
            ss.failures = shard->failures;
            ss.rollouts = shard->rollouts;
            for (const ReplicaHealth &h : shard->health) {
                if (h.ejectedUntilNs > now)
                    ++ss.replicasEjected;
                if (h.draining)
                    ++ss.replicasDraining;
            }
            ss.latencyNs = shard->latencyNs;
        }
        for (const auto &pool : shard->replicas)
            ss.pool.merge(pool->snapshot());
        snap.shards.push_back(std::move(ss));
    }
    return snap;
}

void
printClusterReport(const ClusterSnapshot &snap, double duration_sec)
{
    Table summary({"Metric", "Value"});
    summary.addRow({"queries", Table::fmtInt(snap.queries)});
    summary.addRow({"degraded", Table::fmtInt(snap.degraded)});
    summary.addRow({"coverage",
                    Table::fmtPct(snap.meanCoverage(), 2)});
    summary.addRow({"hedges issued",
                    Table::fmtInt(snap.hedgesIssued)});
    summary.addRow({"hedge wins", Table::fmtInt(snap.hedgeWins)});
    if (snap.retriesIssued || snap.shardsUnavailable) {
        summary.addRow({"retries issued",
                        Table::fmtInt(snap.retriesIssued)});
        summary.addRow({"shards unavailable",
                        Table::fmtInt(snap.shardsUnavailable)});
    }
    summary.addRow({"leaf executed",
                    Table::fmtInt(snap.leafExecuted())});
    uint64_t rollouts = 0;
    for (const ShardSnapshot &ss : snap.shards)
        rollouts += ss.rollouts;
    if (rollouts) {
        uint64_t lo = 0;
        uint64_t hi = 0;
        uint64_t rejected = 0;
        for (const ShardSnapshot &ss : snap.shards) {
            rejected += ss.pool.handoffsRejected;
            if (ss.pool.indexVersionHigh > hi)
                hi = ss.pool.indexVersionHigh;
            if (ss.pool.indexVersionLow != 0 &&
                (lo == 0 || ss.pool.indexVersionLow < lo))
                lo = ss.pool.indexVersionLow;
        }
        summary.addRow({"rollouts", Table::fmtInt(rollouts)});
        summary.addRow({"handoffs rejected", Table::fmtInt(rejected)});
        summary.addRow({"index version low", Table::fmtInt(lo)});
        summary.addRow({"index version high", Table::fmtInt(hi)});
    }
    if (duration_sec > 0) {
        summary.addRow(
            {"achieved QPS",
             Table::fmt(static_cast<double>(snap.queries) /
                            duration_sec,
                        1)});
    }
    const LatencyHistogram &q = snap.queryNs;
    summary.addRow({"query p50 (us)", fmtUsec(q.quantile(0.50))});
    summary.addRow({"query p95 (us)", fmtUsec(q.quantile(0.95))});
    summary.addRow({"query p99 (us)", fmtUsec(q.quantile(0.99))});
    summary.addRow({"query p99.9 (us)", fmtUsec(q.quantile(0.999))});
    summary.addRow({"shard p50 (us)",
                    fmtUsec(snap.shardNs.quantile(0.50))});
    summary.addRow({"shard p99 (us)",
                    fmtUsec(snap.shardNs.quantile(0.99))});
    summary.print();

    Table shards({"Shard", "Answered", "Missed", "Unavail", "Hedges",
                  "Wins", "Retries", "p50 (us)", "p99 (us)",
                  "Executed", "Expired", "Cancelled", "Shed"});
    for (size_t s = 0; s < snap.shards.size(); ++s) {
        const ShardSnapshot &ss = snap.shards[s];
        shards.addRow({Table::fmtInt(s), Table::fmtInt(ss.answered),
                       Table::fmtInt(ss.missed),
                       Table::fmtInt(ss.unavailable),
                       Table::fmtInt(ss.hedges),
                       Table::fmtInt(ss.hedgeWins),
                       Table::fmtInt(ss.retries),
                       fmtUsec(ss.latencyNs.quantile(0.50)),
                       fmtUsec(ss.latencyNs.quantile(0.99)),
                       Table::fmtInt(ss.pool.executed()),
                       Table::fmtInt(ss.pool.expired),
                       Table::fmtInt(ss.pool.cancelled),
                       Table::fmtInt(ss.pool.shed)});
    }
    std::printf("\n");
    shards.print();
}

} // namespace wsearch
