/**
 * @file
 * Root aggregation and the serving tree (paper Figure 1): a query
 * enters at the front end, is filtered by the query-cache tier, fans
 * out to every leaf (each holding a disjoint shard partition), and
 * the root merges the per-leaf top-k into the final result page.
 */

#ifndef WSEARCH_SEARCH_ROOT_HH
#define WSEARCH_SEARCH_ROOT_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "search/cache_server.hh"
#include "search/leaf.hh"
#include "search/query.hh"

namespace wsearch {

/**
 * How one shard resolved within a scatter-gather query. Missed and
 * Unavailable both leave a coverage hole, but they mean different
 * things operationally: Missed is deadline pressure (the shard was
 * healthy, the query ran out of time), Unavailable is a shard whose
 * every attempt failed or whose replicas are all down -- the signal
 * an operator pages on.
 */
enum class ShardOutcome : uint8_t
{
    Answered,    ///< contributed a partial result
    Missed,      ///< no answer by the deadline (shard may be fine)
    Unavailable, ///< every replica crashed/failed; gave up early
};

/**
 * A merged result page tagged with shard coverage: how many of the
 * shards that should have contributed actually did. A degraded page
 * (shardsAnswered < shardsTotal) is still valid and correctly ordered
 * over the shards that answered -- the scatter-gather layer returns
 * it when a shard misses its deadline or sheds, rather than failing
 * the whole query. shardsUnavailable counts the subset of the missing
 * shards that were *known dead* (all replicas crashed or exhausted
 * their retries) rather than merely late.
 */
struct MergedPage
{
    std::vector<ScoredDoc> docs;
    uint32_t shardsTotal = 0;
    uint32_t shardsAnswered = 0;
    uint32_t shardsUnavailable = 0;
    /** Per-shard index version behind each answer (live clusters;
     *  empty for frozen shards, 0 for shards that did not answer).
     *  One logical page never mixes answers from before and after a
     *  shard's rollout: the version is whatever snapshot the single
     *  winning replica answer was computed against. */
    std::vector<uint64_t> shardVersions;

    bool degraded() const { return shardsAnswered < shardsTotal; }

    double
    coverage() const
    {
        return shardsTotal ? static_cast<double>(shardsAnswered) /
                static_cast<double>(shardsTotal)
                           : 0.0;
    }
};

/** Merges per-leaf result lists into a global top-k. */
class RootServer
{
  public:
    /**
     * Merge best-first partial results into a global top-k.
     * Duplicate doc ids across partials (e.g. a primary and its hedge
     * both answering for the same shard) are deduplicated, keeping
     * the highest score; ordering is deterministic (score desc, doc
     * id asc on ties).
     */
    static std::vector<ScoredDoc>
    merge(const std::vector<std::vector<ScoredDoc>> &partials,
          uint32_t k);

    /**
     * Coverage-aware merge: only ShardOutcome::Answered partials
     * contribute; the page reports shardsAnswered/shardsTotal, and
     * Unavailable shards are additionally reported in
     * MergedPage::shardsUnavailable so callers can distinguish "late"
     * from "dead". @p outcomes must be the same length as @p partials.
     */
    static MergedPage
    mergeWithCoverage(const std::vector<std::vector<ScoredDoc>> &partials,
                      const std::vector<ShardOutcome> &outcomes,
                      uint32_t k);
};

/** The full serving system: cache tier + root + leaves. */
class ServingTree
{
  public:
    /** Plain counter snapshot (the atomics live in the tree). */
    struct Stats
    {
        uint64_t queries = 0;
        uint64_t cacheHits = 0;
        uint64_t leafQueries = 0; ///< queries that reached the leaves
    };

    /**
     * @param leaves non-owning; leaf i must serve partition i of the
     *               global document space
     * @param cache_capacity query-result cache entries (0 disables)
     */
    ServingTree(std::vector<LeafServer *> leaves, size_t cache_capacity);

    /**
     * Handle one request end-to-end on logical thread @p tid.
     * Thread-safe for concurrent callers with distinct tids, each
     * tid < every leaf's numThreads (LeafServer::serve's contract);
     * the cache tier is mutex-guarded and the stats are atomic.
     * Deadline/cancel propagate to every leaf; a degraded response
     * (some leaf abandoned mid-query) is never cached.
     * @return final merged results (served from cache when possible)
     */
    SearchResponse handle(uint32_t tid, const SearchRequest &req);

    /** Consistent-enough counter snapshot, safe mid-traffic. */
    Stats
    stats() const
    {
        Stats s;
        s.queries = queries_.load(std::memory_order_relaxed);
        s.cacheHits = cacheHits_.load(std::memory_order_relaxed);
        s.leafQueries = leafQueries_.load(std::memory_order_relaxed);
        return s;
    }

    /** The cache tier; callers must not race with handle(). */
    QueryCacheServer &cache() { return cache_; }

  private:
    std::vector<LeafServer *> leaves_;
    mutable std::mutex cacheMu_;
    QueryCacheServer cache_; ///< guarded by cacheMu_
    std::atomic<uint64_t> queries_{0};
    std::atomic<uint64_t> cacheHits_{0};
    std::atomic<uint64_t> leafQueries_{0};
};

/**
 * Multi-level serving tree (paper Figure 1): the root fans out to
 * intermediate parents, each responsible for a group of leaves and
 * performing its own score/merge step before the root's final merge.
 */
class MultiLevelTree
{
  public:
    /** Plain counter snapshot (the atomics live in the tree). */
    struct Stats
    {
        uint64_t queries = 0;
        uint64_t cacheHits = 0;
        uint64_t parentMerges = 0;
        uint64_t leafQueries = 0;
    };

    /**
     * @param leaves  non-owning, partitioned leaves
     * @param fanout  leaves per intermediate parent (>= 1)
     * @param cache_capacity front-end query cache entries (0 = none)
     */
    MultiLevelTree(std::vector<LeafServer *> leaves, uint32_t fanout,
                   size_t cache_capacity);

    /**
     * Handle one request through cache -> parents -> root merge.
     * Thread-safe under the same contract as ServingTree::handle;
     * degraded responses are never cached.
     */
    SearchResponse handle(uint32_t tid, const SearchRequest &req);

    /** Consistent-enough counter snapshot, safe mid-traffic. */
    Stats
    stats() const
    {
        Stats s;
        s.queries = queries_.load(std::memory_order_relaxed);
        s.cacheHits = cacheHits_.load(std::memory_order_relaxed);
        s.parentMerges = parentMerges_.load(std::memory_order_relaxed);
        s.leafQueries = leafQueries_.load(std::memory_order_relaxed);
        return s;
    }

    uint32_t numParents() const
    {
        return static_cast<uint32_t>(groups_.size());
    }

    /** The cache tier; callers must not race with handle(). */
    QueryCacheServer &cache() { return cache_; }

  private:
    std::vector<std::vector<LeafServer *>> groups_;
    mutable std::mutex cacheMu_;
    QueryCacheServer cache_; ///< guarded by cacheMu_
    std::atomic<uint64_t> queries_{0};
    std::atomic<uint64_t> cacheHits_{0};
    std::atomic<uint64_t> parentMerges_{0};
    std::atomic<uint64_t> leafQueries_{0};
};

} // namespace wsearch

#endif // WSEARCH_SEARCH_ROOT_HH
