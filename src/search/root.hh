/**
 * @file
 * Root aggregation for the serving tree (paper Figure 1): the root
 * merges the per-leaf top-k of a query's fan-out into the final
 * result page, tagged with how many shards answered. The fan-out
 * itself, with the query-cache tier in front of each leaf, is
 * ClusterServer (serve/cluster.hh).
 */

#ifndef WSEARCH_SEARCH_ROOT_HH
#define WSEARCH_SEARCH_ROOT_HH

#include <cstdint>
#include <vector>

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

} // namespace wsearch

#endif // WSEARCH_SEARCH_ROOT_HH
