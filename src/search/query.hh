/**
 * @file
 * Queries, the unified SearchRequest/SearchResponse pair every serving
 * layer speaks (leaf, tree, worker pool, cluster), and the query
 * generator. Query popularity is Zipf: a small number of distinct
 * queries dominate traffic, which is exactly what the intermediate
 * cache servers absorb (paper Figure 1) -- the leaf then sees the
 * cache-missed tail with far less repetition.
 */

#ifndef WSEARCH_SEARCH_QUERY_HH
#define WSEARCH_SEARCH_QUERY_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "search/types.hh"
#include "util/rng.hh"
#include "util/zipf.hh"

namespace wsearch {

/** A parsed query. */
struct Query
{
    uint64_t id = 0;              ///< canonical query identity
    std::vector<TermId> terms;    ///< 1..5 terms
    bool conjunctive = true;      ///< AND (intersection) vs OR
    uint32_t topK = 10;
};

/** Leaf execution algorithm hint carried by a SearchRequest. */
enum class ExecAlgo : uint8_t
{
    kAuto,       ///< query.conjunctive decides; pruned fast path
    kAnd,        ///< force conjunctive: skip-driven galloping AND
    kOr,         ///< force disjunctive: MaxScore-pruned OR
    kSequential, ///< exhaustive reference executor (no skips/pruning)
};

/** Per-query execution statistics. */
struct ExecStats
{
    uint64_t postingsDecoded = 0;
    uint64_t candidatesScored = 0;
    uint64_t shardBytesRead = 0;
    uint64_t blocksDecoded = 0;     ///< posting blocks bulk-decoded
    uint64_t blocksSkipped = 0;     ///< blocks skipped over via seeks
    uint64_t skipEntriesScanned = 0; ///< block-metadata reads
    /** Of blocksDecoded, how many came through the bit-packed codec
     *  (SIMD bulk unpack). Splitting the counter lets memsim traces
     *  attribute shard-MPKI shifts to the layout change. */
    uint64_t packedBlocksDecoded = 0;

    void
    merge(const ExecStats &o)
    {
        postingsDecoded += o.postingsDecoded;
        candidatesScored += o.candidatesScored;
        shardBytesRead += o.shardBytesRead;
        blocksDecoded += o.blocksDecoded;
        blocksSkipped += o.blocksSkipped;
        skipEntriesScanned += o.skipEntriesScanned;
        packedBlocksDecoded += o.packedBlocksDecoded;
    }

    bool operator==(const ExecStats &) const = default;
};

/**
 * One search call: the query plus its serving policy. Deadline and
 * cancellation used to thread through ad-hoc parameters and shared
 * flags per layer; every submit/serve/handle path now takes this pair.
 */
struct SearchRequest
{
    Query query;
    /**
     * Absolute steady-clock deadline (ns since the nowNs() epoch;
     * 0 = none). Layers drop work whose deadline already passed, and
     * the executor abandons mid-query once it notices expiry,
     * returning whatever it has (degraded).
     */
    uint64_t deadlineNs = 0;
    /** Optional cooperative cancel flag (e.g. a hedge twin won). */
    std::shared_ptr<std::atomic<bool>> cancel;
    ExecAlgo algo = ExecAlgo::kAuto;
};

/** Outcome of one search call. */
struct SearchResponse
{
    std::vector<ScoredDoc> docs; ///< best-first top-k
    ExecStats stats;
    /** False when the request was dropped before executing (shed,
     *  expired in queue, cancelled); docs is then empty. */
    bool ok = true;
    /** True when execution stopped early (deadline/cancel observed
     *  mid-query) or coverage was partial; docs is still valid and
     *  correctly ordered over what was evaluated. */
    bool degraded = false;
    /** Version of the IndexSnapshot this response was computed
     *  against (live leaves only; 0 = frozen shard). */
    uint64_t indexVersion = 0;
};

/** Zipf-popularity query stream. */
class QueryGenerator
{
  public:
    struct Config
    {
        uint64_t distinctQueries = 1u << 22;
        double popularityTheta = 0.9; ///< repeat skew of query traffic
        uint32_t vocabSize = 1u << 20;
        double termTheta = 0.95;      ///< skew of term choice
        double maxTerms = 5;
        double conjunctiveFrac = 0.7;
        uint64_t seed = 0x9ee4ull;
    };

    explicit QueryGenerator(const Config &cfg, uint64_t salt = 0)
        : cfg_(cfg), rng_(cfg.seed ^ salt),
          popularity_(cfg.distinctQueries, cfg.popularityTheta),
          term_(cfg.vocabSize, cfg.termTheta)
    {
    }

    /** Generate the next query from the traffic distribution. */
    Query
    next()
    {
        const uint64_t qid = popularity_.sample(rng_);
        return materialize(qid);
    }

    /**
     * The content of query @p qid (deterministic: the same query id
     * always has the same terms, so result caches work).
     */
    Query
    materialize(uint64_t qid)
    {
        Query q;
        q.id = qid;
        uint64_t sm = cfg_.seed ^ (qid * 0x2545f4914f6cdd1dull);
        Rng qrng(splitmix64(sm));
        const uint32_t nterms = 1 + static_cast<uint32_t>(
            qrng.nextRange(static_cast<uint64_t>(cfg_.maxTerms)));
        q.terms.reserve(nterms);
        for (uint32_t i = 0; i < nterms; ++i)
            q.terms.push_back(
                static_cast<TermId>(term_.sample(qrng)));
        q.conjunctive = qrng.nextBool(cfg_.conjunctiveFrac);
        return q;
    }

    const Config &config() const { return cfg_; }

  private:
    Config cfg_;
    Rng rng_;
    ZipfSampler popularity_;
    ZipfSampler term_;
};

} // namespace wsearch

#endif // WSEARCH_SEARCH_QUERY_HH
