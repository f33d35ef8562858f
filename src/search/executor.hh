/**
 * @file
 * Query execution over an index shard. Two engines behind one
 * SearchRequest/SearchResponse API:
 *
 *  - Pruned fast path (default): block postings walked through
 *    BlockPostingCursor. Conjunctive (AND) queries drive the rarest
 *    list and gallop the others with O(blocks) skip-table seeks, so
 *    blocks without candidates are never decoded. Disjunctive (OR)
 *    queries run document-at-a-time MaxScore: terms sorted by score
 *    upper bound, candidates generated only from the essential lists,
 *    and docs whose bound cannot beat the current top-k threshold are
 *    never (fully) scored.
 *
 *  - Sequential reference (ExecAlgo::kSequential): the exhaustive
 *    term-at-a-time / linear-merge engine, kept as the equivalence
 *    oracle and the "before" side of bench_leaf.
 *
 * Both return byte-identical top-k (score desc, doc id asc on ties):
 * every fully scored document accumulates its per-term contributions
 * in the same canonical order (terms sorted ascending by upper bound
 * for OR, by docFreq for AND) in double precision, and pruning
 * decisions carry a conservative epsilon so float rounding at the
 * final cast can never admit a pruned document.
 *
 * Every logical memory reference is reported to the TouchSink with
 * its segment-tagged canonical address: shard for decoded posting
 * regions (one touch per decoded block -- skipped blocks are never
 * touched), heap for lexicon/skip-metadata/doc-metadata/accumulators,
 * stack for frames. This is what makes the engine usable as a
 * production-like trace source, and why pruning visibly changes the
 * simulated memory behaviour, not just wall-clock.
 */

#ifndef WSEARCH_SEARCH_EXECUTOR_HH
#define WSEARCH_SEARCH_EXECUTOR_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "search/index.hh"
#include "search/query.hh"
#include "search/scorer.hh"
#include "search/topk.hh"
#include "search/touch.hh"
#include "serve/clock.hh"

namespace wsearch {

/** Executes queries on one shard for one logical thread. */
class QueryExecutor
{
  public:
    /**
     * @param tid   logical thread id (selects scratch/stack regions)
     * @param sink  touch receiver (never null; use NullTouchSink)
     * @param clock time source for mid-query deadline polls (null =
     *              real steady clock; tests inject a SimClock so
     *              deadline expiry is a function of virtual time)
     */
    QueryExecutor(const IndexShard &shard, uint32_t tid,
                  TouchSink *sink, const Clock *clock = nullptr);

    /**
     * Execute one request. All scratch (cursors, decode buffers,
     * accumulators, heaps) lives in a per-executor arena that is
     * reused across queries: steady-state execution performs no
     * per-query allocation. Honors req.deadlineNs / req.cancel by
     * abandoning mid-query (response.degraded).
     */
    SearchResponse execute(const SearchRequest &req);

    const ExecStats &lastStats() const { return lastStats_; }

    /** Peak per-query scratch bytes observed (for footprint stats). */
    uint64_t scratchHighWater() const { return scratchHighWater_; }

  private:
    /** Arena slot for one query term: cursor state + fallback
     *  buffers, all reused across queries. */
    struct TermCursorData
    {
        TermId term = 0;
        TermInfo info;
        double idf = 0.0;      ///< computed once per query term
        double maxScore = 0.0; ///< list-wide contribution upper bound
        PostingView view;
        BlockPostingCursor cursor;
        PostingCursor seq;     ///< sequential-reference cursor
        uint64_t consumed = 0; ///< seq-path bytes accounted so far
        uint64_t seqDecoded = 0; ///< seq-path postings accounted
        uint32_t blocksDecoded = 0; ///< this query (for skip stats)
        /** Decode-on-demand fallback (ProceduralIndex): generated
         *  bytes + skip table in executor-owned scratch. */
        std::vector<uint8_t> ownedBytes;
        std::vector<SkipEntry> ownedSkips;
    };

    void loadTerm(TermId term, TermCursorData &out);
    double scoreCandidate(DocId doc, uint32_t tf, double idf);
    bool shouldStop(const SearchRequest &policy);

    /** Deadline time source (injected clock or the steady clock). */
    uint64_t
    timeNowNs() const
    {
        return clock_ ? clock_->now() : nowNs();
    }

    /** Drain cursor instrumentation (decoded block -> shard touch,
     *  skip scan -> heap touch) after any cursor operation. */
    void drainCursor(TermCursorData &t);

    void executeConjunctive(const Query &q,
                            const SearchRequest &policy, TopK &topk);
    void executeDisjunctive(const Query &q,
                            const SearchRequest &policy, TopK &topk);
    void executeConjunctiveSeq(const Query &q,
                               const SearchRequest &policy,
                               TopK &topk);
    void executeDisjunctiveSeq(const Query &q,
                               const SearchRequest &policy,
                               TopK &topk);

    /** Shard touch helper: one touch per decoded posting region. */
    void
    touchShard(const TermCursorData &t, uint64_t byte_pos,
               uint32_t bytes)
    {
        sink_->touch(engine_vaddr::shardAddr(t.info.shardOffset +
                                             byte_pos),
                     bytes, AccessKind::Shard, false);
    }

    const IndexShard &shard_;
    Bm25Scorer scorer_;
    /** The shard's length-norm table, or null: see scoreCandidate. */
    const double *norms_;
    uint32_t tid_;
    TouchSink *sink_;
    const Clock *clock_;
    ExecStats lastStats_;
    uint64_t scratchHighWater_ = 0;
    bool degraded_ = false; ///< deadline/cancel hit mid-query
    uint64_t checkTick_ = 0; ///< paces deadline/cancel polls

    // ----- per-executor arena, reused across queries -----
    std::vector<TermCursorData> terms_; ///< cursor slots
    std::vector<uint32_t> order_;       ///< canonical term order
    std::vector<double> suffixUb_;      ///< MaxScore suffix bounds
    TopK topk_{0};
    std::unordered_map<DocId, double> accum_; ///< sequential OR
    std::vector<std::pair<DocId, double>> drain_; ///< sorted drain
};

} // namespace wsearch

#endif // WSEARCH_SEARCH_EXECUTOR_HH
