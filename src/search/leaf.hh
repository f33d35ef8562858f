/**
 * @file
 * Leaf server: owns one index shard and a per-thread executor pool,
 * answers queries with BM25 top-k, and accounts its memory footprint
 * by segment (paper Figure 4's code/stack/heap breakdown).
 *
 * Two modes behind the same serve() contract:
 *
 *  - frozen: one immutable IndexShard, one QueryExecutor per thread
 *    (the original PR 3 layout);
 *  - live: a refcounted IndexSnapshot (see search/live/) served
 *    through per-thread SnapshotSearchers. serve() captures the
 *    current snapshot pointer once, so an in-flight query finishes on
 *    the version it started with while adoptSnapshot() swaps the
 *    pointer underneath -- the atomic-rollout primitive. Adoption
 *    validates the snapshot checksum and rejects version regressions,
 *    which is what makes a corrupted/torn handoff survivable.
 */

#ifndef WSEARCH_SEARCH_LEAF_HH
#define WSEARCH_SEARCH_LEAF_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "search/executor.hh"
#include "search/index.hh"
#include "search/touch.hh"

namespace wsearch {

class IndexSnapshot;
class SnapshotSearcher;

/** Allocated-bytes breakdown (paper Figure 4). */
struct FootprintStats
{
    uint64_t codeBytes = 0;
    uint64_t stackBytes = 0;
    uint64_t heapSharedBytes = 0;    ///< metadata, lexicon, caches
    uint64_t heapPerThreadBytes = 0; ///< arenas, buffers

    uint64_t
    heapBytes() const
    {
        return heapSharedBytes + heapPerThreadBytes;
    }
};

/** One leaf of the serving tree. */
class LeafServer
{
  public:
    struct Config
    {
        uint32_t numThreads = 1;
        /** Nominal per-thread buffers (network, decompression, ...);
         *  part of the Figure 4 heap accounting. */
        uint64_t perThreadBufferBytes = 24ull << 20;
        uint64_t codeBytes = 4ull << 20;
        /**
         * Doc ids returned are local * docIdStride + docIdOffset so
         * multiple leaves can serve disjoint partitions of a global
         * document space.
         */
        uint32_t docIdStride = 1;
        uint32_t docIdOffset = 0;
        /** Time source for mid-query deadline polls (null = steady
         *  clock; tests inject a SimClock). */
        const Clock *clock = nullptr;
    };

    /**
     * Frozen-shard leaf.
     * @param sink touch receiver shared by all threads (may be null
     *             for untraced runs)
     */
    LeafServer(const IndexShard &shard, const Config &cfg,
               TouchSink *sink = nullptr);

    /**
     * Live leaf serving @p snapshot (never null; LiveIndex::snapshot()
     * provides an empty version-0 view). Live leaves hold global doc
     * ids already, so cfg.docIdStride/Offset must be identity.
     */
    LeafServer(std::shared_ptr<const IndexSnapshot> snapshot,
               const Config &cfg, TouchSink *sink = nullptr);

    ~LeafServer();

    /**
     * Serve a request on logical thread @p tid; best-first results
     * with doc ids mapped to the global document space. Thread-safe
     * for concurrent calls with distinct tids (each tid owns its
     * executor; shards/snapshots are immutable), which is what the
     * serve runtime's worker pool relies on. Deadline/cancel in the
     * request are honored mid-query (response.degraded). Live leaves
     * stamp response.indexVersion with the snapshot version served.
     */
    SearchResponse serve(uint32_t tid, const SearchRequest &req);

    /**
     * Atomically switch to @p snap (live leaves only). Rejected --
     * returning false, current snapshot untouched -- when @p snap is
     * null, fails checksum validation (torn handoff), or would move
     * the version backwards. In-flight queries keep the pointer they
     * captured and finish on their version.
     */
    bool adoptSnapshot(std::shared_ptr<const IndexSnapshot> snap);

    bool live() const { return shard_ == nullptr; }

    /** Version currently being served (0 for frozen leaves). */
    uint64_t currentVersion() const;

    /** Current snapshot (live leaves; null for frozen). */
    std::shared_ptr<const IndexSnapshot> snapshot() const;

    uint64_t
    snapshotsAdopted() const
    {
        return snapshotsAdopted_.load(std::memory_order_relaxed);
    }
    uint64_t
    handoffsRejected() const
    {
        return handoffsRejected_.load(std::memory_order_relaxed);
    }

    /** Figure 4 accounting. */
    FootprintStats footprint() const;

    /** The frozen shard (frozen leaves only). */
    const IndexShard &
    shard() const
    {
        wsearch_assert(shard_ != nullptr);
        return *shard_;
    }

    /**
     * Posting codec this leaf serves: the frozen shard's codec, or
     * for live leaves the codec of the current snapshot's segments
     * (kVarint when the snapshot is empty).
     */
    PostingCodec shardCodec() const;

    uint64_t queriesServed() const { return queriesServed_.load(); }

    const ExecStats &lastStats(uint32_t tid) const;

  private:
    const IndexShard *shard_; ///< null in live mode
    Config cfg_;
    NullTouchSink nullSink_;
    std::vector<std::unique_ptr<QueryExecutor>> executors_;

    // Live mode.
    mutable std::mutex snapMu_; ///< guards the snapshot_ pointer swap
    std::shared_ptr<const IndexSnapshot> snapshot_;
    std::vector<std::unique_ptr<SnapshotSearcher>> searchers_;
    std::atomic<uint64_t> snapshotsAdopted_{0};
    std::atomic<uint64_t> handoffsRejected_{0};

    std::atomic<uint64_t> queriesServed_{0};
};

} // namespace wsearch

#endif // WSEARCH_SEARCH_LEAF_HH
