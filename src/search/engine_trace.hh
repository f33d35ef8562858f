/**
 * @file
 * Engine-backed trace source: runs the instrumented leaf server on a
 * cache-filtered query stream and converts its memory touches into
 * TraceRecords, interleaving a synthetic instruction stream (the code
 * model) between data references. This is the repository's stand-in
 * for the paper's Pin traces of production servers: the data
 * references come from *real* query execution over the shard, and
 * only the instruction addresses are synthesized.
 */

#ifndef WSEARCH_SEARCH_ENGINE_TRACE_HH
#define WSEARCH_SEARCH_ENGINE_TRACE_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "search/cache_server.hh"
#include "search/leaf.hh"
#include "search/query.hh"
#include "trace/code_model.hh"
#include "trace/record.hh"

namespace wsearch {

/** Configuration of the bridge. */
struct EngineTraceConfig
{
    uint32_t numThreads = 4;
    /** Entries in the fronting query-result cache (absorbs popular
     *  queries before they reach the leaf). 0 disables the tier. */
    size_t queryCacheEntries = 1 << 16;
    CodeModelConfig code; ///< leaf binary model
    QueryGenerator::Config queries;
    uint64_t seed = 0x7ea5eull;
};

/** TraceSource backed by live instrumented query execution. */
class EngineTraceSource : public TraceSource
{
  public:
    /**
     * @param shard shared index shard; the leaf is created internally
     *        with cfg.numThreads executor threads
     */
    EngineTraceSource(const IndexShard &shard,
                      const EngineTraceConfig &cfg);
    ~EngineTraceSource() override;

    size_t fill(TraceRecord *buf, size_t max) override;
    void reset() override;

    uint64_t queriesExecuted() const { return queriesExecuted_; }
    uint64_t cacheAbsorbed() const { return cacheAbsorbed_; }
    LeafServer &leaf() { return *leaf_; }

    /** Codec of the traced shard, so memsim studies can label the
     *  shard access stream with the posting layout that produced it
     *  (varint vs packed MPKI comparisons). */
    PostingCodec shardCodec() const { return shard_.codec(); }

  private:
    struct PendingTouch
    {
        uint64_t addr;
        uint32_t bytes;
        AccessKind kind;
        bool write;
    };

    class QueueSink;

    struct ThreadState
    {
        std::unique_ptr<CodeModel> code;
        std::unique_ptr<QueryGenerator> queries;
        std::deque<PendingTouch> pending;
        uint64_t chunkPos = 0; ///< progress within pending.front()
        uint32_t codeGap = 0;
        Rng rng{0};
    };

    void refillThread(uint32_t tid);
    TraceRecord emitRecord(uint32_t tid);

    const IndexShard &shard_;
    EngineTraceConfig cfg_;
    std::unique_ptr<QueueSink> sink_;
    std::unique_ptr<LeafServer> leaf_;
    QueryCacheServer cache_;
    std::vector<ThreadState> threads_;
    uint32_t rr_ = 0;
    uint64_t queriesExecuted_ = 0;
    uint64_t cacheAbsorbed_ = 0;
};

} // namespace wsearch

#endif // WSEARCH_SEARCH_ENGINE_TRACE_HH
