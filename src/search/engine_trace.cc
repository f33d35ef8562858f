#include "search/engine_trace.hh"

#include <algorithm>

#include "search/touch.hh"

namespace wsearch {

/** Sink that appends touches to the active thread's queue. */
class EngineTraceSource::QueueSink : public TouchSink
{
  public:
    void
    touch(uint64_t addr, uint32_t bytes, AccessKind kind,
          bool is_write) override
    {
        queue_->push_back(PendingTouch{addr, bytes, kind, is_write});
    }

    void setQueue(std::deque<PendingTouch> *q) { queue_ = q; }

  private:
    std::deque<PendingTouch> *queue_ = nullptr;
};

EngineTraceSource::EngineTraceSource(const IndexShard &shard,
                                     const EngineTraceConfig &cfg)
    : shard_(shard), cfg_(cfg), cache_(cfg.queryCacheEntries)
{
    wsearch_assert(cfg.numThreads >= 1);
    sink_ = std::make_unique<QueueSink>();
    LeafServer::Config lc;
    lc.numThreads = cfg.numThreads;
    lc.codeBytes = cfg.code.footprintBytes;
    leaf_ = std::make_unique<LeafServer>(shard, lc, sink_.get());
    threads_.resize(cfg.numThreads);
    for (uint32_t t = 0; t < cfg.numThreads; ++t) {
        uint64_t sm = cfg.seed + t * 0x9177ull;
        const uint64_t tseed = splitmix64(sm);
        threads_[t].code = std::make_unique<CodeModel>(
            cfg.code, vaddr::kCodeBase, cfg.seed, tseed);
        threads_[t].queries =
            std::make_unique<QueryGenerator>(cfg.queries, tseed);
        threads_[t].rng = Rng(tseed ^ 0x9a9ull);
    }
}

EngineTraceSource::~EngineTraceSource() = default;

void
EngineTraceSource::reset()
{
    // Rebuild per-thread state and drop cache contents.
    cache_ = QueryCacheServer(cfg_.queryCacheEntries);
    queriesExecuted_ = 0;
    cacheAbsorbed_ = 0;
    rr_ = 0;
    for (uint32_t t = 0; t < cfg_.numThreads; ++t) {
        uint64_t sm = cfg_.seed + t * 0x9177ull;
        const uint64_t tseed = splitmix64(sm);
        threads_[t].code = std::make_unique<CodeModel>(
            cfg_.code, vaddr::kCodeBase, cfg_.seed, tseed);
        threads_[t].queries =
            std::make_unique<QueryGenerator>(cfg_.queries, tseed);
        threads_[t].pending.clear();
        threads_[t].chunkPos = 0;
        threads_[t].codeGap = 0;
        threads_[t].rng = Rng(tseed ^ 0x9a9ull);
    }
}

void
EngineTraceSource::refillThread(uint32_t tid)
{
    ThreadState &t = threads_[tid];
    while (t.pending.empty()) {
        const Query q = t.queries->next();
        // The cache-tier probe is real work: one hashed bucket read
        // per lookup, hit or miss. Emitting it also guarantees the
        // refill loop makes progress when traffic is so repetitive
        // that the cache absorbs everything (the pruned executor
        // yields few records per query, so saturation is reachable
        // within one trace).
        t.pending.push_back(
            PendingTouch{engine_vaddr::queryCacheAddr(q.id),
                         engine_vaddr::kQueryCacheBucketBytes,
                         AccessKind::Heap, false});
        if (cache_.lookup(q.id, nullptr)) {
            // Absorbed by the cache tier; the leaf never sees it.
            ++cacheAbsorbed_;
            continue;
        }
        sink_->setQueue(&t.pending);
        SearchRequest req;
        req.query = q;
        SearchResponse resp = leaf_->serve(tid, req);
        cache_.insert(q.id, std::move(resp.docs));
        ++queriesExecuted_;
    }
}

TraceRecord
EngineTraceSource::emitRecord(uint32_t tid)
{
    ThreadState &t = threads_[tid];
    const FetchedInstr fi = t.code->next();
    const BranchKind branch = fi.isBranch
        ? (fi.taken ? BranchKind::Taken : BranchKind::NotTaken)
        : BranchKind::NotBranch;
    const uint16_t id = static_cast<uint16_t>(tid);

    if (t.codeGap > 0) {
        --t.codeGap;
        return TraceRecord::make(fi.pc, id, 0, AccessKind::Heap,
                                 MemOp::None, branch);
    }
    if (t.pending.empty())
        refillThread(tid);
    PendingTouch &front = t.pending.front();
    const TraceRecord rec = TraceRecord::make(
        fi.pc, id, front.addr + t.chunkPos, front.kind,
        front.write ? MemOp::Store : MemOp::Load, branch);
    // Data records are emitted at this granularity within a touch
    // (one record per this many bytes).
    constexpr uint32_t kTouchGranularity = 16;
    t.chunkPos += kTouchGranularity;
    if (t.chunkPos >= front.bytes) {
        t.pending.pop_front();
        t.chunkPos = 0;
    }
    // Mean number of instruction-only records between data records
    // (search executes a few instructions per memory reference).
    constexpr double kCodeGapMean = 1.6;
    const uint64_t span = std::max<uint64_t>(
        1, static_cast<uint64_t>(2.0 * kCodeGapMean));
    t.codeGap = static_cast<uint32_t>(t.rng.nextRange(span + 1));
    return rec;
}

size_t
EngineTraceSource::fill(TraceRecord *buf, size_t max)
{
    for (size_t i = 0; i < max; ++i) {
        buf[i] = emitRecord(rr_);
        rr_ = rr_ + 1 == cfg_.numThreads ? 0 : rr_ + 1;
    }
    return max;
}

} // namespace wsearch
