/**
 * @file
 * Shared, chunked in-memory trace buffer. A BufferedTrace is
 * decoded/generated ONCE from any TraceSource and then replayed any
 * number of times -- concurrently from many threads -- without
 * regeneration cost, locks, or per-record virtual calls: consumers
 * walk contiguous TraceRecord spans chunk by chunk.
 *
 * Generation publishes the buffer chunk by chunk, and a published
 * chunk never changes again. A reader that reaches a chunk not yet
 * published waits for it (one acquire load per chunk otherwise), so
 * replays can run behind generation instead of after it. A buffer
 * from materialize() is fully published.
 *
 * This is what makes the parallel sweep engine (memsim/sweep.hh)
 * cheap: a sweep of N hierarchy configurations pays for trace
 * generation once instead of N times, and every worker replays the
 * same bit-identical record sequence.
 *
 * Memory cost is sizeof(TraceRecord) (16 bytes) per record, held in
 * chunks whose storage is allocated as generation reaches them, each
 * from its own anonymous mapping (chunks smaller than a page share
 * one), so where a chunk lives never depends on malloc's thresholds or
 * arenas. A buffer built for a known number of readers (see Reader)
 * recycles each chunk's storage once all of them have passed it: the
 * storage becomes the generator's next chunk, and the buffer holds
 * only what lies between its slowest reader and generation. Once all
 * of those readers exist, generation stays at most kMaxLead chunks
 * ahead of the slowest, so the buffer holds about kMaxLead chunks
 * however much faster generation runs. Chunk granularity is tunable
 * so tests can exercise chunk boundaries and replay loops stay
 * cache-friendly.
 */

#ifndef WSEARCH_TRACE_BUFFERED_TRACE_HH
#define WSEARCH_TRACE_BUFFERED_TRACE_HH

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "trace/record.hh"
#include "util/logging.hh"

namespace wsearch {

/**
 * Chunked record buffer, filled once by one producer and safe for
 * concurrent replay while it fills.
 */
class BufferedTrace
{
  public:
    /** Default records per chunk (64K records = 1 MiB per chunk). */
    static constexpr size_t kDefaultChunkRecords = 1u << 16;

    /**
     * Most chunks generation runs ahead of the slowest reader: on a
     * buffer whose readers all exist, chunk c is generated only after
     * each of them has released chunk c - kMaxLead.
     */
    static constexpr size_t kMaxLead = 4;

    /** A contiguous view into one chunk. */
    struct Span
    {
        const TraceRecord *data = nullptr;
        size_t count = 0;
    };

    /**
     * An empty buffer for up to @p records records, in chunks of
     * @p chunk_records (exposed for boundary tests); generate() fills
     * it. With @p readers > 0 it serves exactly that many Readers and
     * recycles each chunk once all of them have released it; with 0
     * it keeps every chunk for its whole life, and any number of
     * Readers may walk it.
     */
    explicit BufferedTrace(uint64_t records,
                           size_t chunk_records = kDefaultChunkRecords,
                           uint32_t readers = 0);
    ~BufferedTrace();

    BufferedTrace(const BufferedTrace &) = delete;
    BufferedTrace &operator=(const BufferedTrace &) = delete;

    /**
     * Pull the buffer's records out of @p src, publishing each chunk
     * as it fills. Stops early if the source is exhausted. Call once,
     * from one thread; readers may replay meanwhile. On a buffer
     * built for k readers, once all k Readers have been constructed,
     * waits before chunk c until each has released chunk
     * c - kMaxLead; until then it never waits, so a reader that only
     * starts after generation (on the same thread, say) cannot
     * deadlock it. A chunk with no recycled storage to take gets a
     * new mapping.
     */
    void generate(TraceSource &src);

    /**
     * Pull up to @p records records out of @p src into a new, fully
     * published buffer that keeps every chunk (see the constructor
     * and generate()).
     */
    static std::shared_ptr<const BufferedTrace>
    materialize(TraceSource &src, uint64_t records,
                size_t chunk_records = kDefaultChunkRecords);

    /** Total records stored; waits for generation to end. */
    uint64_t size() const { return published(kEnded); }

    /** Chunks stored; waits for generation to end. */
    size_t
    numChunks() const
    {
        return static_cast<size_t>(
            (size() + chunkRecords_ - 1) / chunkRecords_);
    }

    size_t chunkRecords() const { return chunkRecords_; }

    /**
     * Chunk storage mapped so far, in chunks: the most chunks the
     * buffer has held at once (rounded up to a page for chunks
     * smaller than one). A chunk is mapped only when no recycled
     * storage is free.
     */
    size_t mappedChunks() const { return mappedChunks_; }

    /** The @p i-th chunk as a contiguous span; waits for it. */
    Span
    chunk(size_t i) const
    {
        return spanAt(static_cast<uint64_t>(i) * chunkRecords_,
                      chunkRecords_);
    }

    /**
     * Longest contiguous span starting at absolute record @p begin,
     * clipped to both @p max_len and the containing chunk's edge.
     * Waits until that chunk is published; returns an empty span when
     * @p begin >= size() or @p max_len == 0. Reading a chunk every
     * registered reader has released panics.
     */
    Span
    spanAt(uint64_t begin, uint64_t max_len) const
    {
        if (max_len == 0)
            return {};
        const uint64_t end = published(begin);
        if (begin >= end)
            return {};
        const size_t ci = static_cast<size_t>(begin / chunkRecords_);
        const uint64_t first = static_cast<uint64_t>(ci) * chunkRecords_;
        const uint64_t in_chunk =
            std::min<uint64_t>(first + chunkRecords_, end) - begin;
        const Slot &s = slots_[ci];
        wsearch_assert(readers_ == 0 ||
                       s.holders.load(std::memory_order_relaxed) > 0);
        return {s.data + (begin - first),
                static_cast<size_t>(std::min(in_chunk, max_len))};
    }

    /** Record @p i (bounds-unchecked; tests only); waits for it. */
    const TraceRecord &at(uint64_t i) const { return *spanAt(i, 1).data; }

    /**
     * One forward walk over the buffer. On a buffer built for k
     * readers, each of the k walks that consume it is a Reader, and
     * a Reader releases every chunk it has moved past: a chunk's
     * storage is recycled once all k have released it, published or
     * not (a chunk every reader skipped is recycled as soon as it is
     * published). A Reader that ends early releases the rest when it
     * finishes or is destroyed. On a buffer built for 0 readers a
     * Reader releases nothing.
     */
    class Reader
    {
      public:
        explicit Reader(const BufferedTrace &trace) : trace_(trace)
        {
            trace_.started_.fetch_add(1, std::memory_order_release);
        }
        ~Reader() { finish(); }

        Reader(const Reader &) = delete;
        Reader &operator=(const Reader &) = delete;

        /**
         * Release every chunk that ends at or before record @p pos.
         * A Reader only moves forward: reading before @p pos later
         * panics.
         */
        void passTo(uint64_t pos);

        /** passTo(@p begin), then the buffer's spanAt(). */
        Span
        spanAt(uint64_t begin, uint64_t max_len)
        {
            passTo(begin);
            return trace_.spanAt(begin, max_len);
        }

        /** Release every chunk not yet released: the walk is over. */
        void finish() { passTo(~uint64_t(0)); }

      private:
        const BufferedTrace &trace_;
        size_t passed_ = 0; ///< chunks [0, passed_) released
    };

    /**
     * TraceSource adapter replaying the buffer once (reset() rewinds).
     * Holds a shared_ptr so the buffer outlives any live cursor. It
     * is not one of the buffer's Readers and releases nothing.
     */
    class Cursor : public TraceSource
    {
      public:
        explicit Cursor(std::shared_ptr<const BufferedTrace> trace)
            : trace_(std::move(trace))
        {
        }

        size_t fill(TraceRecord *buf, size_t max) override;
        void reset() override { pos_ = 0; }

      private:
        std::shared_ptr<const BufferedTrace> trace_;
        uint64_t pos_ = 0;
    };

  private:
    /** Flag of published_: generation has ended. */
    static constexpr uint64_t kEnded = uint64_t(1) << 63;

    /** One chunk: its storage and who still holds it. */
    struct Slot
    {
        /** Set by the generator before the chunk is published. */
        TraceRecord *data = nullptr;
        /**
         * Registered readers yet to release the chunk, plus one for
         * the generator until it has published the chunk; whoever
         * takes it to 0 recycles the storage. Unused with 0 readers.
         */
        mutable std::atomic<uint32_t> holders{0};
        /** The storage is back in pool_; guarded by poolMutex_. */
        mutable bool recycled = false;
    };

    /** One anonymous mapping of chunk storage. */
    struct Mapping
    {
        void *base;
        size_t bytes;
    };

    /**
     * Wait until record @p i is published or generation has ended.
     * @return the records published by then (all of them once ended).
     */
    uint64_t
    published(uint64_t i) const
    {
        const uint64_t p = published_.load(std::memory_order_acquire);
        if (p > i || (p & kEnded))
            return p & ~kEnded;
        return awaitPublished(i);
    }
    uint64_t awaitPublished(uint64_t i) const;

    /** Wait, if the lead is capped yet, to generate chunk @p c. */
    void awaitLead(size_t c) const;
    /** Storage for the next chunk: recycled, else newly mapped. */
    TraceRecord *takeStorage();
    /** Drop one hold on chunk @p c, recycling it at the last. */
    void release(size_t c) const;

    uint64_t capacity_;
    size_t chunkRecords_;
    uint32_t readers_;
    /** Sized up front; a slot's storage comes when generation reaches it. */
    std::vector<Slot> slots_;
    /** Records published (whole chunks, in order), plus kEnded. */
    std::atomic<uint64_t> published_{0};
    /** Readers constructed so far. */
    mutable std::atomic<uint32_t> started_{0};

    /** Generator only (and the destructor). */
    std::vector<Mapping> mappings_;
    size_t mappedChunks_ = 0;
    /** Recycled chunk storage, taken last in, first out. */
    mutable std::mutex poolMutex_;
    mutable std::vector<TraceRecord *> pool_;
    /** Signalled when a chunk is recycled; the generator waits on it. */
    mutable std::condition_variable recycledCv_;
};

} // namespace wsearch

#endif // WSEARCH_TRACE_BUFFERED_TRACE_HH
