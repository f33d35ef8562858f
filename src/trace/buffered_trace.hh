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
 * Memory cost is sizeof(TraceRecord) (32 bytes) per record; chunk
 * granularity is tunable so tests can exercise chunk boundaries and
 * replay loops stay cache-friendly.
 */

#ifndef WSEARCH_TRACE_BUFFERED_TRACE_HH
#define WSEARCH_TRACE_BUFFERED_TRACE_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "trace/record.hh"

namespace wsearch {

/**
 * Chunked record buffer, filled once by one producer and safe for
 * concurrent replay while it fills.
 */
class BufferedTrace
{
  public:
    /** Default records per chunk (64K records = 2 MiB per chunk). */
    static constexpr size_t kDefaultChunkRecords = 1u << 16;

    /** A contiguous view into one chunk. */
    struct Span
    {
        const TraceRecord *data = nullptr;
        size_t count = 0;
    };

    /**
     * An empty buffer for up to @p records records, in chunks of
     * @p chunk_records (exposed for boundary tests); generate() fills
     * it.
     */
    explicit BufferedTrace(uint64_t records,
                           size_t chunk_records = kDefaultChunkRecords);

    /**
     * Pull the buffer's records out of @p src, publishing each chunk
     * as it fills. Stops early if the source is exhausted. Call once,
     * from one thread; readers may replay meanwhile. Never waits.
     */
    void generate(TraceSource &src);

    /**
     * Pull up to @p records records out of @p src into a new, fully
     * published buffer (see the constructor and generate()).
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

    /** The @p i-th chunk as a contiguous span; waits for it. */
    Span
    chunk(size_t i) const
    {
        published(i * chunkRecords_);
        return {chunks_[i].data(), chunks_[i].size()};
    }

    /**
     * Longest contiguous span starting at absolute record @p begin,
     * clipped to both @p max_len and the containing chunk's edge.
     * Waits until that chunk is published; returns an empty span when
     * @p begin >= size().
     */
    Span
    spanAt(uint64_t begin, uint64_t max_len) const
    {
        if (max_len == 0 || begin >= published(begin))
            return {};
        const size_t ci = static_cast<size_t>(begin / chunkRecords_);
        const size_t off = static_cast<size_t>(begin % chunkRecords_);
        const std::vector<TraceRecord> &c = chunks_[ci];
        const uint64_t in_chunk = c.size() - off;
        const size_t n = static_cast<size_t>(
            in_chunk < max_len ? in_chunk : max_len);
        return {c.data() + off, n};
    }

    /** Record @p i (bounds-unchecked; tests only); waits for it. */
    const TraceRecord &
    at(uint64_t i) const
    {
        published(i);
        return chunks_[static_cast<size_t>(i / chunkRecords_)]
                      [static_cast<size_t>(i % chunkRecords_)];
    }

    /**
     * TraceSource adapter replaying the buffer once (reset() rewinds).
     * Holds a shared_ptr so the buffer outlives any live cursor.
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

    uint64_t capacity_;
    size_t chunkRecords_;
    /** Sized up front, so publishing never moves a chunk. */
    std::vector<std::vector<TraceRecord>> chunks_;
    /** Records published (whole chunks, in order), plus kEnded. */
    std::atomic<uint64_t> published_{0};
};

} // namespace wsearch

#endif // WSEARCH_TRACE_BUFFERED_TRACE_HH
