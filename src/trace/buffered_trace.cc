#include "trace/buffered_trace.hh"

#include <algorithm>

namespace wsearch {

BufferedTrace::BufferedTrace(uint64_t records, size_t chunk_records)
    : capacity_(records), chunkRecords_(chunk_records ? chunk_records : 1),
      chunks_(static_cast<size_t>((records + chunkRecords_ - 1) /
                                  chunkRecords_))
{
    // Storage comes from the constructing thread, whichever thread
    // generates: malloc's per-thread arenas would otherwise keep a
    // pool thread's freed buffer mapped while the next one grows.
    uint64_t left = records;
    for (std::vector<TraceRecord> &c : chunks_) {
        const size_t n = static_cast<size_t>(
            std::min<uint64_t>(chunkRecords_, left));
        c.reserve(n);
        left -= n;
    }
}

void
BufferedTrace::generate(TraceSource &src)
{
    uint64_t done = 0;
    for (std::vector<TraceRecord> &c : chunks_) {
        const size_t want = static_cast<size_t>(
            std::min<uint64_t>(chunkRecords_, capacity_ - done));
        c.resize(want);
        size_t filled = 0;
        while (filled < want) {
            const size_t got =
                src.fill(c.data() + filled, want - filled);
            if (got == 0)
                break;
            filled += got;
        }
        c.resize(filled);
        done += filled;
        if (filled < want)
            break; // source exhausted
        published_.store(done, std::memory_order_release);
        published_.notify_all();
    }
    published_.store(done | kEnded, std::memory_order_release);
    published_.notify_all();
}

uint64_t
BufferedTrace::awaitPublished(uint64_t i) const
{
    uint64_t p = published_.load(std::memory_order_acquire);
    while (p <= i && !(p & kEnded)) {
        published_.wait(p, std::memory_order_acquire);
        p = published_.load(std::memory_order_acquire);
    }
    return p & ~kEnded;
}

std::shared_ptr<const BufferedTrace>
BufferedTrace::materialize(TraceSource &src, uint64_t records,
                           size_t chunk_records)
{
    auto trace = std::make_shared<BufferedTrace>(records, chunk_records);
    trace->generate(src);
    return trace;
}

size_t
BufferedTrace::Cursor::fill(TraceRecord *buf, size_t max)
{
    size_t n = 0;
    while (n < max) {
        const BufferedTrace::Span s =
            trace_->spanAt(pos_, max - n);
        if (s.count == 0)
            break;
        std::copy(s.data, s.data + s.count, buf + n);
        n += s.count;
        pos_ += s.count;
    }
    return n;
}

} // namespace wsearch
