#include "trace/buffered_trace.hh"

#include <sys/mman.h>
#include <unistd.h>

namespace wsearch {

BufferedTrace::BufferedTrace(uint64_t records, size_t chunk_records,
                             uint32_t readers)
    : capacity_(records), chunkRecords_(chunk_records ? chunk_records : 1),
      readers_(readers),
      slots_(static_cast<size_t>((records + chunkRecords_ - 1) /
                                 chunkRecords_))
{
    if (readers_ > 0) {
        for (Slot &s : slots_)
            s.holders.store(readers_ + 1, std::memory_order_relaxed);
    }
}

BufferedTrace::~BufferedTrace()
{
    for (const Mapping &m : mappings_)
        ::munmap(m.base, m.bytes);
}

TraceRecord *
BufferedTrace::takeStorage()
{
    {
        std::lock_guard<std::mutex> lock(poolMutex_);
        if (!pool_.empty()) {
            TraceRecord *p = pool_.back();
            pool_.pop_back();
            return p;
        }
    }
    // One anonymous mapping per chunk, or per page of chunks smaller
    // than a page: the kernel hands it out and takes it back whole,
    // whatever the thread and whatever malloc freed before. The
    // generator is about to write all of it, so it is populated at
    // once rather than a page fault at a time.
    static const size_t page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
    const size_t chunk_bytes = chunkRecords_ * sizeof(TraceRecord);
    const size_t per_map = std::max<size_t>(1, page / chunk_bytes);
    const size_t bytes = (per_map * chunk_bytes + page - 1) / page * page;
    void *base = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1, 0);
    wsearch_assert(base != MAP_FAILED);
    mappings_.push_back({base, bytes});
    mappedChunks_ += per_map;
    TraceRecord *first = static_cast<TraceRecord *>(base);
    if (per_map > 1) {
        std::lock_guard<std::mutex> lock(poolMutex_);
        for (size_t k = per_map - 1; k > 0; --k)
            pool_.push_back(first + k * chunkRecords_);
    }
    return first;
}

void
BufferedTrace::release(size_t c) const
{
    const Slot &s = slots_[c];
    const uint32_t before =
        s.holders.fetch_sub(1, std::memory_order_acq_rel);
    wsearch_assert(before > 0); // more releases than holders
    if (before > 1 || !s.data)
        return;
    {
        std::lock_guard<std::mutex> lock(poolMutex_);
        pool_.push_back(s.data);
        s.recycled = true;
    }
    recycledCv_.notify_one();
}

void
BufferedTrace::awaitLead(size_t c) const
{
    // Only a reader that exists can release anything, and one that
    // exists makes progress: it waits for nothing but published
    // chunks, and every chunk before c is published.
    if (readers_ == 0 || c < kMaxLead ||
        started_.load(std::memory_order_acquire) < readers_)
        return;
    std::unique_lock<std::mutex> lock(poolMutex_);
    recycledCv_.wait(lock, [&] { return slots_[c - kMaxLead].recycled; });
}

void
BufferedTrace::generate(TraceSource &src)
{
    uint64_t done = 0;
    size_t c = 0;
    for (; c < slots_.size(); ++c) {
        const size_t want = static_cast<size_t>(
            std::min<uint64_t>(chunkRecords_, capacity_ - done));
        awaitLead(c);
        TraceRecord *data = takeStorage();
        slots_[c].data = data;
        size_t filled = 0;
        while (filled < want) {
            const size_t got = src.fill(data + filled, want - filled);
            if (got == 0)
                break;
            filled += got;
        }
        done += filled;
        if (filled < want)
            break; // source exhausted
        published_.store(done, std::memory_order_release);
        published_.notify_all();
        if (readers_ > 0)
            release(c);
    }
    published_.store(done | kEnded, std::memory_order_release);
    published_.notify_all();
    // The generator's hold on the last, partial chunk and on every
    // chunk the source never reached.
    if (readers_ > 0) {
        for (; c < slots_.size(); ++c)
            release(c);
    }
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

void
BufferedTrace::Reader::passTo(uint64_t pos)
{
    const uint64_t chunk = pos / trace_.chunkRecords_;
    wsearch_assert(chunk >= passed_); // never back into a released chunk
    const size_t upto = static_cast<size_t>(
        std::min<uint64_t>(chunk, trace_.slots_.size()));
    if (trace_.readers_ > 0) {
        for (size_t c = passed_; c < upto; ++c)
            trace_.release(c);
    }
    passed_ = std::max(passed_, upto);
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
