#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "bench.hh"

namespace wsbench {

Spans &
Spans::get()
{
    static Spans spans;
    return spans;
}

Spans::Buffer &
Spans::local()
{
    // Buffers are owned by the (process-lifetime) recorder, so a thread
    // that exits early leaves its spans behind for the final write.
    thread_local Buffer *buf = nullptr;
    if (!buf) {
        std::lock_guard<std::mutex> lk(mu_);
        buffers_.push_back(std::make_unique<Buffer>());
        buf = buffers_.back().get();
        buf->thread = static_cast<uint32_t>(buffers_.size());
        buf->spans.reserve(1 << 16);
    }
    return *buf;
}

uint64_t
Spans::reserve()
{
    return enabled() ? nextId_.fetch_add(1, std::memory_order_relaxed)
                     : 0;
}

uint64_t
Spans::add(const char *name, uint64_t start_ns, uint64_t end_ns,
           uint64_t parent, uint64_t request, uint64_t id)
{
    if (!enabled())
        return 0;
    if (id == 0)
        id = reserve();
    Buffer &b = local();
    b.spans.push_back(Span{name, start_ns, end_ns, id, parent, request,
                           b.thread});
    return id;
}

std::vector<Spans::Span>
Spans::all() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<Span> out;
    for (const auto &b : buffers_)
        out.insert(out.end(), b->spans.begin(), b->spans.end());
    return out;
}

uint64_t
Spans::count() const
{
    std::lock_guard<std::mutex> lk(mu_);
    uint64_t n = 0;
    for (const auto &b : buffers_)
        n += b->spans.size();
    return n;
}

bool
Spans::writeChromeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::vector<Span> spans = all();
    uint64_t t0 = ~0ull;
    for (const Span &s : spans)
        t0 = std::min(t0, s.start);
    std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                     "\"id\":%llu,\"parent\":%llu,\"request\":%llu}}",
                     i ? "," : "", s.name, s.thread,
                     static_cast<double>(s.start - t0) / 1e3,
                     static_cast<double>(s.end - s.start) / 1e3,
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.request));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

std::map<std::string, uint64_t>
Spans::selfTimeByName() const
{
    const std::vector<Span> spans = all();
    std::unordered_map<uint64_t, std::vector<const Span *>> children;
    for (const Span &s : spans)
        if (s.parent)
            children[s.parent].push_back(&s);
    std::map<std::string, uint64_t> self;
    for (const Span &s : spans) {
        // Union of the children's intervals, clipped to the parent.
        std::vector<std::pair<uint64_t, uint64_t>> iv;
        for (const Span *c : children[s.id])
            iv.emplace_back(std::max(c->start, s.start),
                            std::min(c->end, s.end));
        std::sort(iv.begin(), iv.end());
        uint64_t covered = 0, reach = s.start;
        for (const auto &[b, e] : iv) {
            const uint64_t from = std::max(b, reach);
            if (e > from) {
                covered += e - from;
                reach = e;
            }
        }
        self[s.name] += (s.end - s.start) - covered;
    }
    return self;
}

double
Spans::costPerSpanNs()
{
    // Time a burst of records into this thread's buffer, then drop
    // them again so they do not appear in the written trace.
    constexpr uint64_t kBurst = 20000;
    Buffer &b = local();
    const size_t keep = b.spans.size();
    const bool was = enabled();
    enable(true);
    const uint64_t t0 = clockNs();
    for (uint64_t i = 0; i < kBurst; ++i) {
        const uint64_t s = clockNs();
        add("calibrate", s, clockNs(), 1, i);
    }
    const uint64_t t1 = clockNs();
    b.spans.resize(keep);
    enable(was);
    return static_cast<double>(t1 - t0) / kBurst;
}

Scope::Scope(const char *name, uint64_t parent, uint64_t request)
    : name_(name), parent_(parent), request_(request),
      id_(Spans::get().reserve()), start_(id_ ? clockNs() : 0)
{
}

Scope::~Scope()
{
    if (id_)
        Spans::get().add(name_, start_, clockNs(), parent_, request_, id_);
}

} // namespace wsbench
