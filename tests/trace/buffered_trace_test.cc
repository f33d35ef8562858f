#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "trace/buffered_trace.hh"
#include "trace/profile.hh"
#include "trace/synthetic.hh"

namespace wsearch {
namespace {

/** Deterministic finite source with an awkward fill granularity. */
class CountingSource : public TraceSource
{
  public:
    CountingSource(uint64_t total, size_t max_fill)
        : total_(total), maxFill_(max_fill)
    {
    }

    size_t
    fill(TraceRecord *buf, size_t max) override
    {
        size_t n = 0;
        while (n < max && n < maxFill_ && pos_ < total_) {
            TraceRecord r;
            r.pc = 0x400000 + pos_ * 4;
            r.addr = 0x9000 + pos_ * 8;
            r.op = MemOp::Load;
            r.tid = static_cast<uint16_t>(pos_ % 7);
            buf[n++] = r;
            ++pos_;
        }
        return n;
    }

    void reset() override { pos_ = 0; }

  private:
    uint64_t total_;
    size_t maxFill_;
    uint64_t pos_ = 0;
};

/**
 * A CountingSource that calls @p hook(pos) at the start of every fill,
 * on the generating thread, with the position of the first record the
 * fill produces.
 */
class HookedSource : public CountingSource
{
  public:
    HookedSource(uint64_t total, std::function<void(uint64_t)> hook)
        : CountingSource(total, total), hook_(std::move(hook))
    {
    }

    size_t
    fill(TraceRecord *buf, size_t max) override
    {
        hook_(at_);
        const size_t n = CountingSource::fill(buf, max);
        at_ += n;
        return n;
    }

  private:
    std::function<void(uint64_t)> hook_;
    uint64_t at_ = 0;
};

/** Records of a span equal CountingSource's from @p begin on. */
void
expectCounting(const BufferedTrace::Span &s, uint64_t begin)
{
    for (size_t i = 0; i < s.count; ++i)
        ASSERT_EQ(s.data[i].pc, 0x400000 + (begin + i) * 4) << begin + i;
}

/** One page of records per chunk: each chunk is its own mapping. */
constexpr size_t kPageChunk = 256;

TEST(BufferedTrace, RecyclesAChunkOnlyAfterItsLastReader)
{
    constexpr uint64_t kChunks = 4;
    BufferedTrace buf(kChunks * kPageChunk, kPageChunk, 3);
    BufferedTrace::Reader a(buf), b(buf), c(buf);
    // Mapped storage as each chunk fills; chunk k took its storage
    // just before.
    std::vector<size_t> mapped;
    HookedSource src(kChunks * kPageChunk, [&](uint64_t pos) {
        mapped.push_back(buf.mappedChunks());
        if (pos == 1 * kPageChunk) {
            // Two of three readers pass chunk 0: it stays held, so
            // chunk 2 maps new storage.
            a.passTo(kPageChunk);
            b.passTo(kPageChunk);
        } else if (pos == 2 * kPageChunk) {
            // The third releases it: chunk 3 gets chunk 0's storage.
            c.passTo(kPageChunk);
        }
    });
    buf.generate(src);
    EXPECT_EQ(mapped, (std::vector<size_t>{1, 2, 3, 3}));
    EXPECT_EQ(buf.mappedChunks(), 3u);

    // The recycled storage holds chunk 2's records, for every reader.
    for (BufferedTrace::Reader *r : {&a, &b, &c}) {
        for (uint64_t pos = kPageChunk; pos < buf.size();) {
            const BufferedTrace::Span s = r->spanAt(pos, kPageChunk);
            expectCounting(s, pos);
            pos += s.count;
        }
    }
}

TEST(BufferedTrace, AReaderThatEndsEarlyReleasesTheRest)
{
    constexpr uint64_t kChunks = 6;
    BufferedTrace buf(kChunks * kPageChunk, kPageChunk, 1);
    auto reader = std::make_unique<BufferedTrace::Reader>(buf);
    HookedSource src(kChunks * kPageChunk, [&](uint64_t pos) {
        if (pos == kPageChunk) {
            expectCounting(reader->spanAt(0, kPageChunk), 0);
            reader.reset(); // ends after one chunk of six
        }
    });
    buf.generate(src);
    // Chunk 0 was recycled when its only reader ended, and every later
    // chunk as soon as it was published: chunk 0's storage and the one
    // chunk 1 took while the reader still held chunk 0 served all six.
    EXPECT_EQ(buf.mappedChunks(), 2u);
    EXPECT_EQ(buf.size(), kChunks * kPageChunk);
}

TEST(BufferedTrace, AChunkEveryReaderSkippedIsRecycledOncePublished)
{
    // Both readers skip chunks 0-3, as a sampled plan's gap: each is
    // recycled as soon as it is published, and the next reuses it.
    constexpr uint64_t kChunks = 6, kSkip = 4;
    BufferedTrace buf(kChunks * kPageChunk, kPageChunk, 2);
    BufferedTrace::Reader a(buf), b(buf);
    a.passTo(kSkip * kPageChunk);
    b.passTo(kSkip * kPageChunk);
    CountingSource src(kChunks * kPageChunk, kPageChunk);
    buf.generate(src);
    // Chunks 0-4 shared one storage; chunk 5 needed a second while
    // both readers still held chunk 4.
    EXPECT_EQ(buf.mappedChunks(), 2u);
    for (BufferedTrace::Reader *r : {&a, &b}) {
        for (uint64_t pos = kSkip * kPageChunk; pos < buf.size();) {
            const BufferedTrace::Span s = r->spanAt(pos, kPageChunk);
            expectCounting(s, pos);
            pos += s.count;
        }
    }
}

TEST(BufferedTrace, StorageStaysWithinTheReadersLag)
{
    // The generator may run at most kLag chunks ahead of what the
    // reader has released. Held chunks are then the lag, the chunk
    // the reader is in and the chunk being generated: kLag + 2.
    constexpr uint64_t kChunks = 64, kLag = 2;
    for (const uint32_t readers : {1u, 2u}) {
        SCOPED_TRACE("readers=" + std::to_string(readers));
        BufferedTrace buf(kChunks * kPageChunk, kPageChunk, readers);
        std::vector<std::atomic<uint64_t>> released(readers);
        HookedSource src(kChunks * kPageChunk, [&](uint64_t pos) {
            for (const std::atomic<uint64_t> &r : released) {
                while (r.load(std::memory_order_acquire) + kLag * kPageChunk <
                       pos)
                    std::this_thread::yield();
            }
        });
        std::vector<std::thread> threads;
        for (uint32_t k = 0; k < readers; ++k) {
            threads.emplace_back([&, k] {
                BufferedTrace::Reader r(buf);
                for (uint64_t pos = 0;;) {
                    const BufferedTrace::Span s = r.spanAt(pos, 100);
                    if (s.count == 0)
                        break;
                    // Every chunk before pos's is released now.
                    released[k].store(pos - pos % kPageChunk,
                                      std::memory_order_release);
                    expectCounting(s, pos);
                    pos += s.count;
                }
                released[k].store(~uint64_t(0) / 2,
                                  std::memory_order_release);
            });
        }
        buf.generate(src);
        for (std::thread &t : threads)
            t.join();
        EXPECT_LE(buf.mappedChunks(), kLag + 2);
        EXPECT_EQ(buf.size(), kChunks * kPageChunk);
    }
}

TEST(BufferedTraceDeathTest, ReadingAReleasedChunkPanics)
{
    CountingSource src(4 * kPageChunk, kPageChunk);
    BufferedTrace buf(4 * kPageChunk, kPageChunk, 1);
    buf.generate(src);
    BufferedTrace::Reader r(buf);
    r.passTo(2 * kPageChunk);
    // The reader itself moving back, and anyone after the last reader
    // released the chunk.
    EXPECT_DEATH(r.spanAt(kPageChunk, 10), "assertion failed");
    EXPECT_DEATH(buf.chunk(1), "assertion failed");
    EXPECT_EQ(buf.chunk(2).count, kPageChunk); // not released yet
}

TEST(BufferedTrace, MaterializesRequestedRecordsInOrder)
{
    CountingSource src(10'000, 333);
    const auto trace = BufferedTrace::materialize(src, 2'500, 1000);
    ASSERT_EQ(trace->size(), 2'500u);
    EXPECT_EQ(trace->numChunks(), 3u);
    for (uint64_t i = 0; i < trace->size(); ++i) {
        EXPECT_EQ(trace->at(i).pc, 0x400000 + i * 4);
        EXPECT_EQ(trace->at(i).tid, i % 7);
    }
}

TEST(BufferedTrace, StopsAtSourceExhaustion)
{
    CountingSource src(1'234, 100);
    const auto trace = BufferedTrace::materialize(src, 5'000, 512);
    EXPECT_EQ(trace->size(), 1'234u);
    // All chunks but the last are full.
    for (size_t c = 0; c + 1 < trace->numChunks(); ++c)
        EXPECT_EQ(trace->chunk(c).count, 512u);
}

TEST(BufferedTrace, SpanAtClipsToChunkEdgeAndLength)
{
    CountingSource src(4'000, 4'000);
    const auto trace = BufferedTrace::materialize(src, 3'000, 1000);

    // Mid-chunk span clipped by max_len.
    BufferedTrace::Span s = trace->spanAt(100, 50);
    ASSERT_EQ(s.count, 50u);
    EXPECT_EQ(s.data[0].pc, 0x400000 + 100 * 4);

    // Span straddling a chunk boundary is clipped to the edge.
    s = trace->spanAt(900, 500);
    ASSERT_EQ(s.count, 100u);
    EXPECT_EQ(s.data[99].pc, 0x400000 + 999 * 4);
    s = trace->spanAt(1000, 500);
    ASSERT_EQ(s.count, 500u);
    EXPECT_EQ(s.data[0].pc, 0x400000 + 1000 * 4);

    // Past the end: empty.
    EXPECT_EQ(trace->spanAt(3'000, 10).count, 0u);
    EXPECT_EQ(trace->spanAt(99'999, 10).count, 0u);
}

TEST(BufferedTrace, CursorReplaysBitIdenticallyAndRewinds)
{
    const WorkloadProfile prof = WorkloadProfile::s1Leaf();
    SyntheticSearchTrace gen(prof, 4);
    const auto trace = BufferedTrace::materialize(gen, 20'000, 1 << 12);
    ASSERT_EQ(trace->size(), 20'000u);

    // A fresh source with the same seed produces the same records the
    // buffer captured.
    SyntheticSearchTrace fresh(prof, 4);
    std::vector<TraceRecord> expect(20'000);
    for (size_t filled = 0; filled < expect.size();)
        filled += fresh.fill(expect.data() + filled,
                             expect.size() - filled);

    BufferedTrace::Cursor cur(trace);
    for (int pass = 0; pass < 2; ++pass) {
        std::vector<TraceRecord> got(expect.size());
        size_t filled = 0;
        // Odd fill size to exercise span-copy stitching.
        while (filled < got.size()) {
            const size_t n = cur.fill(
                got.data() + filled,
                std::min<size_t>(777, got.size() - filled));
            if (n == 0)
                break;
            filled += n;
        }
        ASSERT_EQ(filled, expect.size());
        for (size_t i = 0; i < expect.size(); ++i) {
            ASSERT_EQ(got[i].pc, expect[i].pc) << "record " << i;
            ASSERT_EQ(got[i].addr, expect[i].addr) << "record " << i;
            ASSERT_EQ(got[i].tid, expect[i].tid) << "record " << i;
            ASSERT_EQ(got[i].op, expect[i].op) << "record " << i;
            ASSERT_EQ(got[i].kind, expect[i].kind) << "record " << i;
            ASSERT_EQ(got[i].branch, expect[i].branch)
                << "record " << i;
        }
        EXPECT_EQ(cur.fill(got.data(), 1), 0u); // exhausted
        cur.reset();
    }
}

TEST(BufferedTrace, ReadersReplayWhileTheProducerFills)
{
    constexpr uint64_t kWant = 30'000;
    // A source with records to spare, and one that runs dry in the
    // middle of a chunk (for chunks of 7 and 65,536 records).
    for (const uint64_t total : {kWant + 100, uint64_t{20'003}}) {
        for (const size_t chunk : {size_t{1}, size_t{7}, size_t{65'536}}) {
            SCOPED_TRACE("source=" + std::to_string(total) +
                         " chunk=" + std::to_string(chunk));
            CountingSource ref_src(total, 333);
            const auto want =
                BufferedTrace::materialize(ref_src, kWant, chunk);

            // Three readers start before the producer: span by span,
            // through a TraceSource cursor, and record by record.
            const auto buf = std::make_shared<BufferedTrace>(kWant, chunk);
            std::vector<TraceRecord> seen[3];
            std::vector<std::thread> readers;
            readers.emplace_back([&] {
                for (uint64_t pos = 0;;) {
                    const BufferedTrace::Span s = buf->spanAt(pos, 997);
                    if (s.count == 0)
                        break;
                    seen[0].insert(seen[0].end(), s.data,
                                   s.data + s.count);
                    pos += s.count;
                }
            });
            readers.emplace_back([&] {
                BufferedTrace::Cursor cur(buf);
                TraceRecord tmp[777];
                for (size_t n; (n = cur.fill(tmp, 777)) > 0;)
                    seen[1].insert(seen[1].end(), tmp, tmp + n);
            });
            readers.emplace_back([&] {
                for (uint64_t i = 0; i < want->size(); ++i)
                    seen[2].push_back(buf->at(i));
            });
            CountingSource src(total, 333);
            buf->generate(src);
            for (std::thread &t : readers)
                t.join();

            ASSERT_EQ(buf->size(), want->size());
            ASSERT_EQ(buf->numChunks(), want->numChunks());
            for (const std::vector<TraceRecord> &got : seen) {
                ASSERT_EQ(got.size(), want->size());
                for (uint64_t i = 0; i < got.size(); ++i) {
                    const TraceRecord &a = got[i], &b = want->at(i);
                    ASSERT_TRUE(a.pc == b.pc && a.addr == b.addr &&
                                a.tid == b.tid && a.op == b.op)
                        << "record " << i;
                }
            }
        }
    }
}

} // namespace
} // namespace wsearch
