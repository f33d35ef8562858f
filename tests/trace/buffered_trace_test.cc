#include <gtest/gtest.h>

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
