#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <vector>

#include "trace/synthetic.hh"
#include "trace/trace_file.hh"

namespace wsearch {
namespace {

class TraceFileTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // One file per test: ctest runs the tests as concurrent
        // processes, which must not share a path.
        path_ = ::testing::TempDir() + "wsearch_trace_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".bin";
    }

    void
    TearDown() override
    {
        std::remove(path_.c_str());
    }

    std::string path_;
};

WorkloadProfile
tinyProfile()
{
    WorkloadProfile p = WorkloadProfile::s1Leaf();
    p.code.footprintBytes = 64 * KiB;
    p.heapWorkingSetBytes = 1 * MiB;
    p.shardSpanBytes = 64 * MiB;
    return p;
}

TEST_F(TraceFileTest, RoundTripExact)
{
    SyntheticSearchTrace src(tinyProfile(), 2);
    std::vector<TraceRecord> orig(10000);
    src.fill(orig.data(), orig.size());

    {
        TraceFileWriter w(path_, 2);
        ASSERT_TRUE(w.ok());
        w.append(orig.data(), orig.size());
        EXPECT_EQ(w.close(), orig.size());
    }

    TraceFileReader r(path_);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.recordCount(), orig.size());
    EXPECT_EQ(r.numThreads(), 2u);
    std::vector<TraceRecord> back(orig.size());
    size_t got = 0;
    while (got < back.size())
        got += r.fill(back.data() + got, back.size() - got);
    for (size_t i = 0; i < orig.size(); ++i) {
        ASSERT_EQ(back[i].pc, orig[i].pc) << i;
        ASSERT_EQ(back[i].addr, orig[i].addr);
        ASSERT_EQ(back[i].target, orig[i].target);
        ASSERT_EQ(back[i].tid, orig[i].tid);
        ASSERT_EQ(back[i].kind, orig[i].kind);
        ASSERT_EQ(back[i].op, orig[i].op);
        ASSERT_EQ(back[i].branch, orig[i].branch);
    }
}

TEST_F(TraceFileTest, CaptureFromSource)
{
    SyntheticSearchTrace src(tinyProfile(), 1);
    TraceFileWriter w(path_, 1);
    ASSERT_TRUE(w.ok());
    EXPECT_EQ(w.captureFrom(src, 5000), 5000u);
    w.close();
    TraceFileReader r(path_);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.recordCount(), 5000u);
}

TEST_F(TraceFileTest, ReaderExhaustsThenResets)
{
    {
        SyntheticSearchTrace src(tinyProfile(), 1);
        TraceFileWriter w(path_, 1);
        w.captureFrom(src, 100);
    }
    TraceFileReader r(path_);
    TraceRecord buf[64];
    size_t total = 0, got = 0;
    while ((got = r.fill(buf, 64)) > 0)
        total += got;
    EXPECT_EQ(total, 100u);
    EXPECT_EQ(r.fill(buf, 64), 0u);
    r.reset();
    EXPECT_EQ(r.fill(buf, 64), 64u);
}

TEST_F(TraceFileTest, ReplayEqualsLiveSource)
{
    // Capturing and replaying must be bit-identical to the live
    // stream -- the property that makes traces reusable artifacts.
    SyntheticSearchTrace live(tinyProfile(), 4);
    {
        SyntheticSearchTrace src(tinyProfile(), 4);
        TraceFileWriter w(path_, 4);
        w.captureFrom(src, 20000);
    }
    TraceFileReader replay(path_);
    TraceRecord a[512], b[512];
    for (int chunk = 0; chunk < 39; ++chunk) {
        live.fill(a, 512);
        ASSERT_EQ(replay.fill(b, 512), 512u);
        for (int i = 0; i < 512; ++i) {
            ASSERT_EQ(a[i].pc, b[i].pc);
            ASSERT_EQ(a[i].addr, b[i].addr);
        }
    }
}

TEST_F(TraceFileTest, RejectsBadMagic)
{
    std::FILE *f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[64] = "not a trace file";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
    TraceFileReader r(path_);
    EXPECT_FALSE(r.ok());
}

/** Header bytes, and byte offsets of the enum fields in a record. */
constexpr long kHeaderBytes = sizeof(TraceFileHeader);
constexpr long kRecordBytes = 32;
constexpr long kKindOffset = 26;
constexpr long kOpOffset = 27;

/** Capture @p n records of a tiny synthetic trace to @p path. */
std::vector<TraceRecord>
writeTrace(const std::string &path, size_t n)
{
    SyntheticSearchTrace src(tinyProfile(), 2);
    std::vector<TraceRecord> recs(n);
    src.fill(recs.data(), recs.size());
    TraceFileWriter w(path, 2);
    w.append(recs.data(), recs.size());
    w.close();
    return recs;
}

/** Overwrite one byte of record @p rec at @p offset. */
void
poke(const std::string &path, size_t rec, long offset, uint8_t value)
{
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, kHeaderBytes + static_cast<long>(rec) * kRecordBytes +
                      offset,
               SEEK_SET);
    std::fputc(value, f);
    std::fclose(f);
}

/** Drain @p r in 100-record fills; returns everything it produced. */
std::vector<TraceRecord>
drain(TraceFileReader &r)
{
    std::vector<TraceRecord> out;
    TraceRecord buf[100];
    size_t got;
    while ((got = r.fill(buf, 100)) > 0)
        out.insert(out.end(), buf, buf + got);
    return out;
}

void
expectPrefix(const std::vector<TraceRecord> &got,
             const std::vector<TraceRecord> &orig)
{
    for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].pc, orig[i].pc) << i;
        ASSERT_EQ(got[i].kind, orig[i].kind) << i;
        ASSERT_EQ(got[i].op, orig[i].op) << i;
    }
}

TEST_F(TraceFileTest, StopsAtBadKind)
{
    // The bad record sits past the first 256-record decode batch.
    const std::vector<TraceRecord> orig = writeTrace(path_, 1000);
    poke(path_, 300, kKindOffset, 200);
    TraceFileReader r(path_);
    ASSERT_TRUE(r.ok());
    const std::vector<TraceRecord> got = drain(r);
    EXPECT_EQ(got.size(), 300u);
    expectPrefix(got, orig);
    EXPECT_FALSE(r.ok());
    TraceRecord buf[4];
    EXPECT_EQ(r.fill(buf, 4), 0u);
}

TEST_F(TraceFileTest, StopsAtBadOp)
{
    writeTrace(path_, 50);
    poke(path_, 0, kOpOffset, 3);
    TraceFileReader r(path_);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(drain(r).empty());
    EXPECT_FALSE(r.ok());
}

TEST_F(TraceFileTest, StopsAtTruncation)
{
    // The header promises 1000 records; the file ends halfway through
    // record 600.
    const std::vector<TraceRecord> orig = writeTrace(path_, 1000);
    std::filesystem::resize_file(
        path_, kHeaderBytes + 600 * kRecordBytes + kRecordBytes / 2);
    TraceFileReader r(path_);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.recordCount(), 1000u);
    const std::vector<TraceRecord> got = drain(r);
    EXPECT_EQ(got.size(), 600u);
    expectPrefix(got, orig);
    EXPECT_FALSE(r.ok());
}

TEST_F(TraceFileTest, MissingFileFailsGracefully)
{
    TraceFileReader r("/nonexistent/path/trace.bin");
    EXPECT_FALSE(r.ok());
    TraceRecord buf[4];
    EXPECT_EQ(r.fill(buf, 4), 0u);
}

} // namespace
} // namespace wsearch
