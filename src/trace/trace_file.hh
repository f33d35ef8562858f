/**
 * @file
 * Binary trace file format: capture any TraceSource (typically the
 * instrumented engine) to disk and replay it later, the workflow the
 * paper used with its Pin traces. The format is a fixed 32-byte
 * little-endian record with a small header, so traces are portable
 * and seekable.
 */

#ifndef WSEARCH_TRACE_TRACE_FILE_HH
#define WSEARCH_TRACE_TRACE_FILE_HH

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "trace/record.hh"

namespace wsearch {

/** On-disk header of a wsearch trace file. */
struct TraceFileHeader
{
    static constexpr uint64_t kMagic = 0x77737263'74726331ull; // wsrctrc1
    uint64_t magic = kMagic;
    uint64_t recordCount = 0;
    uint32_t numThreads = 0;
    uint32_t reserved = 0;
};

/** Writes records to a trace file. */
class TraceFileWriter
{
  public:
    /** Opens (truncates) @p path; check ok() before use. */
    TraceFileWriter(const std::string &path, uint32_t num_threads);
    ~TraceFileWriter();

    TraceFileWriter(const TraceFileWriter &) = delete;
    TraceFileWriter &operator=(const TraceFileWriter &) = delete;

    bool ok() const { return file_ != nullptr; }

    /** Append @p n records. */
    void append(const TraceRecord *recs, size_t n);

    /** Drain @p count records from @p src into the file. */
    uint64_t captureFrom(TraceSource &src, uint64_t count);

    /** Finalize the header and close; returns records written. */
    uint64_t close();

  private:
    std::FILE *file_ = nullptr;
    TraceFileHeader header_;
};

/** Replays a trace file as a TraceSource. */
class TraceFileReader : public TraceSource
{
  public:
    /**
     * Opens @p path; check ok() (bad magic also fails). Replay stops
     * at the first record with an out-of-range kind, op or branch
     * byte, or where the file ends before its header's recordCount:
     * fill() returns the valid records before that point, then 0, and
     * ok() turns false.
     */
    explicit TraceFileReader(const std::string &path);
    ~TraceFileReader() override;

    TraceFileReader(const TraceFileReader &) = delete;
    TraceFileReader &operator=(const TraceFileReader &) = delete;

    bool ok() const { return file_ != nullptr; }
    uint64_t recordCount() const { return header_.recordCount; }
    uint32_t numThreads() const { return header_.numThreads; }

    size_t fill(TraceRecord *buf, size_t max) override;
    void reset() override;

  private:
    std::FILE *file_ = nullptr;
    TraceFileHeader header_;
    uint64_t position_ = 0;
};

} // namespace wsearch

#endif // WSEARCH_TRACE_TRACE_FILE_HH
