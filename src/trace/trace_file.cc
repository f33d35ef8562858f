#include "trace/trace_file.hh"

#include <algorithm>
#include <vector>

#include "util/logging.hh"

namespace wsearch {

namespace {

/** Fixed 32-byte on-disk record (host endianness; little-endian on
 *  every supported platform). */
struct DiskRecord
{
    uint64_t pc;
    uint64_t addr;
    uint64_t target;
    uint16_t tid;
    uint8_t kind;
    uint8_t op;
    uint8_t branch;
    uint8_t pad[3];
};
static_assert(sizeof(DiskRecord) == 32, "trace record layout");

DiskRecord
toDisk(const TraceRecord &r)
{
    DiskRecord d{};
    d.pc = r.pc;
    d.addr = r.addr;
    d.target = r.target;
    d.tid = r.tid;
    d.kind = static_cast<uint8_t>(r.kind);
    d.op = static_cast<uint8_t>(r.op);
    d.branch = static_cast<uint8_t>(r.branch);
    return d;
}

/** Records decoded per read; the buffer lives on the stack. */
constexpr size_t kDecodeRecords = 256;

/**
 * Decode @p d into @p r. Returns false, leaving @p r unspecified,
 * when an enum byte is out of range: a hostile or corrupt file must
 * not hand the simulator a kind that indexes past its counters.
 */
bool
fromDisk(const DiskRecord &d, TraceRecord &r)
{
    if (d.kind >= kNumAccessKinds ||
        d.op > static_cast<uint8_t>(MemOp::Store) ||
        d.branch > static_cast<uint8_t>(BranchKind::Taken))
        return false;
    r.pc = d.pc;
    r.addr = d.addr;
    r.target = d.target;
    r.tid = d.tid;
    r.kind = static_cast<AccessKind>(d.kind);
    r.op = static_cast<MemOp>(d.op);
    r.branch = static_cast<BranchKind>(d.branch);
    return true;
}

} // namespace

TraceFileWriter::TraceFileWriter(const std::string &path,
                                 uint32_t num_threads)
{
    file_ = std::fopen(path.c_str(), "wb");
    if (!file_)
        return;
    header_.numThreads = num_threads;
    // Placeholder header; rewritten with the final count on close().
    std::fwrite(&header_, sizeof(header_), 1, file_);
}

TraceFileWriter::~TraceFileWriter()
{
    if (file_)
        close();
}

void
TraceFileWriter::append(const TraceRecord *recs, size_t n)
{
    wsearch_assert(file_ != nullptr);
    std::vector<DiskRecord> disk(n);
    for (size_t i = 0; i < n; ++i)
        disk[i] = toDisk(recs[i]);
    std::fwrite(disk.data(), sizeof(DiskRecord), n, file_);
    header_.recordCount += n;
}

uint64_t
TraceFileWriter::captureFrom(TraceSource &src, uint64_t count)
{
    TraceRecord buf[4096];
    uint64_t done = 0;
    while (done < count) {
        const size_t want = static_cast<size_t>(
            std::min<uint64_t>(4096, count - done));
        const size_t got = src.fill(buf, want);
        if (got == 0)
            break;
        append(buf, got);
        done += got;
    }
    return done;
}

uint64_t
TraceFileWriter::close()
{
    if (!file_)
        return header_.recordCount;
    std::fseek(file_, 0, SEEK_SET);
    std::fwrite(&header_, sizeof(header_), 1, file_);
    std::fclose(file_);
    file_ = nullptr;
    return header_.recordCount;
}

TraceFileReader::TraceFileReader(const std::string &path)
{
    file_ = std::fopen(path.c_str(), "rb");
    if (!file_)
        return;
    if (std::fread(&header_, sizeof(header_), 1, file_) != 1 ||
        header_.magic != TraceFileHeader::kMagic) {
        std::fclose(file_);
        file_ = nullptr;
    }
}

TraceFileReader::~TraceFileReader()
{
    if (file_)
        std::fclose(file_);
}

size_t
TraceFileReader::fill(TraceRecord *buf, size_t max)
{
    size_t done = 0;
    while (file_ && done < max && position_ < header_.recordCount) {
        DiskRecord disk[kDecodeRecords];
        const size_t want = static_cast<size_t>(std::min<uint64_t>(
            {max - done, kDecodeRecords,
             header_.recordCount - position_}));
        const size_t got =
            std::fread(disk, sizeof(DiskRecord), want, file_);
        size_t valid = 0;
        while (valid < got && fromDisk(disk[valid], buf[done + valid]))
            ++valid;
        done += valid;
        position_ += valid;
        if (valid < want) {
            // A malformed record, or a file shorter than its header
            // says: hand out the records before it, then stop for good.
            std::fclose(file_);
            file_ = nullptr;
        }
    }
    return done;
}

void
TraceFileReader::reset()
{
    if (!file_)
        return;
    std::fseek(file_, sizeof(TraceFileHeader), SEEK_SET);
    position_ = 0;
}

} // namespace wsearch
