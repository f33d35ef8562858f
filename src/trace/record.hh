/**
 * @file
 * Trace record format. One record corresponds to one dynamic
 * instruction: its fetch PC, optional branch outcome, and optional data
 * access tagged with an AccessKind. Both the statistical generator and
 * the instrumented mini search engine emit this format; the cache
 * simulator and CPU models consume it.
 *
 * A record is 16 bytes: the PC and the data address are 48-bit
 * virtual addresses (below vaddr::kLimit, the span of x86-64's
 * four-level paging), packed beside the thread id and the three
 * enums. No simulator reads a branch's target, so the record carries
 * none. Assigning bit-fields one by one in a buffer slot compiles to
 * a read-modify-write of the slot's words, so producers build each
 * record with TraceRecord::make, in two registers, and store it whole.
 */

#ifndef WSEARCH_TRACE_RECORD_HH
#define WSEARCH_TRACE_RECORD_HH

#include <array>
#include <bit>
#include <cstdint>

#include "stats/access_kind.hh"

namespace wsearch {

/** Data-access operation attached to an instruction. */
enum class MemOp : uint8_t {
    None = 0,
    Load = 1,
    Store = 2,
};

/** Branch behaviour of an instruction. */
enum class BranchKind : uint8_t {
    NotBranch = 0,
    NotTaken = 1,
    Taken = 2,
};

/** Canonical virtual-address-space layout used by all trace sources. */
namespace vaddr {
constexpr uint64_t kCodeBase = 0x0000'0040'0000ull;
constexpr uint64_t kHeapBase = 0x2000'0000'0000ull;
constexpr uint64_t kShardBase = 0x4000'0000'0000ull;
constexpr uint64_t kStackBase = 0x7000'0000'0000ull;
/** Per-thread stack stride (maximum modeled stack size). */
constexpr uint64_t kStackStride = 0x0000'0100'0000ull; // 16 MiB
/** Bits of a record's pc and addr. */
constexpr unsigned kBits = 48;
/** One past the highest address a record holds. */
constexpr uint64_t kLimit = uint64_t(1) << kBits;
} // namespace vaddr

/** One dynamic instruction, in two 64-bit words. */
struct TraceRecord
{
    uint64_t pc : vaddr::kBits = 0;   ///< fetch address
    uint64_t tid : 16 = 0;            ///< software/hardware thread id
    uint64_t addr : vaddr::kBits = 0; ///< data address (valid when op != None)
    AccessKind kind : 8 = AccessKind::Heap; ///< kind of the data access
    MemOp op : 4 = MemOp::None;
    BranchKind branch : 4 = BranchKind::NotBranch;

    bool isBranch() const { return branch != BranchKind::NotBranch; }
    bool isTaken() const { return branch == BranchKind::Taken; }
    bool hasData() const { return op != MemOp::None; }
    bool isStore() const { return op == MemOp::Store; }

    /**
     * The record with these fields, composed word by word in
     * registers. @p pc and @p addr keep their low vaddr::kBits bits.
     */
    static constexpr TraceRecord
    make(uint64_t pc, uint16_t tid, uint64_t addr, AccessKind kind,
         MemOp op, BranchKind branch)
    {
        constexpr uint64_t mask = vaddr::kLimit - 1;
        const uint64_t w0 = (pc & mask) | uint64_t{tid} << vaddr::kBits;
        const uint64_t w1 = (addr & mask) |
            uint64_t{static_cast<uint8_t>(kind)} << vaddr::kBits |
            uint64_t{static_cast<uint8_t>(op)} << (vaddr::kBits + 8) |
            uint64_t{static_cast<uint8_t>(branch)} << (vaddr::kBits + 12);
        return std::bit_cast<TraceRecord>(std::array<uint64_t, 2>{w0, w1});
    }
};
static_assert(sizeof(TraceRecord) == 16, "two words per record");
// make() matches the bit-field layout.
static_assert([] {
    constexpr TraceRecord r = TraceRecord::make(
        0x8765'4321'0fedull, 0xbeef, 0x1234'5678'9abcull,
        AccessKind::Stack, MemOp::Store, BranchKind::Taken);
    return r.pc == 0x8765'4321'0fedull && r.tid == 0xbeef &&
        r.addr == 0x1234'5678'9abcull && r.kind == AccessKind::Stack &&
        r.op == MemOp::Store && r.branch == BranchKind::Taken;
}());

/**
 * Pull-based trace source. Implementations fill caller-provided buffers
 * so the hot simulation loop never crosses a virtual call per record.
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /**
     * Fill up to @p max records into @p buf.
     * @return number of records produced; 0 means the source is
     *         exhausted (infinite sources never return 0).
     */
    virtual size_t fill(TraceRecord *buf, size_t max) = 0;

    /** Restart the source from the beginning (optional). */
    virtual void reset() {}
};

} // namespace wsearch

#endif // WSEARCH_TRACE_RECORD_HH
