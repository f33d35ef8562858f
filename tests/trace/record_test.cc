#include <gtest/gtest.h>

#include "trace/record.hh"

namespace wsearch {
namespace {

TEST(TraceRecord, DefaultsAreInert)
{
    const TraceRecord r;
    EXPECT_FALSE(r.isBranch());
    EXPECT_FALSE(r.isTaken());
    EXPECT_FALSE(r.hasData());
    EXPECT_FALSE(r.isStore());
}

TEST(TraceRecord, BranchHelpers)
{
    TraceRecord r;
    r.branch = BranchKind::NotTaken;
    EXPECT_TRUE(r.isBranch());
    EXPECT_FALSE(r.isTaken());
    r.branch = BranchKind::Taken;
    EXPECT_TRUE(r.isTaken());
}

TEST(TraceRecord, DataHelpers)
{
    TraceRecord r;
    r.op = MemOp::Load;
    EXPECT_TRUE(r.hasData());
    EXPECT_FALSE(r.isStore());
    r.op = MemOp::Store;
    EXPECT_TRUE(r.isStore());
}

TEST(TraceRecord, IsTwoWords)
{
    EXPECT_EQ(sizeof(TraceRecord), 16u);
}

constexpr uint64_t kTop = vaddr::kLimit - 1;
constexpr AccessKind kKinds[] = {AccessKind::Code, AccessKind::Heap,
                                 AccessKind::Shard, AccessKind::Stack};
constexpr MemOp kOps[] = {MemOp::None, MemOp::Load, MemOp::Store};
constexpr BranchKind kBranches[] = {
    BranchKind::NotBranch, BranchKind::NotTaken, BranchKind::Taken};

void
expectFields(const TraceRecord &r, uint64_t pc, uint64_t tid,
             uint64_t addr, AccessKind kind, MemOp op, BranchKind branch)
{
    EXPECT_EQ(r.pc, pc);
    EXPECT_EQ(r.tid, tid);
    EXPECT_EQ(r.addr, addr);
    EXPECT_EQ(r.kind, kind);
    EXPECT_EQ(r.op, op);
    EXPECT_EQ(r.branch, branch);
}

TEST(TraceRecord, FieldsRoundTripAtTheirExtremes)
{
    // Every combination of extremes, built both ways: each field reads
    // back what was put in, whatever its neighbours hold.
    for (const uint64_t pc : {uint64_t{0}, kTop}) {
        for (const uint64_t addr : {uint64_t{0}, kTop}) {
            for (const uint16_t tid : {uint16_t{0}, uint16_t{65535}}) {
                for (const AccessKind kind : kKinds) {
                    for (const MemOp op : kOps) {
                        for (const BranchKind branch : kBranches) {
                            expectFields(TraceRecord::make(pc, tid, addr,
                                                           kind, op,
                                                           branch),
                                         pc, tid, addr, kind, op, branch);
                            TraceRecord r;
                            r.pc = pc;
                            r.tid = tid;
                            r.addr = addr;
                            r.kind = kind;
                            r.op = op;
                            r.branch = branch;
                            expectFields(r, pc, tid, addr, kind, op,
                                         branch);
                        }
                    }
                }
            }
        }
    }
}

TEST(TraceRecord, SettingOneFieldLeavesTheOthers)
{
    // From all-ones and all-zeros neighbours, set each field to its
    // other extreme and check nothing else moved.
    const TraceRecord high = TraceRecord::make(
        kTop, 65535, kTop, AccessKind::Stack, MemOp::Store,
        BranchKind::Taken);
    TraceRecord r = high;
    r.pc = 0;
    expectFields(r, 0, 65535, kTop, AccessKind::Stack, MemOp::Store,
                 BranchKind::Taken);
    r = high;
    r.tid = 0;
    expectFields(r, kTop, 0, kTop, AccessKind::Stack, MemOp::Store,
                 BranchKind::Taken);
    r = high;
    r.addr = 0;
    expectFields(r, kTop, 65535, 0, AccessKind::Stack, MemOp::Store,
                 BranchKind::Taken);
    r = high;
    r.kind = AccessKind::Code;
    expectFields(r, kTop, 65535, kTop, AccessKind::Code, MemOp::Store,
                 BranchKind::Taken);
    r = high;
    r.op = MemOp::None;
    expectFields(r, kTop, 65535, kTop, AccessKind::Stack, MemOp::None,
                 BranchKind::Taken);
    r = high;
    r.branch = BranchKind::NotBranch;
    expectFields(r, kTop, 65535, kTop, AccessKind::Stack, MemOp::Store,
                 BranchKind::NotBranch);

    TraceRecord z;
    z.kind = AccessKind::Code;
    z.pc = kTop;
    expectFields(z, kTop, 0, 0, AccessKind::Code, MemOp::None,
                 BranchKind::NotBranch);
    z.pc = 0;
    z.tid = 65535;
    expectFields(z, 0, 65535, 0, AccessKind::Code, MemOp::None,
                 BranchKind::NotBranch);
    z.tid = 0;
    z.addr = kTop;
    expectFields(z, 0, 0, kTop, AccessKind::Code, MemOp::None,
                 BranchKind::NotBranch);
    z.addr = 0;
    z.kind = AccessKind::Stack;
    expectFields(z, 0, 0, 0, AccessKind::Stack, MemOp::None,
                 BranchKind::NotBranch);
    z.kind = AccessKind::Code;
    z.op = MemOp::Store;
    expectFields(z, 0, 0, 0, AccessKind::Code, MemOp::Store,
                 BranchKind::NotBranch);
    z.op = MemOp::None;
    z.branch = BranchKind::Taken;
    expectFields(z, 0, 0, 0, AccessKind::Code, MemOp::None,
                 BranchKind::Taken);
}

TEST(VaddrLayout, SegmentsAreDisjointAndOrdered)
{
    EXPECT_LT(vaddr::kCodeBase, vaddr::kHeapBase);
    EXPECT_LT(vaddr::kHeapBase, vaddr::kShardBase);
    EXPECT_LT(vaddr::kShardBase, vaddr::kStackBase);
    // The stacks of as many threads as a tid can name end below the
    // highest address a record holds.
    EXPECT_LE(vaddr::kStackBase + 65536 * vaddr::kStackStride,
              vaddr::kLimit);
}

} // namespace
} // namespace wsearch
