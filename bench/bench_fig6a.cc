/**
 * @file
 * Reproduces paper Figure 6a: per-level (L1/L2/L3) misses broken down
 * by access type (code / heap / shard) on a PLT1-like hierarchy with
 * a 40 MiB L3 driven by 16 threads of S1-leaf traffic — the paper's
 * simulator baseline (§III-A).
 */

#include <cstdio>

#include "common.hh"
#include "util/table.hh"

namespace wsearch {
namespace {

void
runFig6a(const bench::Args &args)
{
    bench::banner("Figure 6a", "Cache MPKI across the hierarchy by access type",
                  args.smoke);
    RunOptions opt = bench::baseOptions(args, 16, 32'000'000, 48'000'000);
    opt.l3Bytes = 40 * MiB;
    const SystemResult r =
        runWorkloadSweep(WorkloadProfile::s1Leaf(),
                         PlatformConfig::plt1(), {opt},
                         bench::sweepControl(
                             args, recordBudget(opt).total()))
            .front();
    const uint64_t instr = r.instructions;

    Table t({"Level", "Code MPKI", "Heap MPKI", "Shard MPKI",
             "Stack MPKI", "Total MPKI"});
    auto row = [&](const char *name, const CacheLevelStats &s) {
        t.addRow({name, Table::fmt(s.mpki(AccessKind::Code, instr), 2),
                  Table::fmt(s.mpki(AccessKind::Heap, instr), 2),
                  Table::fmt(s.mpki(AccessKind::Shard, instr), 2),
                  Table::fmt(s.mpki(AccessKind::Stack, instr), 2),
                  Table::fmt(s.mpkiTotal(instr), 2)});
    };
    row("L1", r.l1());
    row("L2", r.l2);
    row("L3", r.l3);
    t.print();
    std::printf("\nPaper: L1/L2 miss significantly for code, heap and "
                "shard; the shared L3 eliminates virtually all "
                "instruction misses while heap and shard still miss "
                "to memory.\n");
}

} // namespace
} // namespace wsearch

int
main(int argc, char **argv)
{
    wsearch::runFig6a(wsearch::bench::parseArgs(argc, argv));
    return 0;
}
