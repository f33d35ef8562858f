/**
 * @file
 * Reproduces paper Figure 2b: SMT throughput improvement. PLT1
 * (Haswell) SMT-2 gives ~37%; PLT2 (POWER8) gives ~76% at SMT-2 up to
 * ~3.24x at SMT-8. Cache contention between hardware threads is
 * simulated (threads share L1/L2); the issue model converts the
 * contention-adjusted per-thread IPC into core throughput.
 */

#include <cstdio>

#include <algorithm>
#include <vector>

#include "common.hh"
#include "cpu/smt.hh"
#include "util/table.hh"

namespace wsearch {
namespace {

void
runPlatform(const PlatformConfig &plt, const std::vector<uint32_t> &smt,
            const std::vector<double> &paper_speedups,
            const bench::Args &args, Table &t)
{
    const WorkloadProfile prof = WorkloadProfile::s1Leaf();
    const uint32_t cores = 8;

    std::vector<RunOptions> options;
    for (const uint32_t m : smt) {
        // Cache contention is simulated up to SMT-2; beyond that the
        // fine-grained timing interleaving (which a functional model
        // cannot capture) offsets further contention, so the issue
        // model's eta factors carry the remainder.
        const uint32_t ways = std::min(m, 2u);
        RunOptions opt = bench::baseOptions(
            args, cores, 2'000'000ull * cores * ways);
        opt.smtWays = ways;
        options.push_back(opt);
    }
    const std::vector<SystemResult> results = runWorkloadSweep(
        prof, plt, options,
        bench::sweepControl(args, recordBudget(options.back()).total()));

    double base_core_ipc = 0;
    for (size_t i = 0; i < smt.size(); ++i) {
        const uint32_t m = smt[i];
        const SystemResult &r = results[i];
        const double core_ipc =
            smtCoreIpc(r.ipcPerThread, plt.width, m, plt.smt);
        if (m == 1)
            base_core_ipc = core_ipc;
        const double speedup = core_ipc / base_core_ipc;
        t.addRow({plt.name, "SMT-" + std::to_string(m),
                  Table::fmt(r.ipcPerThread, 3),
                  Table::fmt(core_ipc, 3), Table::fmt(speedup, 2),
                  paper_speedups[i] > 0 ? Table::fmt(paper_speedups[i], 2)
                                        : std::string("-")});
    }
}

void
runFig2b(const bench::Args &args)
{
    bench::banner("Figure 2b",
                  "SMT throughput (threads share L1/L2; contention "
                  "emergent)",
                  args.smoke);
    Table t({"Platform", "SMT", "IPC/thread", "Core IPC",
             "Speedup vs SMT-1", "(paper)"});
    runPlatform(PlatformConfig::plt1(), {1, 2}, {1.0, 1.37}, args, t);
    runPlatform(PlatformConfig::plt2(), {1, 2, 4, 8},
                {1.0, 1.76, 2.5, 3.24}, args, t);
    t.print();
}

} // namespace
} // namespace wsearch

int
main(int argc, char **argv)
{
    wsearch::runFig2b(wsearch::bench::parseArgs(argc, argv));
    return 0;
}
