/**
 * @file
 * Reproduces paper Figure 2a: search throughput (QPS) scaling with
 * core count, SMT off, on a 4-socket PLT1-class system (8 to 72
 * cores). Near-perfect scaling is the paper's evidence that search is
 * not limited by sharing, shared-cache bandwidth, or I/O.
 *
 * QPS is modeled as cores x per-thread IPC; the L3 per socket is
 * constant, so L3 capacity per core varies exactly as on the real
 * machine (the paper notes the impact is small).
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "common.hh"
#include "util/table.hh"

namespace wsearch {
namespace {

void
runFig2a(const bench::Args &args)
{
    bench::banner("Figure 2a",
                  "Search throughput scaling with core count (SMT off)",
                  args.smoke);
    const PlatformConfig plt1 = PlatformConfig::plt1();
    const WorkloadProfile prof = WorkloadProfile::s1Leaf();

    const std::vector<uint32_t> core_counts = {8,  16, 24, 32, 40,
                                               48, 56, 64, 72};
    std::vector<uint32_t> per_socket_counts;
    std::vector<RunOptions> options;
    uint64_t max_records = 0;
    for (const uint32_t cores : core_counts) {
        // Sockets are share-nothing for search (disjoint threads,
        // private 45 MiB L3 per socket): simulate one socket's share
        // and scale linearly across sockets, exactly like the real
        // 4-socket system.
        const uint32_t sockets = (cores + 17) / 18;
        const uint32_t per_socket = cores / sockets;
        per_socket_counts.push_back(per_socket);
        options.push_back(bench::baseOptions(
            args, per_socket, 2'000'000ull * per_socket));
        max_records =
            std::max(max_records, recordBudget(options.back()).total());
    }
    const std::vector<SystemResult> results = runWorkloadSweep(
        prof, plt1, options, bench::sweepControl(args, max_records));

    Table t({"Cores", "Cores/socket", "Per-thread IPC",
             "Normalized QPS", "Scaling efficiency"});
    double qps8 = 0;
    for (size_t i = 0; i < core_counts.size(); ++i) {
        const uint32_t cores = core_counts[i];
        const SystemResult &r = results[i];
        const double qps = cores * r.ipcPerThread;
        if (qps8 == 0)
            qps8 = qps;
        t.addRow({Table::fmtInt(cores),
                  Table::fmtInt(per_socket_counts[i]),
                  Table::fmt(r.ipcPerThread, 3),
                  Table::fmt(qps / qps8, 2),
                  Table::fmtPct(qps / qps8 / (cores / 8.0), 1)});
    }
    t.print();
    std::printf("\nPaper: near-perfect linear scaling to 72 cores "
                "(9x at 72 vs 8).\n");
}

} // namespace
} // namespace wsearch

int
main(int argc, char **argv)
{
    wsearch::runFig2a(wsearch::bench::parseArgs(argc, argv));
    return 0;
}
