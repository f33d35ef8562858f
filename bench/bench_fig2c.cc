/**
 * @file
 * Reproduces paper Figure 2c: throughput impact of huge pages (~10%
 * on both platforms, from eliminated TLB walks over a near-all-of-
 * memory footprint) and of hardware prefetchers (+5% on PLT1; slight
 * degradation on PLT2, whose 128 B blocks already capture the spatial
 * locality the prefetchers would fetch).
 */

#include <cstdio>
#include <vector>

#include "common.hh"
#include "util/table.hh"

namespace wsearch {
namespace {

void
runFig2c(const bench::Args &args)
{
    bench::banner("Figure 2c", "Huge pages and hardware prefetching",
                  args.smoke);
    Table t({"Platform", "Feature", "QPS improvement", "(paper)"});

    for (const PlatformConfig &plt :
         {PlatformConfig::plt1(), PlatformConfig::plt2()}) {
        RunOptions base = bench::baseOptions(args, 8, 16'000'000);
        base.modelTlb = true;
        base.hugePages = false;

        // Huge pages: 4K->2M on PLT1, 64K->16M on PLT2. Prefetchers
        // are evaluated with huge pages on (as deployed); its "off"
        // baseline is the huge-pages run itself.
        RunOptions huge = base;
        huge.hugePages = true;
        RunOptions pf_on = huge;
        pf_on.prefetch = plt.prefetchEngine;

        const std::vector<SystemResult> results =
            runWorkloadSweep(WorkloadProfile::s1Leaf(), plt,
                             {base, huge, pf_on},
                             bench::sweepControl(
                                 args, recordBudget(base).total()));
        auto qps = [&](const SystemResult &r) {
            return base.cores * r.ipcPerThread;
        };
        const double q_base = qps(results[0]);
        const double q_huge = qps(results[1]);
        const double q_pf = qps(results[2]);
        t.addRow({plt.name, "Huge pages",
                  Table::fmtPct(q_huge / q_base - 1.0, 1),
                  plt.name == "PLT1" ? "~10%" : "~9%"});
        t.addRow({plt.name, "HW prefetchers",
                  Table::fmtPct(q_pf / q_huge - 1.0, 1),
                  plt.name == "PLT1" ? "~5%" : "slightly negative"});
        std::fflush(stdout);
    }
    t.print();
}

} // namespace
} // namespace wsearch

int
main(int argc, char **argv)
{
    wsearch::runFig2c(wsearch::bench::parseArgs(argc, argv));
    return 0;
}
