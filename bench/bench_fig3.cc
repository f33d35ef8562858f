/**
 * @file
 * Reproduces paper Figure 3: the first two levels of the Top-Down
 * breakdown for an S1 leaf on PLT1. The paper's headline: only 32% of
 * issue slots retire; back-end memory (20.5%), branch mispredictions
 * (15.4%) and front-end latency (13.8%) dominate the waste.
 */

#include <cstdio>

#include "common.hh"
#include "util/table.hh"

namespace wsearch {
namespace {

void
runFig3(const bench::Args &args)
{
    bench::banner("Figure 3", "Top-Down breakdown of an S1 leaf on PLT1",
                  args.smoke);
    const RunOptions opt = bench::baseOptions(args, 16, 24'000'000);
    const SystemResult r =
        runWorkloadSweep(WorkloadProfile::s1Leaf(),
                         PlatformConfig::plt1(), {opt},
                         bench::sweepControl(
                             args, recordBudget(opt).total()))
            .front();
    const TopDown &td = r.topdown;

    Table t({"Category", "Measured", "Paper"});
    t.addRow({"Retiring", Table::fmtPct(td.retiringFrac(), 1), "32.0%"});
    t.addRow({"Bad speculation", Table::fmtPct(td.badSpecFrac(), 1),
              "15.4%"});
    t.addRow({"Front-end: latency", Table::fmtPct(td.feLatFrac(), 1),
              "13.8%"});
    t.addRow({"Front-end: bandwidth", Table::fmtPct(td.feBwFrac(), 1),
              "9.7%"});
    t.addRow({"Back-end: memory", Table::fmtPct(td.beMemFrac(), 1),
              "20.5%"});
    t.addRow({"Back-end: core", Table::fmtPct(td.beCoreFrac(), 1),
              "8.5%"});
    t.print();
    std::printf("\nPer-thread IPC: %.2f (paper: 1.27)\n",
                r.ipcPerThread);

    // The paper's §II-F upper bound: converting all back-end memory
    // slots into retiring slots would gain ~64%.
    const double upper = td.beMemFrac() / td.retiringFrac();
    std::printf("Upper-bound gain from eliminating memory stalls: "
                "%.0f%% (paper: ~64%%)\n", upper * 100.0);
}

} // namespace
} // namespace wsearch

int
main(int argc, char **argv)
{
    wsearch::runFig3(wsearch::bench::parseArgs(argc, argv));
    return 0;
}
