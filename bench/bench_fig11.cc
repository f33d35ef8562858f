/**
 * @file
 * Reproduces paper Figure 11: decomposition of the cache-for-cores
 * trade-off into its two opposing components -- the QPS gained from
 * the extra cores and the QPS lost to the smaller L3 -- as L3
 * capacity per core is repurposed. The widening gap between the two
 * curves down to c = 1 MiB/core is the insight motivating the
 * optimization.
 */

#include <cstdio>
#include <vector>

#include "common.hh"
#include "core/optimizer.hh"
#include "util/table.hh"

namespace wsearch {
namespace {

void
runFig11(const bench::Args &args)
{
    bench::banner("Figure 11", "Cores-gain vs cache-loss decomposition",
                  args.smoke);
    const WorkloadProfile prof = WorkloadProfile::s1LeafSweep();
    std::vector<uint64_t> paper_sizes = {4608ull * KiB};
    for (uint64_t mib = 9; mib <= 45; mib += 9)
        paper_sizes.push_back(mib * MiB);

    std::vector<RunOptions> options;
    for (const uint64_t paper : paper_sizes) {
        RunOptions opt =
            bench::baseOptions(args, 18, 12'000'000, 30'000'000);
        opt.smtWays = 2;
        opt.l3Bytes = paper / prof.sweepScale;
        options.push_back(opt);
    }
    const std::vector<SystemResult> results = runWorkloadSweep(
        prof, PlatformConfig::plt1(), options,
        bench::sweepControl(args, recordBudget(options[0]).total()));
    HitRateCurve curve;
    for (size_t i = 0; i < paper_sizes.size(); ++i)
        curve.addPoint(paper_sizes[i], results[i].l3DataHitRate());

    CacheForCoresOptimizer optimizer(AreaModel{}, AmatModel{},
                                     IpcModel::paperEq1(), curve);
    Table t({"L3 MiB/core", "Gain from cores", "Loss from cache",
             "Net (ideal)"});
    for (const TradeoffPoint &p : optimizer.sweep()) {
        t.addRow({Table::fmt(p.l3MibPerCore, 2),
                  Table::fmtPct(p.gainFromCores, 1),
                  Table::fmtPct(p.lossFromCache, 1),
                  Table::fmtPct(p.qpsIdeal, 1)});
    }
    t.print();
    std::printf("\nPaper: the cores curve rises faster than the cache "
                "curve falls until ~1 MiB/core, where the net gap is "
                "maximal; below that the cache loss accelerates.\n");
}

} // namespace
} // namespace wsearch

int
main(int argc, char **argv)
{
    wsearch::runFig11(wsearch::bench::parseArgs(argc, argv));
    return 0;
}
