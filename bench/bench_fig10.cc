/**
 * @file
 * Reproduces paper Figure 10: search performance when trading L3
 * capacity for cores at constant area, for c = 2.25 .. 0.5 MiB of L3
 * per core, in ideal (fractional cores) and quantized variants, with
 * SMT on and off. The paper's optimum: c = 1 MiB/core -> 23 cores,
 * +14% QPS over the 18-core, 2.5 MiB/core baseline (SMT on).
 *
 * Inputs: the simulated L3 hit-rate curve (SMT-on and SMT-off
 * variants) + the paper's Eq. 1 IPC model + the area model. Each
 * curve's capacity points replay one shared trace buffer in parallel.
 */

#include <cstdio>
#include <vector>

#include "common.hh"
#include "core/optimizer.hh"
#include "util/table.hh"

namespace wsearch {
namespace {

HitRateCurve
curveFor(uint32_t smt_ways, const bench::Args &args)
{
    // Hit rates measured on the 1/32-scale sweep profile; the curve
    // is keyed by paper-equivalent capacity.
    const WorkloadProfile prof = WorkloadProfile::s1LeafSweep();
    std::vector<uint64_t> paper_sizes = {4608ull * KiB,
                                         13824ull * KiB};
    for (uint64_t mib = 9; mib <= 45; mib += 9)
        paper_sizes.push_back(mib * MiB);

    std::vector<RunOptions> options;
    for (const uint64_t paper : paper_sizes) {
        RunOptions opt =
            bench::baseOptions(args, 18, 12'000'000, 30'000'000);
        opt.smtWays = smt_ways;
        opt.l3Bytes = paper / prof.sweepScale;
        options.push_back(opt);
    }
    const std::vector<SystemResult> results = runWorkloadSweep(
        prof, PlatformConfig::plt1(), options,
        bench::sweepControl(args, recordBudget(options[0]).total()));
    HitRateCurve curve;
    for (size_t i = 0; i < paper_sizes.size(); ++i)
        curve.addPoint(paper_sizes[i], results[i].l3DataHitRate());
    return curve;
}

void
runFig10(const bench::Args &args)
{
    bench::banner("Figure 10", "Trading L3 capacity for cores (iso-area)",
                  args.smoke);
    const AmatModel amat;
    const IpcModel eq1 = IpcModel::paperEq1();
    const AreaModel area;

    for (const uint32_t smt : {2u, 1u}) {
        const HitRateCurve curve = curveFor(smt, args);
        CacheForCoresOptimizer optimizer(area, amat, eq1, curve);
        std::printf("--- SMT %s ---\n", smt == 2 ? "on" : "off");
        Table t({"L3 MiB/core", "Cores (ideal)", "Cores (quant)",
                 "dQPS ideal", "dQPS quantized"});
        for (const TradeoffPoint &p : optimizer.sweep()) {
            t.addRow({Table::fmt(p.l3MibPerCore, 2),
                      Table::fmt(p.coresIdeal, 1),
                      Table::fmtInt(p.coresQuantized),
                      Table::fmtPct(p.qpsIdeal, 1),
                      Table::fmtPct(p.qpsQuantized, 1)});
        }
        t.print();
        const TradeoffPoint best = optimizer.best();
        std::printf("Best quantized design: %.2f MiB/core, %u cores, "
                    "%+.1f%% QPS\n\n", best.l3MibPerCore,
                    best.coresQuantized, best.qpsQuantized * 100.0);
        std::fflush(stdout);
    }
    std::printf("Paper: optimum c = 1 MiB/core with 23 cores, +14%% "
                "(SMT on); SMT-off benefits slightly higher.\n");
}

} // namespace
} // namespace wsearch

int
main(int argc, char **argv)
{
    wsearch::runFig10(wsearch::bench::parseArgs(argc, argv));
    return 0;
}
