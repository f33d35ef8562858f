/**
 * @file
 * Reproduces paper Figure 14 and the §IV-C headline numbers: QPS
 * improvement over the 18-core / 45 MiB PLT1 baseline when combining
 * the L3-for-cores rebalancing (23 cores, 1 MiB/core) with the
 * latency-optimized eDRAM L4, across four scenarios:
 *   Baseline     40 ns L4 hit, parallel tag check (no miss penalty)
 *   Pessimistic  60 ns hit, +5 ns serialized miss
 *   Associative  fully-associative L4 (conflict-miss sensitivity)
 *   Future       +10% memory latency and +10% last-level misses
 * Paper: +14% from rightsizing alone; +27% with a 1 GiB L4; +30% at
 * 8 GiB; +38% in the future scenario. Also checks the synergy note:
 * the smaller L3 makes the L4 hotter.
 *
 * Methodology: L3 hit rates and the composition of the L3-miss stream
 * come from the Table-I-calibrated native profile (directly
 * simulable at 23/45 MiB); the GiB-scale L4's per-kind hit rates come
 * from the 1/32-scale sweep profile and are reweighted by the native
 * miss composition. The QPS model is the paper's Eq. 1.
 *
 * All 15 simulator configurations (two L3 points, two 6-point L4
 * curves, the synergy run) share one trace buffer and replay it
 * concurrently through the sweep engine.
 */

#include <cstdio>
#include <vector>

#include "common.hh"
#include "core/l4_evaluator.hh"
#include "util/table.hh"

namespace wsearch {
namespace {

struct NativePoint
{
    double hitL3 = 0;
    double missShare[kNumAccessKinds] = {}; ///< L3-miss composition
};

NativePoint
nativePoint(const SystemResult &r)
{
    NativePoint p;
    p.hitL3 = r.l3DataHitRate();
    const double total = static_cast<double>(r.l3.totalMisses());
    for (uint32_t k = 0; k < kNumAccessKinds; ++k)
        p.missShare[k] = total > 0 ? r.l3.misses[k] / total : 0.0;
    return p;
}

void
runFig14(const bench::Args &args)
{
    bench::banner("Figure 14", "Combined L4 + cache-for-cores evaluation",
                  args.smoke);
    const WorkloadProfile sweep = WorkloadProfile::s1LeafSweep();
    const PlatformConfig plt1 = PlatformConfig::plt1();
    const uint32_t scale = sweep.sweepScale;
    const std::vector<uint64_t> l4_paper_sizes = {
        128 * MiB, 256 * MiB, 512 * MiB, 1 * GiB, 2 * GiB, 8 * GiB};

    // One batch for every configuration this figure needs.
    auto base = [&] {
        return bench::baseOptions(args, 16, 20'000'000, 48'000'000);
    };
    std::vector<RunOptions> options;
    // [0], [1]: the two L3 designs.
    for (const uint64_t paper : {45 * MiB, 23 * MiB}) {
        RunOptions opt = base();
        opt.l3Bytes = paper / scale;
        options.push_back(opt);
    }
    // [2..7] direct-mapped and [8..13] fully-associative L4 curves.
    for (const bool assoc : {false, true}) {
        for (const uint64_t paper_size : l4_paper_sizes) {
            RunOptions opt = base();
            opt.l3Bytes = (23 * MiB) / scale;
            opt.l4 = cache_gen_victim(paper_size / scale, 64, assoc);
            options.push_back(opt);
        }
    }
    // [14]: the synergy check (same L4 behind the bigger L3).
    {
        RunOptions syn = base();
        syn.l3Bytes = (45 * MiB) / scale;
        syn.l4 = cache_gen_victim((1 * GiB) / scale, 64);
        options.push_back(syn);
    }
    const std::vector<SystemResult> results = runWorkloadSweep(
        sweep, plt1, options,
        bench::sweepControl(args, recordBudget(options[0]).total()));

    // 1. L3 behaviour at the two designs (sweep scale).
    const NativePoint base45 = nativePoint(results[0]);
    const NativePoint right23 = nativePoint(results[1]);
    std::printf("hL3(data): baseline(45 MiB-eq) = %.3f, rightsized"
                "(23 MiB-eq) = %.3f\n", base45.hitL3, right23.hitL3);
    std::printf("L3-miss composition (23 MiB-eq): code %.0f%%, "
                "heap %.0f%%, shard %.0f%%\n",
                100 * right23.missShare[0], 100 * right23.missShare[1],
                100 * right23.missShare[2]);

    // 2. L4 hit rates from the sweep profile (data accesses).
    L4EvalInputs in;
    in.baselineHitL3 = base45.hitL3;
    in.rightsizedHitL3 = right23.hitL3;
    for (size_t i = 0; i < l4_paper_sizes.size(); ++i) {
        in.l4Direct.addPoint(l4_paper_sizes[i],
                             results[2 + i].l4.hitRateTotal());
        in.l4Assoc.addPoint(l4_paper_sizes[i],
                            results[8 + i].l4.hitRateTotal());
    }
    std::printf("Reweighted L4 hit rate at 1 GiB: %.1f%% (paper: "
                "filters ~50%% of DRAM accesses)\n\n",
                100.0 * in.l4Direct.hitRate(1 * GiB));

    const AmatModel amat;
    const L4Evaluator eval(in, amat, IpcModel::paperEq1());

    std::printf("Rightsizing alone (23 cores, 23 MiB L3): %+.1f%% "
                "(paper: +14%%)\n\n",
                eval.rightsizeOnlyImprovement() * 100.0);

    Table t({"Scenario", "128 MiB", "256 MiB", "512 MiB", "1 GiB",
             "2 GiB"});
    for (const L4Scenario &sc :
         {L4Scenario::baseline(), L4Scenario::pessimistic(),
          L4Scenario::associativeL4(), L4Scenario::futureGen()}) {
        std::vector<std::string> row = {sc.name};
        for (const uint64_t size :
             {128 * MiB, 256 * MiB, 512 * MiB, 1 * GiB, 2 * GiB}) {
            row.push_back(
                Table::fmtPct(eval.improvement(sc, size), 1));
        }
        t.addRow(row);
    }
    t.print();

    std::printf("\nHeadlines: 1 GiB baseline %+.1f%% (paper +27%%); "
                "8 GiB %+.1f%% (paper +30%%); future 1 GiB %+.1f%% "
                "(paper +38%%).\n",
                eval.improvement(L4Scenario::baseline(), 1 * GiB) * 100,
                eval.improvement(L4Scenario::baseline(), 8 * GiB) * 100,
                eval.improvement(L4Scenario::futureGen(), 1 * GiB) *
                    100);

    // Synergy check (§IV-C): with the bigger 45 MiB-eq L3 in front,
    // the same L4 sees colder traffic and hits less.
    const SystemResult &r_big = results[14];
    std::printf("\nSynergy: 1 GiB L4 hit rate behind 23 MiB L3 = "
                "%.1f%%, behind 45 MiB L3 = %.1f%% (paper: ~10%% "
                "hotter behind the rightsized L3).\n",
                100.0 * in.l4Direct.hitRate(1 * GiB),
                100.0 * r_big.l4.hitRateTotal());
}

} // namespace
} // namespace wsearch

int
main(int argc, char **argv)
{
    wsearch::runFig14(wsearch::bench::parseArgs(argc, argv));
    return 0;
}
