/**
 * @file
 * Reproduces paper Figures 8a/8b: IPC as a function of L3 hit rate
 * (varied with CAT way-partitioning) and of L3 AMAT, plus the linear
 * refit of the paper's Eq. 1 (IPC = -8.62e-3 * AMAT + 1.78). The
 * linearity is the paper's evidence of low memory-level parallelism,
 * and the fitted model powers all the §IV design-space evaluations.
 *
 * Two sections:
 *   scaled   the CAT ladder (2..20 ways) on the 1/32-scale L3,
 *            replayed exactly -- the continuity rows
 *            scripts/bench_diff.py gates.
 *   nominal  a ways subset on the REAL 45 MiB L3 at full nominal
 *            working-set sizes under clustered representative
 *            sampling; every row carries its confidence band.
 *
 * Emits BENCH_fig8.json (see bench::Artifact) for bench_all.sh
 * aggregation and bench_diff.py gating.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common.hh"
#include "core/amat_model.hh"
#include "util/table.hh"

namespace wsearch {
namespace {

void
addWayRow(bench::Artifact &art, const char *section, uint32_t ways,
          uint64_t sim_bytes, const SystemResult &r)
{
    art.row()
        .key("section", section)
        .key("ways", ways)
        .add("l3_sim_bytes", sim_bytes)
        .counter("instructions", r.instructions)
        .counter("l3_accesses", r.l3.totalAccesses())
        .counter("l3_misses", r.l3.totalMisses())
        .add("data_hit", r.l3DataHitRate())
        .add("amat_ns", r.amatL3Ns)
        .add("ipc", r.ipcPerThread)
        .counter("sampled_windows", r.sampledWindows)
        .counter("represented_windows", r.representedWindows)
        .add("band_lo", r.l3MissBandLo())
        .add("band_hi", r.l3MissBandHi())
        .add("band_rel", r.bandRelHalfWidth());
}

void
printWayTable(const PlatformConfig &plt1,
              const std::vector<uint32_t> &way_counts,
              const std::vector<SystemResult> &results, bool banded)
{
    std::vector<std::string> cols = {"CAT ways", "L3 (paper-eq)",
                                     "L3 data hit rate", "AMAT (ns)",
                                     "IPC"};
    if (banded)
        cols.push_back("LLC miss band (95%)");
    Table t(cols);
    for (size_t i = 0; i < way_counts.size(); ++i) {
        const SystemResult &r = results[i];
        std::vector<std::string> row = {
            Table::fmtInt(way_counts[i]),
            formatBytes(plt1.l3Bytes / 20 * way_counts[i]),
            Table::fmtPct(r.l3DataHitRate(), 1),
            Table::fmt(r.amatL3Ns, 1), Table::fmt(r.ipcPerThread, 3)};
        if (banded) {
            char buf[64];
            std::snprintf(buf, sizeof buf, "%.3g..%.3g (+-%.1f%%)",
                          r.l3MissBandLo(), r.l3MissBandHi(),
                          100.0 * r.bandRelHalfWidth());
            row.push_back(buf);
        }
        t.addRow(row);
    }
    t.print();
}

int
runFig8(const bench::Args &args)
{
    bench::Artifact art("fig8", args.smoke);
    bench::banner("Figure 8",
                  "IPC vs L3 hit rate / AMAT via CAT partitioning "
                  "(1/32-scale ladder + clustered nominal-scale "
                  "points)",
                  args.smoke);
    const PlatformConfig plt1 = PlatformConfig::plt1();
    // CAT on the 45 MiB L3 is exercised at 1/32 scale on the sweep
    // profile (see DESIGN.md: GiB-era locality cannot be warmed at
    // native rates within feasible trace lengths).
    const WorkloadProfile prof = WorkloadProfile::s1LeafSweep();
    const uint32_t scale = prof.sweepScale;

    art.config("cores", 16);

    // --- scaled: the CAT ladder at 1/32 scale, exact replay ---
    std::vector<uint32_t> way_counts;
    std::vector<RunOptions> options;
    for (uint32_t ways = 2; ways <= 20; ways += 2) {
        RunOptions opt = bench::baseOptions(args, 16, 16'000'000, 32'000'000);
        opt.l3Bytes = plt1.l3Bytes / scale;
        opt.l3PartitionWays = ways;
        way_counts.push_back(ways);
        options.push_back(opt);
    }
    art.config("scaled_measure_records", recordBudget(options[0]).measure)
        .config("scaled_warmup_records", recordBudget(options[0]).warmup);
    const std::vector<SystemResult> results = runWorkloadSweep(
        prof, plt1, options,
        bench::sweepControl(args, recordBudget(options[0]).total()));
    printWayTable(plt1, way_counts, results, false);

    std::vector<double> amats, ipcs;
    for (const SystemResult &r : results) {
        amats.push_back(r.amatL3Ns);
        ipcs.push_back(r.ipcPerThread);
    }
    const IpcModel fitted = IpcModel::fit(amats, ipcs);
    const LinearFit quality = fitLinear(amats, ipcs);
    std::printf("\nFitted linear model: IPC = %.3e * AMAT + %.3f "
                "(r^2 = %.4f)\n",
                fitted.slope, fitted.intercept, quality.r2);
    std::printf("Paper Eq. 1:         IPC = -8.620e-03 * AMAT + 1.780\n");
    std::printf("The strong linear fit (r^2 ~ 1) reproduces the "
                "paper's low-MLP conclusion; slope magnitude depends "
                "on the calibrated exposure factors.\n\n");
    art.add("fit_slope", fitted.slope)
        .add("fit_intercept", fitted.intercept)
        .add("fit_r2", quality.r2);

    // --- nominal: a ways subset on the REAL 45 MiB L3 at full
    //     paper-scale working sets under clustered sampling ---
    const WorkloadProfile nominal = prof.atNominalScale();
    std::vector<uint32_t> nom_ways;
    if (args.smoke)
        nom_ways = {4, 20};
    else
        nom_ways = {2, 8, 14, 20};
    std::vector<RunOptions> nom_options;
    for (const uint32_t ways : nom_ways) {
        RunOptions opt = bench::baseOptions(args, 16, 24'000'000, 12'000'000);
        opt.l3Bytes = plt1.l3Bytes;
        opt.l3PartitionWays = ways;
        nom_options.push_back(opt);
    }
    const RecordBudget nom_budget = recordBudget(nom_options[0]);
    const SweepControl nom_control =
        bench::clusteredControl(args, nom_budget.total());
    art.config("nominal_measure_records", nom_budget.measure)
        .config("nominal_warmup_records", nom_budget.warmup)
        .config("sampling_policy", samplingPolicyName(nom_control.policy))
        .config("sample_window_records", nom_control.rep.windowRecords)
        .config("sample_clusters", nom_control.rep.sampleWindows)
        .config("sample_seed", sampleSeed(nom_control.rep.seed));

    std::printf("Nominal-scale points (%s sampling; full 45 MiB L3, "
                "%s heap tail, %s shard span)\n",
                samplingPolicyName(nom_control.policy),
                formatBytes(nominal.heapWorkingSetBytes).c_str(),
                formatBytes(nominal.shardSpanBytes).c_str());
    const std::vector<SystemResult> nom_results =
        runWorkloadSweep(nominal, plt1, nom_options, nom_control);
    printWayTable(plt1, nom_ways, nom_results, true);

    for (size_t i = 0; i < way_counts.size(); ++i)
        addWayRow(art, "scaled", way_counts[i], plt1.l3Bytes / scale,
                  results[i]);
    for (size_t i = 0; i < nom_ways.size(); ++i)
        addWayRow(art, "nominal", nom_ways[i], plt1.l3Bytes,
                  nom_results[i]);
    return art.finish();
}

} // namespace
} // namespace wsearch

int
main(int argc, char **argv)
{
    return wsearch::runFig8(wsearch::bench::parseArgs(argc, argv));
}
