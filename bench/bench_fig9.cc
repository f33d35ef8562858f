/**
 * @file
 * Reproduces paper Figure 9: search throughput vs "L3-equivalent
 * area" for every combination of core count (4..18) and CAT-enabled
 * L3 ways (2..20 of the 45 MiB, 20-way L3). One core ~ 4 MiB of L3
 * (paper's die-photo estimate). The paper's observations: at equal
 * area, designs with more cores and ~1 MiB/core of L3 beat the
 * default 2.5 MiB/core ratio, but capacities below the instruction
 * working set (~18 MiB total) are detrimental.
 *
 * Two sections:
 *   scaled   the full 100-configuration grid at 1/32 scale, replayed
 *            exactly -- the sweep engine's showcase (one shared trace
 *            buffer per core count, every CAT partitioning replayed
 *            concurrently) and the continuity rows
 *            scripts/bench_diff.py gates.
 *   nominal  the paper's highlighted equal-area comparison points on
 *            the REAL 45 MiB L3 at full nominal working-set sizes
 *            under clustered representative sampling, bands attached.
 *
 * Emits BENCH_fig9.json (see bench::Artifact) for bench_all.sh
 * aggregation and bench_diff.py gating.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common.hh"
#include "core/area_model.hh"
#include "util/table.hh"

namespace wsearch {
namespace {

struct Point
{
    uint32_t cores, ways;
};

void
addGridRow(bench::Artifact &art, const char *section, const Point &p,
           uint64_t sim_bytes, const SystemResult &r)
{
    art.row()
        .key("section", section)
        .key("cores", p.cores)
        .key("ways", p.ways)
        .add("l3_sim_bytes", sim_bytes)
        .counter("instructions", r.instructions)
        .counter("l3_accesses", r.l3.totalAccesses())
        .counter("l3_misses", r.l3.totalMisses())
        .add("ipc", r.ipcPerThread)
        .counter("sampled_windows", r.sampledWindows)
        .counter("represented_windows", r.representedWindows)
        .add("band_lo", r.l3MissBandLo())
        .add("band_hi", r.l3MissBandHi())
        .add("band_rel", r.bandRelHalfWidth());
}

int
runFig9(const bench::Args &args)
{
    bench::Artifact art("fig9", args.smoke);
    bench::banner("Figure 9",
                  "QPS vs L3-equivalent area (cores x CAT ways; "
                  "1/32-scale grid + clustered nominal-scale "
                  "highlight points)",
                  args.smoke);
    const PlatformConfig plt1 = PlatformConfig::plt1();
    const WorkloadProfile prof = WorkloadProfile::s1LeafSweep();
    const AreaModel area;

    // --- scaled: the full grid at 1/32 scale, exact replay ---
    const uint32_t core_counts[] = {4, 6, 8, 9, 10, 11, 12, 14, 16, 18};
    std::vector<Point> points;
    std::vector<RunOptions> options;
    for (const uint32_t cores : core_counts) {
        for (uint32_t ways = 2; ways <= 20; ways += 2) {
            RunOptions opt =
                bench::baseOptions(args, cores, 8'000'000, 24'000'000);
            opt.l3Bytes = plt1.l3Bytes / prof.sweepScale;
            opt.l3PartitionWays = ways;
            points.push_back({cores, ways});
            options.push_back(opt);
        }
    }
    art.config("scaled_measure_records", recordBudget(options[0]).measure)
        .config("scaled_warmup_records", recordBudget(options[0]).warmup);
    const std::vector<SystemResult> results = runWorkloadSweep(
        prof, plt1, options,
        bench::sweepControl(args, recordBudget(options[0]).total()));

    Table t({"Cores", "L3 ways", "L3 MiB", "MiB/core",
             "Area (L3-eq MiB)", "Norm. QPS"});
    double qps_ref = 0; // 4 cores, 2 ways
    double qps_9c10w = 0, qps_11c6w = 0, qps_18c4w = 0, qps_16c8w = 0;
    for (size_t i = 0; i < points.size(); ++i) {
        const uint32_t cores = points[i].cores;
        const uint32_t ways = points[i].ways;
        const double qps = cores * results[i].ipcPerThread;
        if (qps_ref == 0)
            qps_ref = qps;
        if (cores == 9 && ways == 10)
            qps_9c10w = qps;
        if (cores == 11 && ways == 6)
            qps_11c6w = qps;
        if (cores == 18 && ways == 4)
            qps_18c4w = qps;
        if (cores == 16 && ways == 8)
            qps_16c8w = qps;
        const double l3_mib = 45.0 * ways / 20.0;
        t.addRow({Table::fmtInt(cores), Table::fmtInt(ways),
                  Table::fmt(l3_mib, 2),
                  Table::fmt(l3_mib / cores, 2),
                  Table::fmt(area.area(cores, l3_mib / cores), 1),
                  Table::fmt(qps / qps_ref, 2)});
    }
    t.print();
    std::printf("\nPaper's highlighted equal-area comparisons:\n");
    std::printf("  ~58 L3-eq MiB: 9-core/10-way QPS %.2f vs "
                "11-core/6-way QPS %.2f (paper: 11-core wins)\n",
                qps_9c10w / qps_ref, qps_11c6w / qps_ref);
    std::printf("  ~82 L3-eq MiB: 18-core/4-way (0.5 MiB/core) QPS "
                "%.2f vs 16-core/8-way QPS %.2f (paper: starving the "
                "L3 below the instruction working set loses)\n\n",
                qps_18c4w / qps_ref, qps_16c8w / qps_ref);

    // --- nominal: the highlighted equal-area points on the real
    //     45 MiB L3 at full paper-scale working sets ---
    const WorkloadProfile nominal = prof.atNominalScale();
    std::vector<Point> nom_points;
    if (args.smoke)
        nom_points = {{9, 10}, {11, 6}};
    else
        nom_points = {{9, 10}, {11, 6}, {18, 4}, {16, 8}};
    std::vector<RunOptions> nom_options;
    for (const Point &p : nom_points) {
        RunOptions opt =
            bench::baseOptions(args, p.cores, 16'000'000, 8'000'000);
        opt.l3Bytes = plt1.l3Bytes;
        opt.l3PartitionWays = p.ways;
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

    std::printf("Nominal-scale equal-area points (%s sampling; full "
                "45 MiB L3)\n",
                samplingPolicyName(nom_control.policy));
    const std::vector<SystemResult> nom_results =
        runWorkloadSweep(nominal, plt1, nom_options, nom_control);
    // Normalize within the section: the nominal profile's absolute
    // IPC is not comparable to the 1/32-scale grid's.
    const double nom_ref =
        nom_points[0].cores * nom_results[0].ipcPerThread;
    Table nt({"Cores", "L3 ways", "Norm. QPS",
              "LLC miss band (95%)"});
    for (size_t i = 0; i < nom_points.size(); ++i) {
        const SystemResult &r = nom_results[i];
        const double qps = nom_points[i].cores * r.ipcPerThread;
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.3g..%.3g (+-%.1f%%)",
                      r.l3MissBandLo(), r.l3MissBandHi(),
                      100.0 * r.bandRelHalfWidth());
        nt.addRow({Table::fmtInt(nom_points[i].cores),
                   Table::fmtInt(nom_points[i].ways),
                   Table::fmt(nom_ref > 0 ? qps / nom_ref : 0.0, 2),
                   buf});
    }
    nt.print();

    for (size_t i = 0; i < points.size(); ++i)
        addGridRow(art, "scaled", points[i],
                   plt1.l3Bytes / prof.sweepScale, results[i]);
    for (size_t i = 0; i < nom_points.size(); ++i)
        addGridRow(art, "nominal", nom_points[i], plt1.l3Bytes,
                   nom_results[i]);
    return art.finish();
}

} // namespace
} // namespace wsearch

int
main(int argc, char **argv)
{
    return wsearch::runFig9(wsearch::bench::parseArgs(argc, argv));
}
