/**
 * @file
 * Reproduces paper Figure 13: hit rate and MPKI of the proposed
 * direct-mapped, memory-side (victim) eDRAM L4 cache as capacity
 * sweeps, behind the rightsized 23 MiB L3. The paper's landmarks:
 * 1 GiB captures most of the heap locality; the remaining misses are
 * dominated by the shard; heap hit rate trends toward ~90% at the top
 * capacities. Two sections:
 *
 *   scaled   the established 1/32-scale ladder (2 MiB .. 256 MiB
 *            simulated L4 behind a 736 KiB L3) replayed exactly --
 *            the continuity rows scripts/bench_diff.py gates.
 *   nominal  the L4 sweep at FULL NOMINAL working-set sizes
 *            (WorkloadProfile::atNominalScale) and real paper
 *            capacities -- a GiB-scale L4 behind the real 23 MiB
 *            L3 -- made affordable by clustered representative
 *            sampling (~1/4 of each trace simulated, every row
 *            carrying its LLC-miss confidence band). The statistical
 *            validity of those bands is gated by bench_fig6bc's
 *            clustered-vs-oracle section; this driver reuses the same
 *            plan machinery and records the bands for bench_diff.
 *
 * Emits BENCH_fig13.json (see bench::Artifact) for bench_all.sh
 * aggregation and bench_diff.py gating.
 */

#include <cstdio>
#include <vector>

#include "common.hh"
#include "util/table.hh"

namespace wsearch {
namespace {

void
addRow(bench::Artifact &art, const char *section, uint64_t sim_bytes,
       uint64_t paper_eq_bytes, const SystemResult &r)
{
    art.row()
        .key("section", section)
        .key("l4_sim_bytes", sim_bytes)
        .add("l4_paper_eq_bytes", paper_eq_bytes)
        .counter("instructions", r.instructions)
        .counter("l4_accesses", r.l4.totalAccesses())
        .counter("l4_misses", r.l4.totalMisses())
        .add("heap_hit", r.l4.hitRate(AccessKind::Heap))
        .add("shard_hit", r.l4.hitRate(AccessKind::Shard))
        .counter("sampled_windows", r.sampledWindows)
        .counter("represented_windows", r.representedWindows)
        .add("band_lo", r.l3MissBandLo())
        .add("band_hi", r.l3MissBandHi())
        .add("band_rel", r.bandRelHalfWidth());
}

void
printTable(const WorkloadProfile &prof,
           const std::vector<uint64_t> &sizes,
           const std::vector<SystemResult> &results, bool banded)
{
    std::vector<std::string> cols = {
        "L4 (paper-eq)", "L4 (sim)", "Heap hit", "Shard hit",
        "Comb. hit", "Heap MPKI", "Shard MPKI", "Comb. MPKI"};
    if (banded) {
        cols.push_back("L4-access band (95%)");
        cols.push_back("Note");
    }
    Table t(cols);
    for (size_t j = 0; j < sizes.size(); ++j) {
        const SystemResult &r = results[j];
        const uint64_t sim = sizes[j];
        const uint64_t i = r.instructions;
        std::vector<std::string> row = {
            formatBytes(sim * prof.sweepScale), formatBytes(sim),
            Table::fmtPct(r.l4.hitRate(AccessKind::Heap), 0),
            Table::fmtPct(r.l4.hitRate(AccessKind::Shard), 0),
            Table::fmtPct(r.l4.hitRateTotal(), 0),
            Table::fmt(r.l4.mpki(AccessKind::Heap, i), 2),
            Table::fmt(r.l4.mpki(AccessKind::Shard, i), 2),
            Table::fmt(r.l4.mpkiTotal(i), 2)};
        if (banded) {
            // The band is on LLC misses == L4 lookups: the sampling
            // plan's variance model tracks the L3 miss stream feeding
            // the victim cache.
            char buf[64];
            std::snprintf(buf, sizeof buf, "%.3g..%.3g (+-%.1f%%)",
                          r.l3MissBandLo(), r.l3MissBandHi(),
                          100.0 * r.bandRelHalfWidth());
            row.push_back(buf);
            row.push_back(sim >= bench::kColdStartFromBytes
                              ? "cold-start estimate" : "");
        }
        t.addRow(row);
    }
    t.print();
}

int
runFig13(const bench::Args &args)
{
    bench::Artifact art("fig13", args.smoke);
    bench::banner("Figure 13",
                  "L4 capacity sweep (direct-mapped victim cache; "
                  "1/32-scale ladder + clustered nominal-scale sweep)",
                  args.smoke);
    const WorkloadProfile prof = WorkloadProfile::s1LeafCapacitySweep();
    const PlatformConfig plt1 = PlatformConfig::plt1();
    const uint64_t l3_sim = (23 * MiB) / prof.sweepScale;

    art.config("cores", 16).config("l3_sim_bytes", l3_sim);

    // --- scaled: the established 1/32-scale ladder, exact replay ---
    std::vector<uint64_t> sizes;
    std::vector<RunOptions> options;
    for (uint64_t sim = 2 * MiB; sim <= 256 * MiB; sim *= 2) {
        RunOptions opt = bench::baseOptions(args, 16, 24'000'000, 48'000'000);
        opt.l3Bytes = l3_sim;
        opt.l4 = cache_gen_victim(sim, 64);
        sizes.push_back(sim);
        options.push_back(opt);
    }
    art.config("scaled_measure_records", recordBudget(options[0]).measure)
        .config("scaled_warmup_records", recordBudget(options[0]).warmup);
    const std::vector<SystemResult> results = runWorkloadSweep(
        prof, plt1, options,
        bench::sweepControl(args, recordBudget(options[0]).total()));
    printTable(prof, sizes, results, false);
    std::printf("\nPaper: a 1 GiB L4 captures most heap locality; "
                "remaining misses are mostly shard; ~50%% of DRAM "
                "accesses filtered overall at 1 GiB.\n"
                "MPKI columns are on the sweep profile's boosted "
                "data-access rate; compare shapes, not absolutes.\n\n");

    // --- nominal: real 23 MiB L3 + GiB-scale victim L4 under
    //     clustered sampling ---
    const WorkloadProfile nominal = prof.atNominalScale();
    std::vector<uint64_t> nom_sizes;
    if (args.smoke) {
        nom_sizes = {128 * MiB, 512 * MiB};
    } else {
        nom_sizes = {256 * MiB, 1 * GiB, 2 * GiB, 4 * GiB};
    }
    std::vector<RunOptions> nom_options;
    for (const uint64_t size : nom_sizes) {
        RunOptions opt = bench::baseOptions(args, 16, 24'000'000, 12'000'000);
        opt.l3Bytes = 23 * MiB;
        opt.l4 = cache_gen_victim(size, 64);
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

    std::printf("Nominal-scale sweep (%s sampling; 23 MiB L3, paper "
                "working sets: %s heap tail, %s shard span)\n",
                samplingPolicyName(nom_control.policy),
                formatBytes(nominal.heapWorkingSetBytes).c_str(),
                formatBytes(nominal.shardSpanBytes).c_str());
    const std::vector<SystemResult> nom_results =
        runWorkloadSweep(nominal, plt1, nom_options, nom_control);
    printTable(nominal, nom_sizes, nom_results, true);
    bench::printColdStartNote();

    for (size_t i = 0; i < sizes.size(); ++i)
        addRow(art, "scaled", sizes[i], sizes[i] * prof.sweepScale,
               results[i]);
    for (size_t i = 0; i < nom_sizes.size(); ++i)
        addRow(art, "nominal", nom_sizes[i], nom_sizes[i],
               nom_results[i]);
    return art.finish();
}

} // namespace
} // namespace wsearch

int
main(int argc, char **argv)
{
    return wsearch::runFig13(wsearch::bench::parseArgs(argc, argv));
}
