/**
 * @file
 * Reproduces paper Figures 6b and 6c: L3 working-set hit-rate and
 * MPKI curves by access type as L3 capacity sweeps. Three sections:
 *
 *   scaled   the established 1/32-scale ladder (128 KiB .. 64 MiB
 *            simulated; paper-equivalent x32) replayed exactly --
 *            the continuity rows scripts/bench_diff.py gates.
 *   gate     clustered representative sampling validated against the
 *            full-replay oracle on the 1/32-scale trace: the oracle's
 *            LLC miss count must land inside the clustered estimate's
 *            own reported 95% band (a violation fails the
 *            band_violations check, so the driver EXITS NONZERO,
 *            which is what CI runs), with uniform
 *            sampling's error recorded at the same simulated-record
 *            budget.
 *   nominal  the sweep at FULL NOMINAL working-set sizes
 *            (WorkloadProfile::atNominalScale -- 4 MiB code, 1 GiB
 *            heap tail, 64 GiB shard span) under clustered sampling,
 *            which is what makes paper-scale capacities affordable:
 *            ~1/4 of each trace is simulated (12 of 96 windows plus
 *            their warmup) and every row carries its confidence band.
 *
 * Emits BENCH_fig6bc.json (see bench::Artifact) for bench_all.sh
 * aggregation and bench_diff.py gating.
 */

#include <cmath>
#include <cstdio>
#include <vector>

#include "common.hh"
#include "trace/synthetic.hh"
#include "util/table.hh"

namespace wsearch {
namespace {

void
addSweepRow(bench::Artifact &art, const char *section,
            uint64_t sim_bytes, uint64_t paper_eq_bytes,
            const SystemResult &r)
{
    art.row()
        .key("section", section)
        .key("l3_sim_bytes", sim_bytes)
        .add("l3_paper_eq_bytes", paper_eq_bytes)
        .counter("instructions", r.instructions)
        .counter("l3_accesses", r.l3.totalAccesses())
        .counter("l3_misses", r.l3.totalMisses())
        .add("code_hit", r.l3.hitRate(AccessKind::Code))
        .add("heap_hit", r.l3.hitRate(AccessKind::Heap))
        .add("shard_hit", r.l3.hitRate(AccessKind::Shard))
        .counter("sampled_windows", r.sampledWindows)
        .counter("represented_windows", r.representedWindows)
        .add("band_lo", r.l3MissBandLo())
        .add("band_hi", r.l3MissBandHi())
        .add("band_rel", r.bandRelHalfWidth());
}

void
printSweepTable(const WorkloadProfile &prof,
                const std::vector<uint64_t> &sizes,
                const std::vector<SystemResult> &results, bool banded)
{
    std::vector<std::string> cols = {
        "L3 (paper-eq)", "L3 (sim)", "Code hit", "Heap hit",
        "Shard hit", "Comb. hit", "Comb. MPKI"};
    if (banded) {
        cols.push_back("LLC miss band (95%)");
        cols.push_back("Note");
    }
    Table t(cols);
    for (size_t i = 0; i < sizes.size(); ++i) {
        const SystemResult &r = results[i];
        const uint64_t sim = sizes[i];
        std::vector<std::string> row = {
            formatBytes(sim * prof.sweepScale), formatBytes(sim),
            Table::fmtPct(r.l3.hitRate(AccessKind::Code), 0),
            Table::fmtPct(r.l3.hitRate(AccessKind::Heap), 0),
            Table::fmtPct(r.l3.hitRate(AccessKind::Shard), 0),
            Table::fmtPct(r.l3.hitRateTotal(), 0),
            Table::fmt(r.l3.mpkiTotal(r.instructions), 2)};
        if (banded) {
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

/**
 * The clustered-vs-oracle gate: full contiguous replay vs planned
 * clustered and uniform replays of the same trace span, on one
 * 1/32-scale configuration, recorded with the band_violations check.
 */
void
runGate(const WorkloadProfile &prof, const PlatformConfig &plt1,
        bench::Artifact &art)
{
    RunOptions opt;
    opt.cores = 16;
    opt.l3Bytes = 1 * MiB;
    opt.l3Ways = 16;
    // Fixed record count, deliberately NOT --smoke-scaled: below
    // a few million records the trace is barely longer than the L3
    // refill time, so no sampling scheme can be simultaneously cheap
    // and unbiased and the band check would be meaningless. 6M records
    // keeps the full-replay oracle under a second.
    const uint64_t total = 6'000'000;

    SyntheticSearchTrace src(prof, opt.cores * opt.smtWays);
    const auto trace = BufferedTrace::materialize(src, total);
    const SystemConfig cfg = makeSystemConfig(prof, plt1, opt);
    const RepresentativeSampling rep =
        defaultRepresentativeSampling(total);

    double t0 = bench::nowSec();
    SystemSimulator oracle_sim(cfg);
    const SystemResult oracle = oracle_sim.run(*trace, 0, total);
    const double oracle_sec = bench::nowSec() - t0;

    t0 = bench::nowSec();
    const SamplingPlan cplan = buildClusteredPlan(*trace, total, rep);
    SystemSimulator clustered_sim(cfg);
    const SystemResult clustered =
        clustered_sim.runPlanned(*trace, cplan);
    const double clustered_sec = bench::nowSec() - t0;

    const SamplingPlan uplan = buildUniformPlan(total, rep);
    SystemSimulator uniform_sim(cfg);
    const SystemResult uniform = uniform_sim.runPlanned(*trace, uplan);

    const double o = static_cast<double>(oracle.l3.totalMisses());
    const double cerr =
        std::abs(static_cast<double>(clustered.l3.totalMisses()) - o);
    const double uerr =
        std::abs(static_cast<double>(uniform.l3.totalMisses()) - o);
    const uint64_t violations =
        (o < clustered.l3MissBandLo() || o > clustered.l3MissBandHi())
            ? 1 : 0;

    std::printf("Gate: clustered sampling vs full-replay oracle "
                "(1/32 scale, %llu records)\n",
                static_cast<unsigned long long>(total));
    std::printf("  oracle LLC misses    %12.0f  (%.2fs full replay)\n",
                o, oracle_sec);
    std::printf("  clustered estimate   %12llu  band %.0f..%.0f  "
                "(%.2fs, %.0f%% of trace simulated)\n",
                static_cast<unsigned long long>(
                    clustered.l3.totalMisses()),
                clustered.l3MissBandLo(), clustered.l3MissBandHi(),
                clustered_sec, 100.0 * cplan.simulatedFraction());
    std::printf("  uniform estimate     %12llu  (equal budget)\n",
                static_cast<unsigned long long>(
                    uniform.l3.totalMisses()));
    std::printf("  |err| clustered %.0f vs uniform %.0f; oracle %s "
                "the reported band\n\n",
                cerr, uerr,
                violations ? "OUTSIDE (GATE FAILURE)" : "inside");

    art.config("gate_records", total)
        .counter("gate_oracle_l3_misses", oracle.l3.totalMisses())
        .counter("gate_clustered_l3_misses", clustered.l3.totalMisses())
        .counter("gate_uniform_l3_misses", uniform.l3.totalMisses())
        .add("gate_band_lo", clustered.l3MissBandLo())
        .add("gate_band_hi", clustered.l3MissBandHi())
        .add("gate_clustered_abs_err", cerr)
        .add("gate_uniform_abs_err", uerr)
        .add("gate_simulated_fraction", cplan.simulatedFraction())
        .add("gate_oracle_sec", oracle_sec)
        .add("gate_clustered_sec", clustered_sec)
        .check("band_violations", violations);
}

int
runFig6bc(const bench::Args &args)
{
    bench::Artifact art("fig6bc", args.smoke);
    bench::banner("Figure 6b/6c",
                  "L3 hit-rate and MPKI vs capacity, by access type "
                  "(1/32-scale ladder + clustered nominal-scale "
                  "sweep)",
                  args.smoke);
    const WorkloadProfile prof = WorkloadProfile::s1LeafCapacitySweep();
    const PlatformConfig plt1 = PlatformConfig::plt1();

    art.config("cores", 16);

    // --- scaled: the established 1/32-scale ladder, exact replay ---
    std::vector<uint64_t> sizes;
    std::vector<RunOptions> options;
    for (uint64_t sim = 128 * KiB; sim <= 64 * MiB; sim *= 2) {
        RunOptions opt = bench::baseOptions(args, 16, 24'000'000, 48'000'000);
        opt.l3Bytes = sim;
        opt.l3Ways = 16; // power-of-two friendly across the sweep
        sizes.push_back(sim);
        options.push_back(opt);
    }
    art.config("scaled_measure_records", recordBudget(options[0]).measure)
        .config("scaled_warmup_records", recordBudget(options[0]).warmup);
    const std::vector<SystemResult> results = runWorkloadSweep(
        prof, plt1, options,
        bench::sweepControl(args, recordBudget(options[0]).total()));
    printSweepTable(prof, sizes, results, false);
    std::printf("\nPaper landmarks: code misses vanish by 16 MiB; "
                "heap hit ~95%% at 1 GiB; shard ~50%% at 2 GiB; "
                "combined MPKI 3.51 @32 MiB -> 1.37 @1 GiB.\n"
                "MPKI columns are on the sweep profile's boosted "
                "data-access rate; compare shapes, not absolutes.\n\n");

    // --- gate: clustered sampling vs the full-replay oracle ---
    runGate(prof, plt1, art);

    // --- nominal: full paper-scale working sets under clustered
    //     sampling (this is the section representative sampling
    //     exists for: a 1 GiB working set with only ~1/4 of the
    //     trace simulated per capacity point) ---
    const WorkloadProfile nominal = prof.atNominalScale();
    std::vector<uint64_t> nom_sizes;
    if (args.smoke) {
        nom_sizes = {32 * MiB, 128 * MiB};
    } else {
        nom_sizes = {64 * MiB, 256 * MiB, 1 * GiB, 2 * GiB};
    }
    std::vector<RunOptions> nom_options;
    for (const uint64_t size : nom_sizes) {
        RunOptions opt = bench::baseOptions(args, 16, 24'000'000, 12'000'000);
        opt.l3Bytes = size;
        opt.l3Ways = 16;
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

    std::printf("Nominal-scale sweep (%s sampling; full paper "
                "working sets: %s heap tail, %s shard span)\n",
                samplingPolicyName(nom_control.policy),
                formatBytes(nominal.heapWorkingSetBytes).c_str(),
                formatBytes(nominal.shardSpanBytes).c_str());
    const std::vector<SystemResult> nom_results =
        runWorkloadSweep(nominal, plt1, nom_options, nom_control);
    printSweepTable(nominal, nom_sizes, nom_results, true);
    bench::printColdStartNote();

    for (size_t i = 0; i < sizes.size(); ++i)
        addSweepRow(art, "scaled", sizes[i],
                    sizes[i] * prof.sweepScale, results[i]);
    for (size_t i = 0; i < nom_sizes.size(); ++i)
        addSweepRow(art, "nominal", nom_sizes[i], nom_sizes[i],
                    nom_results[i]);
    return art.finish();
}

} // namespace
} // namespace wsearch

int
main(int argc, char **argv)
{
    return wsearch::runFig6bc(wsearch::bench::parseArgs(argc, argv));
}
