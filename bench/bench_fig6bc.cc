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
 *            own reported 95% band (the driver EXITS NONZERO on a
 *            violation, which is what CI runs), with uniform
 *            sampling's error recorded at the same simulated-record
 *            budget.
 *   nominal  the sweep at FULL NOMINAL working-set sizes
 *            (WorkloadProfile::atNominalScale -- 4 MiB code, 1 GiB
 *            heap tail, 64 GiB shard span) under clustered sampling,
 *            which is what makes paper-scale capacities affordable:
 *            ~1/4 of each trace is simulated (12 of 96 windows plus
 *            their warmup) and every row carries its confidence band.
 *
 * Emits BENCH_fig6bc.json in the standard frame (see bench::
 * beginStandardJson) for bench_all.sh aggregation and bench_diff.py
 * gating.
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
addSweepRow(bench::JsonWriter &json, const char *section,
            uint64_t sim_bytes, uint64_t paper_eq_bytes,
            const SystemResult &r)
{
    json.beginObject();
    json.add("section", std::string(section));
    json.add("l3_sim_bytes", sim_bytes);
    json.add("l3_paper_eq_bytes", paper_eq_bytes);
    json.add("instructions", r.instructions);
    json.add("l3_accesses", r.l3.totalAccesses());
    json.add("l3_misses", r.l3.totalMisses());
    json.add("code_hit", r.l3.hitRate(AccessKind::Code));
    json.add("heap_hit", r.l3.hitRate(AccessKind::Heap));
    json.add("shard_hit", r.l3.hitRate(AccessKind::Shard));
    json.add("sampled_windows", r.sampledWindows);
    json.add("represented_windows", r.representedWindows);
    json.add("band_lo", r.l3MissBandLo());
    json.add("band_hi", r.l3MissBandHi());
    json.add("band_rel", r.bandRelHalfWidth());
    json.endObject();
}

void
printSweepTable(const WorkloadProfile &prof,
                const std::vector<uint64_t> &sizes,
                const std::vector<SystemResult> &results, bool banded)
{
    std::vector<std::string> cols = {
        "L3 (paper-eq)", "L3 (sim)", "Code hit", "Heap hit",
        "Shard hit", "Comb. hit", "Comb. MPKI"};
    if (banded)
        cols.push_back("LLC miss band (95%)");
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
        }
        t.addRow(row);
    }
    t.print();
}

/**
 * The clustered-vs-oracle gate: full contiguous replay vs planned
 * clustered and uniform replays of the same trace span, on one
 * 1/32-scale configuration. Returns the number of band violations
 * (the driver's exit status).
 */
int
runGate(const WorkloadProfile &prof, const PlatformConfig &plt1,
        bench::JsonWriter &json)
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
    const int violations =
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

    json.add("gate_records", total);
    json.add("gate_oracle_l3_misses", oracle.l3.totalMisses());
    json.add("gate_clustered_l3_misses", clustered.l3.totalMisses());
    json.add("gate_uniform_l3_misses", uniform.l3.totalMisses());
    json.add("gate_band_lo", clustered.l3MissBandLo());
    json.add("gate_band_hi", clustered.l3MissBandHi());
    json.add("gate_clustered_abs_err", cerr);
    json.add("gate_uniform_abs_err", uerr);
    json.add("gate_simulated_fraction", cplan.simulatedFraction());
    json.add("gate_oracle_sec", oracle_sec);
    json.add("gate_clustered_sec", clustered_sec);
    json.add("band_violations", static_cast<uint64_t>(violations));
    return violations;
}

int
runFig6bc(const bench::Args &args)
{
    const double t0 = bench::nowSec();
    bench::banner("Figure 6b/6c",
                  "L3 hit-rate and MPKI vs capacity, by access type "
                  "(1/32-scale ladder + clustered nominal-scale "
                  "sweep)",
                  args.smoke);
    const WorkloadProfile prof = WorkloadProfile::s1LeafCapacitySweep();
    const PlatformConfig plt1 = PlatformConfig::plt1();

    bench::JsonWriter json;
    bench::beginStandardJson(json, "fig6bc", args.smoke);
    json.add("cores", static_cast<uint64_t>(16));

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
    json.add("scaled_measure_records", recordBudget(options[0]).measure);
    json.add("scaled_warmup_records", recordBudget(options[0]).warmup);
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
    const int violations = runGate(prof, plt1, json);

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
    json.add("nominal_measure_records", nom_budget.measure);
    json.add("nominal_warmup_records", nom_budget.warmup);
    json.add("sampling_policy",
             std::string(samplingPolicyName(nom_control.policy)));
    json.add("sample_window_records", nom_control.rep.windowRecords);
    json.add("sample_clusters",
             static_cast<uint64_t>(nom_control.rep.sampleWindows));
    json.add("sample_seed", sampleSeed(nom_control.rep.seed));

    std::printf("Nominal-scale sweep (%s sampling; full paper "
                "working sets: %s heap tail, %s shard span)\n",
                samplingPolicyName(nom_control.policy),
                formatBytes(nominal.heapWorkingSetBytes).c_str(),
                formatBytes(nominal.shardSpanBytes).c_str());
    const std::vector<SystemResult> nom_results =
        runWorkloadSweep(nominal, plt1, nom_options, nom_control);
    printSweepTable(nominal, nom_sizes, nom_results, true);
    std::printf("\n");

    json.beginArray("rows");
    for (size_t i = 0; i < sizes.size(); ++i)
        addSweepRow(json, "scaled", sizes[i],
                    sizes[i] * prof.sweepScale, results[i]);
    for (size_t i = 0; i < nom_sizes.size(); ++i)
        addSweepRow(json, "nominal", nom_sizes[i], nom_sizes[i],
                    nom_results[i]);
    json.endArray();

    bench::finishStandardJson(json, "fig6bc", t0);
    return violations;
}

} // namespace
} // namespace wsearch

int
main(int argc, char **argv)
{
    return wsearch::runFig6bc(wsearch::bench::parseArgs(argc, argv));
}
