/**
 * @file
 * Benchmarks (and gates) the parallel sweep engine itself on a
 * Figure-6bc-shaped L3 capacity sweep: 8 configurations of the
 * 1/32-scale S1 leaf, replayed
 *
 *   1. serial-classic   one runWorkload per config; each run
 *                       regenerates its own trace (the pre-sweep
 *                       code path),
 *   2. buffered serial  runWorkloadSweep with threads=1; the trace
 *                       is generated once into a shared BufferedTrace
 *                       and every config replays chunked spans,
 *   3. parallel         runWorkloadSweep at 2/4/8 worker threads,
 *   4. sampled          --smoke's uniform representative-window plan
 *                       (estimates; reported separately, never
 *                       identity-gated).
 *
 * Every exact run is compared field for field against the
 * serial-classic oracle; the modes that differ are a check of
 * BENCH_sweep.json, so any mismatch makes the binary exit nonzero and
 * CI can use it as the determinism gate. Wall-clock timings and
 * speedups land in the same file, which the driver writes into the
 * working directory; the recorded copy that EXPERIMENTS.md cites is
 * results/BENCH_sweep.json, where no driver writes. Re-record it by
 * copying a fresh run there.
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hh"
#include "trace/synthetic.hh"
#include "util/table.hh"

namespace wsearch {
namespace {

std::vector<RunOptions>
sweepOptions(const bench::Args &args)
{
    // Smaller nominal budgets in smoke mode (then 8x-scaled like every
    // driver's): the point there is exercising the machinery (under
    // TSan in CI), not timing fidelity.
    const uint64_t measure = args.smoke ? 1'500'000 : 8'000'000;
    const uint64_t warmup = args.smoke ? 1'000'000 : 16'000'000;
    std::vector<RunOptions> options;
    for (uint64_t sim = 128 * KiB; sim <= 16 * MiB; sim *= 2) {
        RunOptions opt = bench::baseOptions(args, 16, measure, warmup);
        opt.l3Bytes = sim;
        opt.l3Ways = 16;
        options.push_back(opt);
    }
    return options;
}

int
runBenchSweep(const bench::Args &args)
{
    bench::Artifact art("sweep", args.smoke);
    // In this driver --smoke shrinks budgets but the gated runs stay
    // exact, so no "all numbers are estimates" banner notice; only the
    // explicitly labelled sampled row is an estimate.
    bench::banner("Sweep engine",
                  "serial-classic vs shared-buffer vs parallel replay "
                  "(8-config L3 capacity sweep)");
    const WorkloadProfile prof = WorkloadProfile::s1LeafCapacitySweep();
    const PlatformConfig plt1 = PlatformConfig::plt1();
    const std::vector<RunOptions> options = sweepOptions(args);
    const uint64_t records_per_config = recordBudget(options[0]).total();

    // 1. Serial-classic oracle: per-config trace regeneration.
    double t0 = bench::nowSec();
    std::vector<SystemResult> oracle;
    for (const RunOptions &opt : options)
        oracle.push_back(runWorkload(prof, plt1, opt));
    const double serial_sec = bench::nowSec() - t0;
    std::printf("serial-classic: %u configs x %llu records in %.2fs\n",
                static_cast<unsigned>(options.size()),
                static_cast<unsigned long long>(records_per_config),
                serial_sec);
    std::fflush(stdout);

    art.config("configs", options.size())
        .config("records_per_config", records_per_config)
        .add("sim_threads_default", simThreads())
        .add("serial_classic_sec", serial_sec);
    std::vector<bench::JsonFields> runs;

    Table t({"Mode", "Threads", "Wall (s)", "Speedup", "Identical"});
    t.addRow({"serial-classic", "-", Table::fmt(serial_sec, 2),
              Table::fmt(1.0, 2), "(oracle)"});

    uint64_t nonidentical_modes = 0;
    const std::vector<uint32_t> thread_counts = {1, 2, 4, 8};
    for (const uint32_t threads : thread_counts) {
        SweepControl control;
        control.threads = threads;
        t0 = bench::nowSec();
        const std::vector<SystemResult> got =
            runWorkloadSweep(prof, plt1, options, control);
        const double sec = bench::nowSec() - t0;

        const bool same = got == oracle;
        nonidentical_modes += same ? 0 : 1;

        const char *mode =
            threads == 1 ? "buffered serial" : "parallel";
        t.addRow({mode, Table::fmtInt(threads), Table::fmt(sec, 2),
                  Table::fmt(serial_sec / sec, 2),
                  same ? "yes" : "NO"});
        runs.push_back(bench::JsonFields()
                           .add("mode", mode)
                           .add("threads", threads)
                           .add("wall_sec", sec)
                           .add("speedup_vs_serial_classic",
                                serial_sec / sec)
                           .add("identical", same ? 1 : 0));
        std::fflush(stdout);
    }

    // Sampled quick-look mode, timed for reference. Estimates by
    // design -- never part of the identity gate.
    {
        bench::Args smoke_args = args;
        smoke_args.smoke = true;
        SweepControl control =
            bench::sweepControl(smoke_args, records_per_config);
        control.threads = 1;
        t0 = bench::nowSec();
        const std::vector<SystemResult> sampled =
            runWorkloadSweep(prof, plt1, options, control);
        const double sec = bench::nowSec() - t0;
        t.addRow({"sampled (est.)", "1", Table::fmt(sec, 2),
                  Table::fmt(serial_sec / sec, 2),
                  "n/a (sampled)"});
        runs.push_back(
            bench::JsonFields()
                .add("mode", "sampled")
                .add("threads", 1)
                .add("wall_sec", sec)
                .add("speedup_vs_serial_classic", serial_sec / sec)
                .add("sampled_windows", sampled[0].sampledWindows)
                .add("simulated_fraction",
                     buildUniformPlan(records_per_config, control.rep)
                         .simulatedFraction()));
    }

    // Clustered representative sampling (see memsim/sweep.hh), timed
    // and compared against uniform sampling at EQUAL ERROR: escalate
    // the uniform plan's window budget (k, 2k, 4k, 8k) until its
    // absolute LLC-miss error matches clustered's, then report the
    // simulated-records ratio -- the honest "speedup at equal error"
    // number. Informational, not gated (the statistical gate lives in
    // bench_fig6bc); in smoke runs the trace is short enough that
    // the comparison is noisy.
    {
        // Clustered row: the SAME 8-config sweep as every row above,
        // so its speedup column is apples-to-apples with
        // serial-classic (one shared signature pass + plan, replayed
        // per config).
        SweepControl control;
        control.threads = 1;
        control.policy = SamplingPolicy::kClustered;
        control.rep = defaultRepresentativeSampling(records_per_config);
        t0 = bench::nowSec();
        const std::vector<SystemResult> cres =
            runWorkloadSweep(prof, plt1, options, control);
        const double clustered_sec = bench::nowSec() - t0;

        // Equal-error analysis on one mid-ladder config (1 MiB L3).
        const RunOptions &opt = options[3];
        const uint64_t total = records_per_config;
        SyntheticSearchTrace src(prof, opt.cores * opt.smtWays);
        const auto trace = BufferedTrace::materialize(src, total);
        const SystemConfig cfg = makeSystemConfig(prof, plt1, opt);

        SystemSimulator osim(cfg);
        const double o = static_cast<double>(
            osim.run(*trace, 0, total).l3.totalMisses());

        // Same knobs + same deterministic trace => this plan is the
        // one the sweep above used, so cres[3] IS its estimate.
        const SamplingPlan cplan =
            buildClusteredPlan(*trace, total, control.rep);
        const SystemResult &clustered = cres[3];
        const double cerr = std::abs(
            static_cast<double>(clustered.l3.totalMisses()) - o);

        // Escalate uniform until it is at least as accurate.
        uint64_t uniform_records = 0;
        uint32_t uniform_windows = 0;
        double uerr = -1.0;
        bool equal_error_reached = false;
        for (uint32_t mult = 1; mult <= 8; mult *= 2) {
            RepresentativeSampling urep = control.rep;
            urep.sampleWindows = control.rep.sampleWindows * mult;
            const SamplingPlan uplan = buildUniformPlan(total, urep);
            SystemSimulator usim(cfg);
            const SystemResult uniform = usim.runPlanned(*trace, uplan);
            uerr = std::abs(
                static_cast<double>(uniform.l3.totalMisses()) - o);
            uniform_records = uplan.simulatedRecords();
            uniform_windows = urep.sampleWindows;
            if (uerr <= cerr) {
                equal_error_reached = true;
                break;
            }
        }
        const double speedup_at_equal_error =
            static_cast<double>(uniform_records) /
            static_cast<double>(cplan.simulatedRecords());

        t.addRow({"clustered (est.)", "1",
                  Table::fmt(clustered_sec, 2),
                  Table::fmt(serial_sec / clustered_sec, 2),
                  "n/a (sampled)"});
        std::printf("clustered vs uniform at equal error: clustered "
                    "|err| %.0f with %llu records; uniform needs "
                    "%u windows (%llu records, |err| %.0f)%s -> "
                    "%.2fx records at equal error\n",
                    cerr,
                    static_cast<unsigned long long>(
                        cplan.simulatedRecords()),
                    uniform_windows,
                    static_cast<unsigned long long>(uniform_records),
                    uerr,
                    equal_error_reached ? "" : " (never matched; 8x cap)",
                    speedup_at_equal_error);

        runs.push_back(bench::JsonFields()
                           .add("mode", "clustered")
                           .add("threads", 1)
                           .add("wall_sec", clustered_sec)
                           .add("speedup_vs_serial_classic",
                                serial_sec / clustered_sec)
                           .add("sampled_windows", clustered.sampledWindows)
                           .add("simulated_fraction",
                                cplan.simulatedFraction()));

        art.add("equal_error_oracle_l3_misses", o)
            .add("equal_error_clustered_abs_err", cerr)
            .add("equal_error_clustered_records",
                 cplan.simulatedRecords())
            .add("equal_error_uniform_abs_err", uerr)
            .add("equal_error_uniform_records", uniform_records)
            .add("equal_error_uniform_windows", uniform_windows)
            .add("equal_error_reached", equal_error_reached ? 1 : 0)
            .add("speedup_at_equal_error", speedup_at_equal_error);
    }
    art.add("runs", runs)
        .counter("all_identical", nonidentical_modes == 0 ? 1 : 0)
        .check("nonidentical_modes", nonidentical_modes);

    t.print();
    if (nonidentical_modes == 0)
        std::printf("\nAll sweep modes bit-identical to the "
                    "serial-classic oracle.\n");
    std::printf("Note: parallel speedup requires hardware threads; "
                "on a single-CPU host the win comes from generating "
                "the trace once instead of once per config.\n");
    return art.finish();
}

} // namespace
} // namespace wsearch

int
main(int argc, char **argv)
{
    return wsearch::runBenchSweep(wsearch::bench::parseArgs(argc, argv));
}
