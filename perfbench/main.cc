/**
 * @file
 * wsbench: one run of one benchmark workload. perfbench/run.py builds
 * this binary, passes the knobs of perfbench/config.json as
 * --key=value, and turns the last output line into the benchmark
 * result. Two workloads, each one serving half (a LeafWorkerPool over
 * a frozen MaterializedIndex) followed by one simulator half:
 *
 *   sweep_ladder.leaf_open    the leaf over varint posting blocks, then
 *                             sweep_ladder (runWorkloadSweep)
 *   table1_rows.leaf_packed   the leaf over bit-packed (SIMD) posting
 *                             blocks, then table1_rows (runWorkloads)
 *
 * The leaf's set-up (index build, warm-up pass) runs first; setup_s is
 * process start to the first timed operation. With --setup_only=1 the
 * run stops there. With --trace=1 the spans are on, and the other
 * simulator half (shorter), live_mixed and the layer ladders run too,
 * so that the run reports every per-layer metric; spans are written as
 * Chrome trace-event JSON to --trace_out. Output checks run last.
 */

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "bench.hh"

extern char **environ;

namespace wsbench {
namespace {

/**
 * Drop every WSEARCH_* variable (WSEARCH_FAST, WSEARCH_RECORDS,
 * WSEARCH_SIM_THREADS, WSEARCH_SAMPLE_*, ...) so the inherited
 * environment cannot resize a workload.
 */
void
pinEnvironment()
{
    std::vector<std::string> names;
    for (char **e = environ; *e; ++e)
        if (std::strncmp(*e, "WSEARCH_", 8) == 0)
            names.emplace_back(*e, std::strcspn(*e, "="));
    for (const std::string &n : names)
        unsetenv(n.c_str());
}

void
printSelfTimes()
{
    std::printf("span self time (ms):");
    for (const auto &[name, ns] : Spans::get().selfTimeByName())
        std::printf(" %s=%.1f", name.c_str(), static_cast<double>(ns) / 1e6);
    std::printf("\n");
}

/** Share of the measured seconds that goes to the serving half. */
constexpr double kServeShare = 0.8;
/** The traced run's extra halves take this share of the seconds. */
constexpr double kTracedOtherShare = 0.5;

int
run(const Options &o, uint64_t t_start)
{
    const bool ladder = o.workload == "sweep_ladder.leaf_open";
    if (!ladder && o.workload != "table1_rows.leaf_packed") {
        std::fprintf(stderr, "wsbench: unknown workload %s\n",
                     o.workload.c_str());
        return 2;
    }
    const bool traced = o.trace;
    const double seconds = o.seconds;
    const Seeds seeds = deriveSeeds(o);
    Spans::get().enable(traced);

    // Set-up of the serving half (the simulator halves have none).
    LeafOpen leaf(o, seeds);
    const double setup_s = static_cast<double>(clockNs() - t_start) / 1e9;
    if (o.setupOnly) {
        std::printf("{\"setup_s\": %.9f}\n", setup_s);
        return 0;
    }

    Report own;
    own.metric("setup_s", setup_s, "s");
    const uint64_t t_timed = clockNs();
    Checks checks;
    // The leaf half first, right after its own warm-up pass: run after
    // the memory-heavy simulator half, its latencies swung far more.
    leaf.run(traced, seconds * kServeShare, own, checks);
    const double sim_s = seconds * (1 - kServeShare);
    if (ladder)
        runSweepLadder(seeds, traced, sim_s, own, checks);
    else
        runTable1Rows(seeds, sim_s, own, checks);
    own.metric("peak_rss_mib", peakRssMib(), "MiB");

    // Traced run: the other simulator half (shorter), live_mixed and
    // the layer ladders, so every per-layer metric is measured.
    Report layers;
    std::unique_ptr<LiveMixed> live;
    if (traced) {
        const double other = seconds * kTracedOtherShare;
        if (ladder)
            runTable1Rows(seeds, other * (1 - kServeShare), layers, checks);
        else
            runSweepLadder(seeds, true, other * (1 - kServeShare), layers,
                           checks);
        live = std::make_unique<LiveMixed>(seeds);
        live->run(other * kServeShare, layers, checks);
        runLayerLadders(seeds, layers);
    }
    for (const auto &check : checks)
        check(own);
    if (!traced) {
        std::printf("%s\n", own.json().c_str());
        return 0;
    }

    // Tracing overhead: spans recorded x the measured cost of one,
    // against the traced run's wall time.
    Spans &spans = Spans::get();
    const double wall_ns = static_cast<double>(clockNs() - t_timed);
    const double per_span = spans.costPerSpanNs();
    layers.metric("spans.count", static_cast<double>(spans.count()),
                  "count");
    layers.metric("spans.overhead_pct",
                  100.0 * static_cast<double>(spans.count()) * per_span /
                      wall_ns,
                  "%");
    printSelfTimes();
    if (!o.traceOut.empty() && !spans.writeChromeJson(o.traceOut))
        std::fprintf(stderr, "wsbench: cannot write %s\n",
                     o.traceOut.c_str());

    // The traced run's own end-to-end numbers, for comparison with the
    // untraced runs.
    std::printf("traced end-to-end: %s\n", own.json().c_str());
    Report result;
    result.merge(own, /*layers_only=*/true);
    result.merge(layers, /*layers_only=*/true);
    std::printf("%s\n", result.json().c_str());
    return 0;
}

} // namespace
} // namespace wsbench

int
main(int argc, char **argv)
{
    const uint64_t t_main = wsbench::clockNs();
    try {
        wsbench::pinEnvironment();
        const wsbench::Options o = wsbench::parseOptions(argc, argv);
        // Process start as the launcher saw it (same steady clock), so
        // set-up includes exec and loading.
        return wsbench::run(o, o.t0Ns ? o.t0Ns : t_main);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "wsbench: %s\n", e.what());
        return 2;
    }
}
