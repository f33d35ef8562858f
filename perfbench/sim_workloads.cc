/**
 * @file
 * The simulator halves: sweep_ladder (runWorkloadSweep over a capacity
 * ladder sharing one BufferedTrace) and table1_rows (runWorkloads over
 * the six fleet rows of Table I, each generating its own trace through
 * the pull path). Each call is timed as one public call; the reported
 * throughput is the median over the calls of the run. Every call's
 * counters and core-model results must equal the first call's, and the
 * first call must match the pinned digest (default seed) or, for any
 * other seed, a replay of one job through the other replay path.
 */

#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench.hh"
#include "core/experiments.hh"
#include "trace/buffered_trace.hh"
#include "trace/synthetic.hh"

namespace wsbench {

using namespace wsearch;

namespace {

constexpr uint32_t kSimThreads = 2;
/** Calls per run at least, so the median has three to choose from. */
constexpr uint64_t kMinCalls = 3;

constexpr uint32_t kLadderCores = 16;
constexpr uint64_t kLadderMinKib = 128, kLadderMaxKib = 16384;
constexpr uint32_t kLadderWays = 16;
constexpr uint64_t kLadderMeasure = 1'500'000, kLadderWarmup = 1'000'000;

constexpr uint32_t kRowsCores = 16;
constexpr uint64_t kRowsMeasure = 4'000'000, kRowsWarmup = 2'000'000;

// Digests of the first call at the default seed (config.json). A change
// that alters what the simulator computes must re-pin them.
constexpr const char *kLadderDigest = "0x54f65a3faaec06e4";
constexpr const char *kRowsDigest = "0x6d664753485aa49d";

/**
 * FNV-1a over every integer counter of @p results and the core model's
 * output (per-thread IPC, L3 AMAT and the TopDown slots, by their bit
 * patterns: the same build computes them bit for bit).
 */
uint64_t
digest(const std::vector<SystemResult> &results)
{
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    for (const SystemResult &r : results) {
        const TopDown &td = r.topdown;
        for (double v : {r.ipcPerThread, r.amatL3Ns, td.retiring,
                         td.badSpeculation, td.frontendLatency,
                         td.frontendBandwidth, td.backendMemory,
                         td.backendCore})
            mix(std::bit_cast<uint64_t>(v));
        mix(r.instructions);
        for (const CacheLevelStats *lvl :
             {&r.l1i, &r.l1d, &r.l2, &r.l3, &r.l4}) {
            for (uint32_t k = 0; k < kNumAccessKinds; ++k) {
                mix(lvl->accesses[k]);
                mix(lvl->misses[k]);
            }
            mix(lvl->prefetchIssued);
            mix(lvl->prefetchUseful);
        }
        for (uint64_t v :
             {r.l3Evictions, r.writebacks, r.backInvalidations,
              r.cohUpgrades, r.cohInvalidations, r.cohDirtyWritebacks,
              r.branches, r.mispredicts, r.dtlbAccesses, r.dtlbWalks,
              r.itlbWalks})
            mix(v);
    }
    return h;
}

std::string
hex(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
    return buf;
}

/** One simulator half: its public call and its cross-path replay. */
struct SimHalf
{
    const char *name;      ///< workload half, for messages
    const char *spanName;  ///< span around the public call
    uint64_t recordsPerCall = 0;
    std::function<std::vector<SystemResult>()> call;
    /** Replay job @p i through the other path (span <-> pull). */
    std::function<SystemResult(size_t i)> otherPath;
    size_t checkJob = 0;
    std::string pinnedDigest;
};

/**
 * Time calls of @p half for about @p seconds (at least kMinCalls),
 * check that every call's digest equals the first call's, report
 * sim_mrec_per_s and queue the check of the first call against the
 * pinned digest or the other replay path. Returns the first call's
 * results.
 */
std::vector<SystemResult>
timeCalls(const SimHalf &half, const Seeds &s, double seconds,
          Report &out, Checks &checks, std::vector<double> *walls)
{
    std::vector<double> rates;
    std::vector<SystemResult> first;
    uint64_t first_digest = 0, mismatched = 0, jobs = 0;
    const uint64_t t_end =
        clockNs() + static_cast<uint64_t>(seconds * 1e9);
    for (uint64_t call = 0; call < kMinCalls || clockNs() < t_end;
         ++call) {
        const uint64_t t0 = clockNs();
        std::vector<SystemResult> got;
        {
            Scope span(half.spanName);
            got = half.call();
        }
        const double wall = static_cast<double>(clockNs() - t0) / 1e9;
        rates.push_back(static_cast<double>(half.recordsPerCall) /
                        wall / 1e6);
        if (walls)
            walls->push_back(wall);
        jobs += got.size();
        const uint64_t d = digest(got);
        if (call == 0) {
            first = got;
            first_digest = d;
        } else if (d != first_digest) {
            ++mismatched;
            out.checkFailed(std::string(half.name) + ": call " +
                            std::to_string(call) +
                            " counters differ from call 0");
        }
    }
    out.ops(jobs, mismatched * first.size());
    out.metric("sim_mrec_per_s", median(rates), "Mrec/s");
    std::vector<double> sorted = rates;
    std::printf("%s: %zu calls, %.1f M records each, Mrec/s min %.3f "
                "median %.3f max %.3f; counter digest %s (%s seed)\n",
                half.name, rates.size(),
                static_cast<double>(half.recordsPerCall) / 1e6,
                quantile(sorted, 0), median(rates), quantile(sorted, 1),
                hex(first_digest).c_str(),
                s.pinned ? "default" : "non-default");

    // The first call against the pinned digest, or one job replayed
    // through the other path when the seed is not the pinned one.
    checks.push_back([half, pinned = s.pinned, first_digest,
                      job = first[half.checkJob]](Report &r) {
        r.ops(1, 0);
        if (pinned) {
            if (hex(first_digest) != half.pinnedDigest) {
                r.ops(0, 1);
                r.checkFailed(std::string(half.name) + ": digest " +
                              hex(first_digest) + " != pinned " +
                              half.pinnedDigest);
            }
            return;
        }
        Scope span("check.other_path");
        if (digest({half.otherPath(half.checkJob)}) != digest({job})) {
            r.ops(0, 1);
            r.checkFailed(std::string(half.name) + ": job " +
                          std::to_string(half.checkJob) +
                          " differs between the replay paths");
        }
    });
    return first;
}

/** Span-path replay of one configuration (materialize, then run). */
SystemResult
replayBuffered(const WorkloadProfile &prof, const PlatformConfig &plt,
               const RunOptions &opt)
{
    const RecordBudget b = recordBudget(opt);
    SyntheticSearchTrace src(prof, opt.cores * opt.smtWays);
    const auto trace = BufferedTrace::materialize(src, b.total());
    SystemSimulator sim(makeSystemConfig(prof, plt, opt));
    return sim.run(*trace, b.warmup, b.measure);
}

/** Mean |relative error| (%) of @p results against the row refs. */
double
modelErrPct(const std::vector<Table1Row> &rows,
            const std::vector<SystemResult> &results)
{
    double err = 0;
    size_t n = 0;
    for (size_t i = 0; i < rows.size(); ++i) {
        const SystemResult &r = results[i];
        const double got[4] = {r.ipcPerThread, r.l3LoadMpki(),
                               r.l2InstrMpki(), r.branchMpki()};
        for (int k = 0; k < 4; ++k, ++n)
            err += std::abs(got[k] - rows[i].ref[k]) / rows[i].ref[k];
    }
    return n ? 100.0 * err / static_cast<double>(n) : 0.0;
}

} // namespace

std::vector<RunOptions>
ladderOptions()
{
    std::vector<RunOptions> options;
    for (uint64_t kib = kLadderMinKib; kib <= kLadderMaxKib; kib *= 2) {
        RunOptions opt;
        opt.cores = kLadderCores;
        opt.measureRecords = kLadderMeasure;
        opt.warmupRecords = kLadderWarmup;
        opt.l3Bytes = kib * KiB;
        opt.l3Ways = kLadderWays;
        options.push_back(opt);
    }
    return options;
}

WorkloadProfile
ladderProfile(const Seeds &s)
{
    WorkloadProfile prof = WorkloadProfile::s1LeafCapacitySweep();
    prof.seed = s.trace(prof.seed);
    return prof;
}

std::vector<Table1Row>
table1Rows(const Seeds &s)
{
    // The six fleet search rows of paper Table I with the reference
    // values bench_table1 prints: IPC, L3 load MPKI, L2-I MPKI and
    // branch MPKI.
    std::vector<Table1Row> rows = {
        {"S1 leaf", WorkloadProfile::s1Leaf(), {1.34, 2.20, 11.83, 8.98}, {}},
        {"S2 leaf", WorkloadProfile::s2Leaf(), {1.63, 1.89, 12.44, 6.17}, {}},
        {"S3 leaf", WorkloadProfile::s3Leaf(), {1.46, 1.78, 14.10, 7.99}, {}},
        {"S1 root", WorkloadProfile::s1Root(), {1.03, 4.20, 12.02, 4.71}, {}},
        {"S2 root", WorkloadProfile::s2Root(), {1.14, 3.05, 19.62, 4.84}, {}},
        {"S3 root", WorkloadProfile::s3Root(), {1.08, 3.19, 13.97, 5.37}, {}},
    };
    for (Table1Row &row : rows) {
        row.profile.seed = s.trace(row.profile.seed);
        row.opt.cores = kRowsCores;
        row.opt.measureRecords = kRowsMeasure;
        row.opt.warmupRecords = kRowsWarmup;
    }
    return rows;
}

void
runSweepLadder(const Seeds &s, bool traced, double seconds, Report &out,
               Checks &checks)
{
    const WorkloadProfile prof = ladderProfile(s);
    const PlatformConfig plt1 = PlatformConfig::plt1();
    const std::vector<RunOptions> options = ladderOptions();
    SweepControl control;
    control.threads = kSimThreads;

    SimHalf half;
    half.name = "sweep_ladder";
    half.spanName = "core.runWorkloadSweep";
    for (const RunOptions &opt : options)
        half.recordsPerCall += recordBudget(opt).total();
    half.call = [&] {
        return runWorkloadSweep(prof, plt1, options, control);
    };
    half.otherPath = [prof, plt1, options](size_t i) {
        return runWorkload(prof, plt1, options[i]);
    };
    half.checkJob = kLadderCheckJob;
    half.pinnedDigest = kLadderDigest;

    std::vector<double> walls;
    timeCalls(half, s, seconds, out, checks, &walls);
    if (!traced)
        return;

    // core.sweep_wait_frac: the same work done serially from outside
    // (generation once, then every configuration's replay), against
    // threads x the sweep's wall time. What is left is the time the
    // sweep's threads sat idle: generation runs on one thread and
    // jobs do not divide evenly.
    double busy = 0;
    std::shared_ptr<const BufferedTrace> trace;
    {
        Scope span("trace.materialize");
        const uint64_t t0 = clockNs();
        SyntheticSearchTrace src(prof, options[0].cores);
        trace = BufferedTrace::materialize(
            src, recordBudget(options.back()).total());
        busy += static_cast<double>(clockNs() - t0) / 1e9;
    }
    for (const RunOptions &opt : options) {
        Scope span("cpu.SystemSimulator.run");
        const uint64_t t0 = clockNs();
        SystemSimulator sim(makeSystemConfig(prof, plt1, opt));
        const RecordBudget b = recordBudget(opt);
        sim.run(*trace, b.warmup, b.measure);
        busy += static_cast<double>(clockNs() - t0) / 1e9;
    }
    const double wait = 1.0 - busy / (control.threads * median(walls));
    out.metric("core.sweep_wait_frac", wait, "ratio");
}

void
runTable1Rows(const Seeds &s, double seconds, Report &out, Checks &checks)
{
    const PlatformConfig plt1 = PlatformConfig::plt1();
    const std::vector<Table1Row> rows = table1Rows(s);
    std::vector<WorkloadSpec> specs;
    for (const Table1Row &row : rows)
        specs.push_back({row.profile, plt1, row.opt});

    SimHalf half;
    half.name = "table1_rows";
    half.spanName = "core.runWorkloads";
    for (const WorkloadSpec &spec : specs)
        half.recordsPerCall += recordBudget(spec.opt).total();
    half.call = [&] { return runWorkloads(specs, kSimThreads); };
    half.otherPath = [plt1, specs](size_t i) {
        return replayBuffered(specs[i].profile, plt1, specs[i].opt);
    };
    half.checkJob = kRowsCheckJob;
    half.pinnedDigest = kRowsDigest;

    const std::vector<SystemResult> first =
        timeCalls(half, s, seconds, out, checks, nullptr);
    const double err = modelErrPct(rows, first);
    std::printf("table1_rows: model error %.2f%% against Table I\n", err);
    out.metric("core.model_err_pct", err, "%");
}

} // namespace wsbench
