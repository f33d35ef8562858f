/**
 * @file
 * Replay plans and the one window loop every replay runs. A
 * SamplingPlan names the record ranges to simulate and how to weigh
 * them: contiguousPlan is the exact warmup+measure replay (one
 * window, policy kOff), buildUniformPlan and buildClusteredPlan pick
 * representative windows whose merged counters estimate the full
 * replay and carry a confidence band. replayPlan walks any of them on
 * one simulator: SystemSimulator (cpu/system.hh), the split
 * private/shared passes of runWorkloadSweep (core/experiments.hh) and
 * the cache-only runTrace (memsim/simulator.hh) all replay through
 * it. runParallelJobs fans a sweep's jobs out over
 * SweepControl::threads workers (0: hardware concurrency).
 *
 * Sampled results carry a nonzero SimResult::sampledWindows plus a
 * confidence band and must be reported as estimates. Every knob is an
 * argument: nothing here reads the environment.
 */

#ifndef WSEARCH_MEMSIM_SWEEP_HH
#define WSEARCH_MEMSIM_SWEEP_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "trace/buffered_trace.hh"
#include "trace/signature.hh"

namespace wsearch {

/** Default sweep worker count: hardware concurrency (at least 1). */
uint32_t simThreads();

/**
 * How a sweep trades replay completeness for speed:
 *   kOff        exact contiguous warmup+measure replay
 *   kUniform    evenly spaced representative windows, equal weights
 *   kClustered  k-means-clustered representative windows (one
 *               representative per cluster, weighted by cluster size)
 * Both sampled policies attach a confidence band to the estimate (see
 * SimResult::l3MissBandLo/Hi); kOff results are exact and band-free.
 */
enum class SamplingPolicy : uint8_t {
    kOff = 0,
    kUniform = 1,
    kClustered = 2,
};

/** Printable policy name. */
const char *samplingPolicyName(SamplingPolicy p);

/**
 * Knobs of representative-interval sampling (kUniform / kClustered).
 * The trace is divided into fixed-size windows; @p sampleWindows of
 * them are simulated (each after @p warmupRecords of state re-warm
 * from the preceding records) and weight-merged to estimate the
 * full-replay counters. In kClustered mode sampleWindows is the
 * cluster count k and window selection comes from k-means over cheap
 * access signatures (trace/signature.hh); in kUniform mode the
 * windows are evenly spaced. Equal knobs mean equal simulated-record
 * budget across the two policies, which is what makes their accuracy
 * comparable.
 */
struct RepresentativeSampling
{
    uint64_t windowRecords = 0; ///< records per window; 0 disables
    uint64_t warmupRecords = 0; ///< re-warm before each selected window
    uint32_t sampleWindows = 0; ///< windows simulated (clusters in kClustered)
    /** Clustering seed; 0 resolves to a fixed built-in (sampleSeed),
     *  so runs are reproducible by default. */
    uint64_t seed = 0;
    /**
     * Relative floor on the confidence-band half-width. The analytic
     * band captures signature-predicted dispersion but not the warmup
     * bias of skipped state; the floor keeps the band honest when
     * clusters are internally homogeneous.
     */
    double bandRelFloor = 0.03;

    bool
    enabled() const
    {
        return windowRecords > 0 && sampleWindows > 0;
    }
};

/**
 * The default sampling knobs: ~96 windows over @p total_records, 12
 * of them simulated, each after a one-window warmup.
 */
RepresentativeSampling defaultRepresentativeSampling(uint64_t total_records);

/** Resolve a sampling seed: @p s, else the fixed built-in seed. */
uint64_t sampleSeed(uint64_t s);

/** One selected representative window of a SamplingPlan. */
struct SampleWindow
{
    uint64_t begin = 0;   ///< absolute first record
    uint64_t records = 0; ///< window length
    uint64_t weight = 1;  ///< windows this representative stands for
};

/**
 * A materialized window-selection plan: which windows to simulate, in
 * position order, with what weights, plus the per-cluster dispersion
 * data the confidence band is derived from. Plans depend only on the
 * trace (never on the cache configuration), so one plan is shared by
 * every configuration of a sweep. A kOff plan is exact: its one
 * window is the contiguous measurement (contiguousPlan).
 */
struct SamplingPlan
{
    SamplingPolicy policy = SamplingPolicy::kOff;
    uint64_t windowRecords = 0;
    uint64_t warmupRecords = 0;
    uint64_t totalWindows = 0; ///< windows represented (== sum of weights)
    double bandRelFloor = 0.03;
    std::vector<SampleWindow> windows; ///< sorted by begin
    /**
     * Per selected window: sum of squared distances of its cluster's
     * members to the cluster centroid (standardized feature space).
     * Empty for kUniform plans (band falls back to the between-window
     * sample variance).
     */
    std::vector<double> clusterSqDist;
    /** Per selected window: its cluster centroid (standardized). */
    std::vector<SignatureVec> centroids;

    bool enabled() const { return !windows.empty(); }

    /** Records replayed under the plan (warmups + measured windows). */
    uint64_t simulatedRecords() const;

    /** Fraction of the represented records actually simulated. */
    double simulatedFraction() const;
};

/**
 * The exact replay as a plan: @p warmup records with stats off, then
 * one measured window of @p measure records, weight 1. Its policy is
 * kOff, so replayPlan reports the result exact: no sampled or
 * represented windows and no band.
 */
SamplingPlan contiguousPlan(uint64_t warmup, uint64_t measure);

/**
 * Evenly spaced selection: sampleWindows windows at equal strides,
 * weights covering the gaps (weights sum to the total window count).
 * Deterministic, no RNG.
 */
SamplingPlan buildUniformPlan(uint64_t total_records,
                              const RepresentativeSampling &rep);

/**
 * Clustered selection: extract per-window signatures from @p trace,
 * k-means them (seeded, deterministic), and pick the member closest
 * to each centroid as the cluster's representative, weighted by
 * cluster size. With sampleWindows >= the window count every window
 * is selected with weight 1 and the planned replay degenerates to the
 * exact contiguous replay (bit-identical counters).
 */
SamplingPlan buildClusteredPlan(const BufferedTrace &trace,
                                uint64_t total_records,
                                const RepresentativeSampling &rep);

/**
 * Variance of the plan's weighted-total estimate for a metric whose
 * per-window values at the representatives were @p rep_metric.
 * Clustered plans project within-cluster signature dispersion through
 * the locally observed metric gradient between cluster centroids;
 * uniform plans use the between-window sample variance with finite
 * population correction. @p estimate_total applies the plan's
 * relative band floor. See DESIGN.md "Representative sampling".
 */
double planVariance(const SamplingPlan &plan,
                    const std::vector<double> &rep_metric,
                    double estimate_total);

/** Knobs of one sweep invocation (cache or whole-system). */
struct SweepControl
{
    uint32_t threads = 0; ///< worker threads; 0 = simThreads()
    /**
     * Representative-window sampling policy. kUniform/kClustered (with
     * rep enabled) replace each configuration's contiguous replay with
     * a planned representative-window replay carrying a confidence
     * band; kOff is the exact warmup+measure replay.
     */
    SamplingPolicy policy = SamplingPolicy::kOff;
    RepresentativeSampling rep; ///< kUniform/kClustered knobs

    bool
    planned() const
    {
        return policy != SamplingPolicy::kOff && rep.enabled();
    }
};

/**
 * Build the plan a sweep with @p control over the first @p total
 * records of @p trace would use: a clustered or uniform plan when
 * control.planned(), else an empty plan, which replays nothing (the
 * exact replay is a contiguousPlan).
 */
SamplingPlan buildSweepPlan(const BufferedTrace &trace, uint64_t total,
                            const SweepControl &control);

/**
 * Run @p job(i) for every i in [0, @p njobs) on @p threads worker
 * threads pulling from a shared atomic work queue. threads == 0 means
 * simThreads(); the serial path (1 effective thread) runs inline.
 * Jobs are handed out in index order: job i starts only after every
 * job before it has started, so a job may wait for an earlier one
 * that waits only for jobs already running. Jobs must not throw.
 */
void runParallelJobs(size_t njobs, uint32_t threads,
                     const std::function<void(size_t)> &job);

/**
 * The window loop of every replay. Windows are visited in position
 * order on one simulator (state carried across the skipped gaps; up
 * to plan.warmupRecords re-warmed before each window with stats off);
 * each window's counters are harvested and weight-merged via
 * Result::operator+=. A sampled plan's result carries the confidence
 * band (l3MissVar), sampledWindows == windows simulated and
 * representedWindows == total windows represented; a kOff plan's
 * carries none of them. The callbacks run once per window, never per
 * record:
 *   replay(begin, count) -> records replayed
 *   resetStats()
 *   harvest(instructions) -> Result of the window just replayed
 */
template <class Result, class Replay, class Reset, class Harvest>
Result
replayPlan(const SamplingPlan &plan, Replay &&replay, Reset &&resetStats,
           Harvest &&harvest)
{
    const bool sampled = plan.policy != SamplingPolicy::kOff;
    Result acc;
    std::vector<double> metric;
    metric.reserve(plan.windows.size());
    uint64_t pos = 0; // replay cursor: state is carried across gaps
    for (const SampleWindow &w : plan.windows) {
        const uint64_t warm_begin = std::max(
            pos, w.begin > plan.warmupRecords
                ? w.begin - plan.warmupRecords : 0);
        if (warm_begin < w.begin)
            replay(warm_begin, w.begin - warm_begin);
        resetStats();
        const uint64_t done = replay(w.begin, w.records);
        const Result win = harvest(done);
        metric.push_back(static_cast<double>(win.l3.totalMisses()));
        // Weight-merge strictly via operator+=: the representative
        // stands for `weight` windows of its cluster.
        Result scaled;
        for (uint64_t r = 0; r < w.weight; ++r)
            scaled += win;
        if (sampled) {
            scaled.sampledWindows = 1;
            scaled.representedWindows = w.weight;
        }
        acc += scaled;
        pos = w.begin + done;
    }
    if (sampled) {
        acc.l3MissVar = planVariance(
            plan, metric, static_cast<double>(acc.l3.totalMisses()));
    }
    return acc;
}

} // namespace wsearch

#endif // WSEARCH_MEMSIM_SWEEP_HH
