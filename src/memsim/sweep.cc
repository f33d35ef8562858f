#include "memsim/sweep.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>
#include <thread>

namespace wsearch {

const char *
samplingPolicyName(SamplingPolicy p)
{
    switch (p) {
      case SamplingPolicy::kUniform:
        return "uniform";
      case SamplingPolicy::kClustered:
        return "clustered";
      case SamplingPolicy::kOff:
        break;
    }
    return "off";
}

uint64_t
sampleSeed(uint64_t s)
{
    // A fixed built-in default keeps every run reproducible.
    return s ? s : 0x5eedc0de12345678ull;
}

RepresentativeSampling
defaultRepresentativeSampling(uint64_t total_records)
{
    constexpr uint32_t kWindows = 96, kSampleWindows = 12;
    RepresentativeSampling rep;
    if (total_records == 0)
        return rep;
    rep.windowRecords =
        std::max<uint64_t>(1, total_records / kWindows);
    // Warmup per sampled window. Architectural state is carried across
    // skipped gaps, but the cache still re-warms from whatever the gap
    // would have loaded; a full window of uncounted warmup before each
    // measured window keeps that cold-state bias inside the reported
    // band (the bench_fig6bc gate checks exactly this).
    rep.warmupRecords = rep.windowRecords;
    rep.sampleWindows = kSampleWindows;
    return rep;
}

uint64_t
SamplingPlan::simulatedRecords() const
{
    uint64_t pos = 0;
    uint64_t sim = 0;
    for (const SampleWindow &w : windows) {
        const uint64_t warm_begin = std::max(
            pos, w.begin > warmupRecords ? w.begin - warmupRecords : 0);
        sim += (w.begin - std::min(warm_begin, w.begin)) + w.records;
        pos = w.begin + w.records;
    }
    return sim;
}

double
SamplingPlan::simulatedFraction() const
{
    const uint64_t denom = totalWindows * windowRecords;
    if (denom == 0)
        return 1.0;
    return static_cast<double>(simulatedRecords()) /
        static_cast<double>(denom);
}

SamplingPlan
contiguousPlan(uint64_t warmup, uint64_t measure)
{
    SamplingPlan plan;
    plan.windowRecords = measure;
    plan.warmupRecords = warmup;
    plan.totalWindows = 1;
    plan.windows.push_back({warmup, measure, 1});
    return plan;
}

SamplingPlan
buildUniformPlan(uint64_t total_records,
                 const RepresentativeSampling &rep)
{
    SamplingPlan plan;
    plan.policy = SamplingPolicy::kUniform;
    plan.windowRecords = rep.windowRecords;
    plan.warmupRecords = rep.warmupRecords;
    if (!rep.enabled() || total_records == 0)
        return plan;
    const uint64_t total_windows =
        (total_records + rep.windowRecords - 1) / rep.windowRecords;
    plan.totalWindows = total_windows;
    const uint64_t k =
        std::min<uint64_t>(rep.sampleWindows, total_windows);
    plan.windows.reserve(k);
    for (uint64_t i = 0; i < k; ++i) {
        const uint64_t idx = i * total_windows / k;
        const uint64_t next =
            i + 1 < k ? (i + 1) * total_windows / k : total_windows;
        SampleWindow w;
        w.begin = idx * rep.windowRecords;
        w.records = std::min(rep.windowRecords, total_records - w.begin);
        w.weight = next - idx; // gaps partition [0, total_windows)
        plan.windows.push_back(w);
    }
    return plan;
}

SamplingPlan
buildClusteredPlan(const BufferedTrace &trace, uint64_t total_records,
                   const RepresentativeSampling &rep)
{
    SamplingPlan plan;
    plan.policy = SamplingPolicy::kClustered;
    plan.windowRecords = rep.windowRecords;
    plan.warmupRecords = rep.warmupRecords;
    if (!rep.enabled())
        return plan;
    total_records = std::min(total_records, trace.size());
    const std::vector<WindowSignature> sigs =
        extractWindowSignatures(trace, total_records, rep.windowRecords);
    const size_t n = sigs.size();
    plan.totalWindows = n;
    if (n == 0)
        return plan;

    const std::vector<SignatureVec> feats = standardizedFeatures(sigs);

    // Degenerate k >= N case: every window selected with weight 1 (an
    // explicit short-circuit -- k-means can merge coincident feature
    // vectors, and the exact-reconstruction guarantee must not depend
    // on feature distinctness).
    if (rep.sampleWindows >= n) {
        plan.windows.reserve(n);
        plan.clusterSqDist.assign(n, 0.0);
        plan.centroids.reserve(n);
        for (size_t i = 0; i < n; ++i) {
            SampleWindow w;
            w.begin = sigs[i].begin;
            w.records = sigs[i].records;
            w.weight = 1;
            plan.windows.push_back(w);
            plan.centroids.push_back(feats[i]);
        }
        return plan;
    }

    const KMeansResult cl =
        kMeansCluster(feats, rep.sampleWindows, sampleSeed(rep.seed));
    const size_t k = cl.centroids.size();

    // Per cluster: population, dispersion, and the member closest to
    // the centroid (lowest index on ties) as its representative.
    std::vector<uint64_t> count(k, 0);
    std::vector<double> sqdist(k, 0.0);
    std::vector<size_t> repIdx(k, 0);
    std::vector<double> repDist(
        k, std::numeric_limits<double>::max());
    for (size_t i = 0; i < n; ++i) {
        const uint32_t c = cl.assignment[i];
        const double d = sigDistSq(feats[i], cl.centroids[c]);
        ++count[c];
        sqdist[c] += d;
        if (d < repDist[c]) {
            repDist[c] = d;
            repIdx[c] = i;
        }
    }

    struct Entry
    {
        SampleWindow w;
        double sq;
        SignatureVec cen;
    };
    std::vector<Entry> entries;
    entries.reserve(k);
    for (size_t c = 0; c < k; ++c) {
        if (count[c] == 0)
            continue;
        Entry e;
        e.w.begin = sigs[repIdx[c]].begin;
        e.w.records = sigs[repIdx[c]].records;
        e.w.weight = count[c];
        e.sq = sqdist[c];
        e.cen = cl.centroids[c];
        entries.push_back(e);
    }
    std::sort(entries.begin(), entries.end(),
              [](const Entry &a, const Entry &b) {
                  return a.w.begin < b.w.begin;
              });
    plan.windows.reserve(entries.size());
    plan.clusterSqDist.reserve(entries.size());
    plan.centroids.reserve(entries.size());
    for (const Entry &e : entries) {
        plan.windows.push_back(e.w);
        plan.clusterSqDist.push_back(e.sq);
        plan.centroids.push_back(e.cen);
    }
    return plan;
}

double
planVariance(const SamplingPlan &plan,
             const std::vector<double> &rep_metric,
             double estimate_total)
{
    if (!plan.enabled() || rep_metric.size() != plan.windows.size())
        return 0.0;
    const size_t k = plan.windows.size();
    double var = 0.0;

    if (plan.policy == SamplingPolicy::kClustered &&
        plan.centroids.size() == k) {
        // Within-cluster signature dispersion projected through the
        // steepest locally observed metric gradient between cluster
        // centroids: g_c = max_{c'} |m_c - m_c'| / ||mu_c - mu_c'||,
        // Var = sum_c g_c^2 * sum_{i in c} ||x_i - mu_c||^2.
        for (size_t c = 0; c < k; ++c) {
            double g = 0.0;
            for (size_t c2 = 0; c2 < k; ++c2) {
                if (c2 == c)
                    continue;
                const double dist = std::sqrt(
                    sigDistSq(plan.centroids[c], plan.centroids[c2]));
                if (dist > 1e-9)
                    g = std::max(
                        g, std::fabs(rep_metric[c] - rep_metric[c2]) /
                            dist);
            }
            var += g * g * plan.clusterSqDist[c];
        }
    } else if (k > 1 && plan.totalWindows > k) {
        // Uniform plans: simple-random-sample between-window variance
        // of the N*mean estimator with finite population correction.
        const double nn = static_cast<double>(k);
        const double N = static_cast<double>(plan.totalWindows);
        double mean = 0.0;
        for (const double m : rep_metric)
            mean += m;
        mean /= nn;
        double s2 = 0.0;
        for (const double m : rep_metric)
            s2 += (m - mean) * (m - mean);
        s2 /= (nn - 1.0);
        var = N * N * (s2 / nn) * (1.0 - nn / N);
    }

    // Relative floor on the band's half-width: the analytic models see
    // signature-predicted dispersion but not the warmup bias of skipped
    // state, so the floor keeps the band honest when clusters are
    // internally homogeneous.
    constexpr double kBandRelFloor = 0.03;
    const double floor_hw = kBandRelFloor * estimate_total;
    const double floor_var = (floor_hw / 1.96) * (floor_hw / 1.96);
    return std::max(var, floor_var);
}

uint32_t
simThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

void
runParallelJobs(size_t njobs, uint32_t threads,
                const std::function<void(size_t)> &job)
{
    if (threads == 0)
        threads = simThreads();
    threads = static_cast<uint32_t>(
        std::min<size_t>(threads, njobs));
    if (threads <= 1) {
        for (size_t i = 0; i < njobs; ++i)
            job(i);
        return;
    }
    std::atomic<size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (uint32_t t = 0; t < threads; ++t) {
        pool.emplace_back([&] {
            for (;;) {
                const size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= njobs)
                    return;
                job(i);
            }
        });
    }
    for (std::thread &t : pool)
        t.join();
}

SamplingPlan
buildSweepPlan(const BufferedTrace &trace, uint64_t total,
               const SweepControl &control)
{
    if (!control.planned())
        return SamplingPlan{};
    total = std::min(total, trace.size());
    if (control.policy == SamplingPolicy::kClustered)
        return buildClusteredPlan(trace, total, control.rep);
    return buildUniformPlan(total, control.rep);
}

} // namespace wsearch
