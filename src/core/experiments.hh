/**
 * @file
 * Shared experiment-harness helpers used by the bench binaries: run a
 * (workload, platform, hierarchy-variation) combination through the
 * full system simulator, one at a time or as a parallel sweep.
 */

#ifndef WSEARCH_CORE_EXPERIMENTS_HH
#define WSEARCH_CORE_EXPERIMENTS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/platform.hh"
#include "cpu/system.hh"
#include "memsim/sweep.hh"
#include "trace/profile.hh"

namespace wsearch {

/** Variations applied on top of a platform's default hierarchy. */
struct RunOptions
{
    uint32_t cores = 16;
    uint32_t smtWays = 1;
    uint32_t l3PartitionWays = 0;     ///< CAT (0 = all ways)
    std::optional<uint64_t> l3Bytes;  ///< override total L3 size
    std::optional<uint32_t> l3Ways;   ///< override L3 associativity
    std::optional<uint32_t> l1Ways;   ///< override L1-I/L1-D associativity
    std::optional<uint32_t> l2Ways;   ///< override L2 associativity
    std::optional<uint32_t> blockBytes; ///< override all block sizes
    std::optional<CacheLevelSpec> l4;   ///< cache_gen_victim spec
    PrefetchConfig prefetch;
    bool modelTlb = false;
    bool hugePages = false;
    /** LLC inclusion mode relative to the private levels. */
    InclusionMode llcInclusion = InclusionMode::NINE;
    std::optional<ReplPolicy> llcRepl; ///< override LLC replacement
    uint32_t llcSlices = 1;            ///< address-hashed LLC slices
    CoherenceProtocol coherence = CoherenceProtocol::None;
    uint64_t warmupRecords = 0;  ///< 0: half of measureRecords
    uint64_t measureRecords = 20'000'000;
};

/** Build the full SystemConfig one RunOptions variation implies. */
SystemConfig makeSystemConfig(const WorkloadProfile &profile,
                              const PlatformConfig &platform,
                              const RunOptions &opt);

/** The (warmup, measure) record budgets of @p opt. */
struct RecordBudget
{
    uint64_t warmup = 0;
    uint64_t measure = 0;
    uint64_t total() const { return warmup + measure; }
};
RecordBudget recordBudget(const RunOptions &opt);

/** Run one configuration end to end. */
SystemResult runWorkload(const WorkloadProfile &profile,
                         const PlatformConfig &platform,
                         const RunOptions &opt);

/**
 * The parallel sweep: run every RunOptions variation against the same
 * workload/platform concurrently. The trace is generated ONCE per
 * distinct hardware-thread count (traces depend on cores x smtWays)
 * into a shared BufferedTrace, and the replays follow its generation
 * chunk by chunk. Variations that differ only below the L2 (LLC, L4,
 * core model) and have a non-inclusive LLC share one private-level
 * replay of it (recordPrivateHalf), then each runs only its shared
 * half (replaySharedHalf) on a worker thread; the rest replay the
 * buffer through their own simulator. Results are
 * positionally matched to @p options and
 * bit-identical to serial runWorkload calls at any thread count --
 * unless @p control.planned(), which replaces each variation's
 * contiguous warmup+measure replay with a representative-window plan
 * (results then carry sampledWindows != 0 and a confidence band).
 */
std::vector<SystemResult>
runWorkloadSweep(const WorkloadProfile &profile,
                 const PlatformConfig &platform,
                 const std::vector<RunOptions> &options,
                 const SweepControl &control = {});

/** One independent (workload, platform, variation) job. */
struct WorkloadSpec
{
    WorkloadProfile profile;
    PlatformConfig platform;
    RunOptions opt;
};

/**
 * Run heterogeneous workload jobs in parallel (e.g. the Table I
 * rows). Each job generates its own trace -- nothing is shared, so
 * results are bit-identical to serial runWorkload calls unless
 * @p control.planned() (sampled estimates).
 */
std::vector<SystemResult>
runWorkloads(const std::vector<WorkloadSpec> &specs,
             const SweepControl &control);
std::vector<SystemResult>
runWorkloads(const std::vector<WorkloadSpec> &specs,
             uint32_t threads = 0);

} // namespace wsearch

#endif // WSEARCH_CORE_EXPERIMENTS_HH
