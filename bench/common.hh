/**
 * @file
 * Shared harness for the figure/table bench drivers: command-line
 * parsing (--smoke, --threads), the standard RunOptions/budget
 * boilerplate every driver used to duplicate, the SweepControl fed to
 * the parallel sweep engine, the banner, wall-clock timing, and a
 * minimal JSON emitter for machine-readable bench output
 * (BENCH_*.json).
 *
 * The command line is the only way to size a run; any other argument
 * prints a usage line and exits 2:
 *   --smoke       quick-look mode. Record budgets shrink 8x
 *                 (scaledRecords), and the sweeps replay a uniform
 *                 representative-window plan (12 of 96 windows, each
 *                 after a one-window warmup) instead of the full
 *                 contiguous replay; those results are ESTIMATES with
 *                 confidence bands and are banner-labelled as
 *                 sampled. The serving drivers shrink their corpus
 *                 and query counts instead.
 *   --threads=N   sweep worker threads (default: hardware concurrency)
 * bench_cluster also takes --faults (its fault-injection sweep).
 */

#ifndef WSEARCH_BENCH_COMMON_HH
#define WSEARCH_BENCH_COMMON_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiments.hh"

namespace wsearch {
namespace bench {

/** Command-line knobs shared by all drivers. */
struct Args
{
    bool smoke = false;   ///< quick-look mode (see the file comment)
    uint32_t threads = 0; ///< sweep workers; 0 = hardware concurrency
};

/**
 * Parse --smoke and --threads=N, plus --faults when @p faults is given
 * (set to whether it was passed). Any other argument prints a usage
 * line and exits 2, so a typo never silently runs the full-size bench.
 */
Args parseArgs(int argc, char **argv, bool *faults = nullptr);

/** @p nominal records, or an eighth of them under --smoke. */
uint64_t scaledRecords(const Args &args, uint64_t nominal);

/**
 * SweepControl implied by @p args for a driver replaying
 * @p total_records per configuration: worker threads plus, in smoke
 * mode, a kUniform plan from defaultRepresentativeSampling(total)
 * that simulates about a quarter of each trace.
 */
SweepControl sweepControl(const Args &args, uint64_t total_records);

/**
 * SweepControl running clustered representative-window sampling over
 * @p total_records with the default knobs (96 windows, 12 clusters).
 * This is what lets the fig6bc/fig13 capacity sweeps run at full
 * nominal working-set sizes: only ~1/4 of each trace is simulated and
 * every estimate carries a confidence band.
 */
SweepControl clusteredControl(const Args &args, uint64_t total_records);

/**
 * The standard driver preamble: cores + record budgets, each
 * scaledRecords() of its nominal value (warmup 0 = half the measure
 * budget, the repo-wide default).
 */
RunOptions baseOptions(const Args &args, uint32_t cores,
                       uint64_t measure_records,
                       uint64_t warmup_records = 0);

/**
 * Print the standard bench banner, plus the sampled-mode notice when
 * @p sampled (pass args.smoke from a driver whose smoke run replays
 * sampling plans): any numbers printed under it are estimates.
 */
void banner(const std::string &experiment_id,
            const std::string &description, bool sampled = false);

/** Monotonic wall clock in seconds. */
double nowSec();

/**
 * Git revision the binary is benchmarking: WSEARCH_GIT_SHA if set,
 * else GITHUB_SHA (what CI exports), else "unknown". Baked into every
 * BENCH_*.json so scripts/bench_diff.py can tell which two revisions
 * it is comparing.
 */
std::string gitSha();

/**
 * Minimal JSON object writer for BENCH_*.json artifacts. Values are
 * emitted in insertion order; nested arrays of objects supported via
 * beginArray/add/endArray.
 */
class JsonWriter
{
  public:
    void add(const std::string &key, double value);
    void add(const std::string &key, uint64_t value);
    void add(const std::string &key, const std::string &value);
    void beginArray(const std::string &key);
    void beginObject();
    void endObject();
    void endArray();

    /** Write the accumulated object to @p path; returns success. */
    bool writeFile(const std::string &path) const;

    std::string str() const;

  private:
    void comma();
    std::string out_ = "{";
    bool needComma_ = false;
};

/**
 * The uniform BENCH_*.json preamble every driver emits first:
 *   schema_version  bumped when the shared key set or what the
 *                   rows measure changes (bench_diff.py then
 *                   re-baselines instead of reporting drift)
 *   bench           @p bench_name
 *   smoke           1 when the run is the sampled/smoke quick-look
 *   git_sha         gitSha()
 * Driver-specific config and measured/expected counters follow, and
 * finishStandardJson() closes the object. Keeping the frame uniform is
 * what lets bench_all.sh aggregate and bench_diff.py gate without
 * per-bench special cases.
 */
void beginStandardJson(JsonWriter &json, const std::string &bench_name,
                       bool smoke);

/**
 * Append "wall_time_sec" (nowSec() - @p t0_sec) and write the object
 * to BENCH_<bench_name>.json, echoing the path on success. Returns
 * the write status.
 */
bool finishStandardJson(JsonWriter &json,
                        const std::string &bench_name, double t0_sec);

} // namespace bench
} // namespace wsearch

#endif // WSEARCH_BENCH_COMMON_HH
