/**
 * @file
 * Shared harness for the figure/table bench drivers: command-line
 * parsing (--smoke, --threads), the standard RunOptions/budget
 * boilerplate every driver used to duplicate, the SweepControl fed to
 * the parallel sweep engine, the banner, wall-clock timing, and the
 * machine-readable bench output (BENCH_*.json, see Artifact).
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

#include <concepts>
#include <cstdint>
#include <deque>
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

class JsonFields;

/**
 * @p v as JSON text: integers exact, doubles "%.6g", strings quoted,
 * JsonFields as a nested object and vectors of them as an array.
 */
std::string jsonValue(const std::string &v);
std::string jsonValue(const char *v);
std::string jsonValue(double v);
std::string jsonValue(const JsonFields &object);
std::string jsonValue(const std::vector<JsonFields> &objects);
template <std::integral T>
std::string
jsonValue(T v)
{
    return std::to_string(v);
}

/** The fields of one JSON object, in insertion order. */
class JsonFields
{
  public:
    template <typename T>
    JsonFields &
    add(const std::string &key, const T &value)
    {
        body_ += (body_.empty() ? "\"" : ",\"") + key +
            "\":" + jsonValue(value);
        return *this;
    }

    std::string str() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

/**
 * One rows[] element of an Artifact. key() fields identify the row
 * (bench_diff matches it to the baseline row with the same key),
 * counter() fields must equal that row's, and add() fields are
 * informational.
 */
class Row
{
  public:
    template <typename T>
    Row &
    key(const std::string &name, const T &value)
    {
        key_.add(name, value);
        return *this;
    }

    template <typename T>
    Row &
    counter(const std::string &name, const T &value)
    {
        counters_.add(name, value);
        return *this;
    }

    template <typename T>
    Row &
    add(const std::string &name, const T &value)
    {
        info_.add(name, value);
        return *this;
    }

    /** The informational fields, then "key" and "counters". */
    JsonFields fields() const;

  private:
    JsonFields key_, counters_, info_;
};

/**
 * A driver's BENCH_<bench>.json. Each adder names the role of what it
 * records, and scripts/bench_diff.py gates by role alone:
 *
 *   config()   the run's inputs ("config"): when one differs from the
 *              baseline's, the diff is skipped and the run re-baselines
 *   counter()  a deterministic scalar ("counters"): must equal the
 *              baseline's
 *   check()    an in-run failure count ("checks"): must be 0, and a
 *              nonzero count makes finish() return 1
 *   row()      a rows[] element (see Row)
 *   add()      anything else: informational, never gated
 *
 * The frame around them: schema_version (bumped when what the
 * sections hold changes, so bench_diff re-baselines instead of
 * reporting drift), bench, smoke, git_sha and wall_time_sec.
 */
class Artifact
{
  public:
    /** Starts the wall clock that finish() reports. */
    Artifact(const std::string &bench, bool smoke);

    template <typename T>
    Artifact &
    config(const std::string &key, const T &value)
    {
        config_.add(key, value);
        return *this;
    }

    template <typename T>
    Artifact &
    counter(const std::string &key, const T &value)
    {
        counters_.add(key, value);
        return *this;
    }

    Artifact &check(const std::string &key, uint64_t failures);

    template <typename T>
    Artifact &
    add(const std::string &key, const T &value)
    {
        top_.add(key, value);
        return *this;
    }

    /** Append a row; the reference stays valid. */
    Row &row();

    /**
     * Add wall_time_sec, write BENCH_<bench>.json and name every
     * nonzero check on stderr. @return the driver's exit status: 0,
     * or 1 when a check failed or the file could not be written.
     */
    int finish() const;

  private:
    std::string bench_;
    double t0_;
    JsonFields top_, config_, counters_, checks_;
    std::deque<Row> rows_;
    std::string failed_; ///< "key=n" of each nonzero check
};

} // namespace bench
} // namespace wsearch

#endif // WSEARCH_BENCH_COMMON_HH
