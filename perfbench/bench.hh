/**
 * @file
 * Shared pieces of the repository benchmark harness (wsbench): run
 * options, the metric sink every phase reports into, sample
 * statistics, the span recorder of the traced run, and the spinners
 * that keep the host's CPUs awake while the leaf serves.
 *
 * The harness drives the library only through its public entry points
 * (runWorkloadSweep/runWorkloads, LeafWorkerPool::submitAsync,
 * LiveIndex + SnapshotSearcher, and the per-layer calls of the traced
 * run). Seeds, offered rates, the SLO and the leaf codec come from
 * perfbench/config.json via run.py; workload sizes are constants next
 * to the code that uses them.
 */

#ifndef WSEARCH_PERFBENCH_BENCH_HH
#define WSEARCH_PERFBENCH_BENCH_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/experiments.hh"
#include "search/query.hh"

namespace wsbench {

/** Steady-clock nanoseconds (same epoch as wsearch::nowNs()). */
uint64_t clockNs();

/** Busy-wait until steady-clock time @p due_ns. */
void spinUntil(uint64_t due_ns);

/**
 * Everything a run is told on its command line (--key=value). Every
 * key is required and an unknown key is an error, so a mistyped key in
 * config.json fails at start-up.
 */
struct Options
{
    // The run: the command-line arguments of run.py.
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    bool setupOnly = false;  ///< stop after set-up, print setup_s
    uint64_t t0Ns = 0;       ///< process start as run.py saw it
    std::string traceOut;    ///< span file of the traced run ("" = none)

    // config.json: input seeds, offered rates, the SLO, the leaf codec.
    uint64_t defaultSeed = 0; ///< the seed the digests are pinned at
    uint64_t corpusSeed = 0, querySeed = 0, arrivalSeed = 0,
             writerSeed = 0;
    double lightQps = 0, nominalQps = 0;
    std::vector<double> searchQps; ///< max-rate ladder, ascending
    double sloP99Us = 0, sloMaxFailFrac = 0;
    std::string leafCodec; ///< "varint" or "packed"
};

/** Parse argv; throws std::invalid_argument on a bad or missing key. */
Options parseOptions(int argc, char **argv);

/**
 * Per-component input seeds. The corpus and the set of distinct queries
 * are a fixed data set (config.json): which corpus and which heavy
 * queries a seed built moved the leaf's max rate by 1.7x between seeds,
 * reproducibly, far more than any bound. --seed varies the simulator
 * traces, which of those queries the traffic draws, when requests
 * arrive, and the live writer's stream.
 */
struct Seeds
{
    uint64_t run = 0;     ///< the --seed value
    bool pinned = false;  ///< run == the default seed of config.json
    uint64_t corpus = 0;  ///< the corpus (fixed)
    uint64_t query = 0;   ///< the distinct queries' terms (fixed)
    uint64_t draw = 0;    ///< salt of the popularity draws
    uint64_t arrival = 0;
    uint64_t writer = 0;

    /** A profile's trace seed: its preset seed at the default seed,
     *  else a mix of the preset seed and the run seed. */
    uint64_t trace(uint64_t preset) const;
};

Seeds deriveSeeds(const Options &o);

/** The Zipf query traffic both serving workloads send. */
wsearch::QueryGenerator::Config queryTraffic(uint32_t vocab, uint64_t seed);

/** Collects named metrics, operation counts and check failures. */
class Report
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit);
    /** Count @p attempted operations, @p failed of which failed. */
    void ops(uint64_t attempted, uint64_t failed);
    /** Record a failed output check (makes the run incorrect). */
    void checkFailed(const std::string &what);

    bool correct() const { return checkFailures_.empty(); }

    /** Fold @p other in; with @p layers_only, only "<layer>." names. */
    void merge(const Report &other, bool layers_only);

    /** The result line: correct/attempted/failed/metrics. */
    std::string json() const;

  private:
    struct Value
    {
        double value;
        std::string unit;
    };
    std::map<std::string, Value> metrics_;
    std::vector<std::string> checkFailures_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
};

/** Quantile @p q of @p v (sorted in place; nearest rank). */
double quantile(std::vector<double> &v, double q);

/** Median of @p v (by value). */
double median(std::vector<double> v);

/** Peak resident set of this process in MiB (getrusage). */
double peakRssMib();

/**
 * One idle-priority (SCHED_IDLE) spinner per CPU for the object's
 * lifetime. On a virtual machine an idle vCPU halts, and waking it
 * again goes through the host scheduler: a parked worker then takes
 * 0.2-1 ms to start, varying with what else the host runs, which
 * swamps the leaf's own latency. The spinners keep every vCPU running;
 * any runnable thread of the harness or the library preempts them at
 * once, so they take no CPU time from the program under test.
 */
class CpuKeepAwake
{
  public:
    CpuKeepAwake();

  private:
    std::vector<std::jthread> spinners_;
};

/**
 * Span recorder of the traced run. A span has a name, start, end, the
 * id of the span that caused it and a request id; spans of one request
 * share the request id. Spans are kept in per-thread buffers and only
 * written out (Chrome trace-event JSON) at exit. When disabled every
 * call is a branch and nothing is stored.
 */
class Spans
{
  public:
    static Spans &get();

    void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Reserve an id so children can name a span before it ends. */
    uint64_t reserve();

    /** Record a finished span; returns its id (0 when disabled). */
    uint64_t add(const char *name, uint64_t start_ns, uint64_t end_ns,
                 uint64_t parent = 0, uint64_t request = 0,
                 uint64_t id = 0);

    /** Spans recorded so far. */
    uint64_t count() const;

    /** Write all spans as Chrome trace-event JSON; false on error. */
    bool writeChromeJson(const std::string &path) const;

    /**
     * Self time per span name: duration minus the part covered by the
     * span's children, summed over every span of that name (ns).
     */
    std::map<std::string, uint64_t> selfTimeByName() const;

    /** Cost of recording one span on this thread (ns), measured. */
    double costPerSpanNs();

  private:
    struct Span
    {
        const char *name;
        uint64_t start, end, id, parent, request;
        uint32_t thread;
    };
    struct Buffer
    {
        uint32_t thread = 0;
        std::vector<Span> spans;
    };
    Buffer &local();
    std::vector<Span> all() const;

    std::atomic<bool> enabled_{false};
    std::atomic<uint64_t> nextId_{1};
    mutable std::mutex mu_; ///< guards buffers_ registration
    std::vector<std::unique_ptr<Buffer>> buffers_;
};

/** RAII span around a block on the calling thread. */
class Scope
{
  public:
    Scope(const char *name, uint64_t parent = 0, uint64_t request = 0);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    const char *name_;
    uint64_t parent_, request_, id_, start_;
};

/**
 * Output checks, deferred until every timed phase is over and
 * peak_rss_mib is taken, so their work and memory stay out of both.
 */
using Checks = std::vector<std::function<void(Report &)>>;

// Workload halves. Each measures for about @p seconds, reports into
// @p out (end-to-end metrics under plain names, per-layer metrics under
// "<layer>." names) and queues its output checks on @p checks. @p traced
// turns on the per-layer measurements that need extra calls.

/** The sweep_ladder simulator half (runWorkloadSweep). */
void runSweepLadder(const Seeds &s, bool traced, double seconds,
                    Report &out, Checks &checks);
/** The table1_rows simulator half (runWorkloads). */
void runTable1Rows(const Seeds &s, double seconds, Report &out,
                   Checks &checks);

/**
 * The leaf serving half: a LeafWorkerPool over a MaterializedIndex in
 * the configured posting codec, driven by an open-loop generator.
 * Construction is the set-up (index build, one untimed closed-loop
 * warm-up pass); run() is timed.
 */
class LeafOpen
{
  public:
    LeafOpen(const Options &o, const Seeds &s);
    ~LeafOpen();
    LeafOpen(const LeafOpen &) = delete;
    LeafOpen &operator=(const LeafOpen &) = delete;

    /** The checks queued on @p checks use this object: keep it alive
     *  until they have run. */
    void run(bool traced, double seconds, Report &out, Checks &checks);

    struct State;

  private:
    std::unique_ptr<State> st_;
};

/**
 * live_mixed, the search/live layer of the traced run: a LiveIndex with
 * a fixed-rate writer, the background MergeWorker and one open-loop
 * query thread. Construction pre-loads, pre-writes and merges the index.
 */
class LiveMixed
{
  public:
    explicit LiveMixed(const Seeds &s);
    ~LiveMixed();
    LiveMixed(const LiveMixed &) = delete;
    LiveMixed &operator=(const LiveMixed &) = delete;

    /** Per-layer metrics only; see LeafOpen::run for @p checks. */
    void run(double seconds, Report &out, Checks &checks);

    struct State;

  private:
    std::unique_ptr<State> st_;
};

/** One fleet row of paper Table I with its reference values. */
struct Table1Row
{
    const char *label;
    wsearch::WorkloadProfile profile;
    double ref[4]; ///< IPC, L3 load MPKI, L2-I MPKI, branch MPKI
    wsearch::RunOptions opt;
};

/** The sweep_ladder configurations (capacity ladder). */
std::vector<wsearch::RunOptions> ladderOptions();
/** The sweep_ladder profile with the run's trace seed. */
wsearch::WorkloadProfile ladderProfile(const Seeds &s);
/** The table1_rows jobs with the run's trace seeds. */
std::vector<Table1Row> table1Rows(const Seeds &s);
/** The ladder configuration and the Table I row that the output
 *  checks replay and the layer ladders measure. */
inline constexpr size_t kLadderCheckJob = 3; // the 1 MiB rung
inline constexpr size_t kRowsCheckJob = 0;   // S1 leaf

/** Traced-run layer ladders of the trace, memsim and cpu layers. */
void runLayerLadders(const Seeds &s, Report &out);

} // namespace wsbench

#endif // WSEARCH_PERFBENCH_BENCH_HH
