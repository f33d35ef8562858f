#include "common.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace wsearch {
namespace bench {

Args
parseArgs(int argc, char **argv, bool *faults)
{
    Args args;
    if (faults)
        *faults = false;
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (std::strcmp(a, "--smoke") == 0) {
            args.smoke = true;
            continue;
        }
        if (faults && std::strcmp(a, "--faults") == 0) {
            *faults = true;
            continue;
        }
        if (std::strncmp(a, "--threads=", 10) == 0) {
            char *end = nullptr;
            args.threads =
                static_cast<uint32_t>(std::strtoul(a + 10, &end, 10));
            if (end != a + 10 && *end == '\0')
                continue;
        }
        std::fprintf(stderr,
                     "%s: unknown argument '%s'\n"
                     "usage: %s [--smoke] [--threads=N]%s\n",
                     argv[0], a, argv[0], faults ? " [--faults]" : "");
        std::exit(2);
    }
    return args;
}

uint64_t
scaledRecords(const Args &args, uint64_t nominal)
{
    return args.smoke ? nominal / 8 : nominal;
}

SweepControl
sweepControl(const Args &args, uint64_t total_records)
{
    SweepControl control;
    control.threads = args.threads;
    if (args.smoke) {
        control.policy = SamplingPolicy::kUniform;
        control.rep = defaultRepresentativeSampling(total_records);
    }
    return control;
}

SweepControl
clusteredControl(const Args &args, uint64_t total_records)
{
    SweepControl control;
    control.threads = args.threads;
    control.policy = SamplingPolicy::kClustered;
    control.rep = defaultRepresentativeSampling(total_records);
    return control;
}

void
printColdStartNote()
{
    std::printf("cold-start estimate: replayed contiguously over the "
                "full 36 M-record nominal budget, 96-100%% of the "
                "measured data misses\nof a >= 256 MiB cache are first "
                "touches, which no capacity removes; the band bounds "
                "sampling error, not\nwarm-up bias (EXPERIMENTS.md, "
                "known deviation 1).\n\n");
}

RunOptions
baseOptions(const Args &args, uint32_t cores, uint64_t measure_records,
            uint64_t warmup_records)
{
    RunOptions opt;
    opt.cores = cores;
    opt.measureRecords = scaledRecords(args, measure_records);
    opt.warmupRecords = scaledRecords(args, warmup_records);
    return opt;
}

void
banner(const std::string &experiment_id, const std::string &description,
       bool sampled)
{
    std::printf("\n== %s: %s ==\n\n", experiment_id.c_str(),
                description.c_str());
    if (sampled) {
        // The plan's shape does not depend on the trace length; any
        // length that splits evenly into the windows shows it.
        const uint64_t n = 960'000;
        const SamplingPlan plan =
            buildUniformPlan(n, defaultRepresentativeSampling(n));
        std::printf("(--smoke: SAMPLED -- %zu of %llu uniformly spaced "
                    "windows, %.0f%% of each trace simulated; all "
                    "numbers are estimates)\n\n",
                    plan.windows.size(),
                    static_cast<unsigned long long>(plan.totalWindows),
                    100.0 * plan.simulatedFraction());
    }
}

double
nowSec()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

namespace {

/**
 * Git revision the binary is benchmarking: WSEARCH_GIT_SHA if set,
 * else GITHUB_SHA (what CI exports), else "unknown", so
 * scripts/bench_diff.py can tell which two revisions it compares.
 */
std::string
gitSha()
{
    for (const char *var : {"WSEARCH_GIT_SHA", "GITHUB_SHA"}) {
        const char *v = std::getenv(var);
        if (v && *v)
            return v;
    }
    return "unknown";
}

} // namespace

std::string
jsonValue(const std::string &v)
{
    return "\"" + v + "\"";
}

std::string
jsonValue(const char *v)
{
    return jsonValue(std::string(v));
}

std::string
jsonValue(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

std::string
jsonValue(const JsonFields &object)
{
    return object.str();
}

std::string
jsonValue(const std::vector<JsonFields> &objects)
{
    std::string out = "[";
    for (const JsonFields &o : objects)
        out += (out.size() > 1 ? "," : "") + o.str();
    return out + "]";
}

JsonFields
Row::fields() const
{
    JsonFields row = info_;
    row.add("key", key_).add("counters", counters_);
    return row;
}

Artifact::Artifact(const std::string &bench, bool smoke)
    : bench_(bench), t0_(nowSec())
{
    top_.add("schema_version", 3)
        .add("bench", bench)
        .add("smoke", smoke ? 1 : 0)
        .add("git_sha", gitSha());
}

Artifact &
Artifact::check(const std::string &key, uint64_t failures)
{
    checks_.add(key, failures);
    if (failures)
        failed_ += " " + key + "=" + std::to_string(failures);
    return *this;
}

Row &
Artifact::row()
{
    return rows_.emplace_back();
}

int
Artifact::finish() const
{
    std::vector<JsonFields> rows;
    for (const Row &r : rows_)
        rows.push_back(r.fields());
    JsonFields out = top_;
    out.add("config", config_)
        .add("counters", counters_)
        .add("checks", checks_)
        .add("rows", rows)
        .add("wall_time_sec", nowSec() - t0_);

    const std::string path = "BENCH_" + bench_ + ".json";
    const std::string body = out.str() + "\n";
    std::FILE *f = std::fopen(path.c_str(), "w");
    bool ok = f != nullptr;
    if (f) {
        ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
        ok = std::fclose(f) == 0 && ok;
    }
    if (ok)
        std::printf("Results written to %s\n", path.c_str());
    else
        std::fprintf(stderr, "bench: failed to write %s\n",
                     path.c_str());
    if (!failed_.empty())
        std::fprintf(stderr, "bench_%s: FAILED checks:%s\n",
                     bench_.c_str(), failed_.c_str());
    return ok && failed_.empty() ? 0 : 1;
}

} // namespace bench
} // namespace wsearch
