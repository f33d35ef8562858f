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

void
beginStandardJson(JsonWriter &json, const std::string &bench_name,
                  bool smoke)
{
    json.add("schema_version", static_cast<uint64_t>(2));
    json.add("bench", bench_name);
    json.add("smoke", static_cast<uint64_t>(smoke ? 1 : 0));
    json.add("git_sha", gitSha());
}

bool
finishStandardJson(JsonWriter &json, const std::string &bench_name,
                   double t0_sec)
{
    json.add("wall_time_sec", nowSec() - t0_sec);
    const std::string out = "BENCH_" + bench_name + ".json";
    const bool ok = json.writeFile(out);
    if (ok)
        std::printf("Results written to %s\n", out.c_str());
    else
        std::fprintf(stderr, "bench: failed to write %s\n",
                     out.c_str());
    return ok;
}

void
JsonWriter::comma()
{
    if (needComma_)
        out_ += ",";
    needComma_ = true;
}

void
JsonWriter::add(const std::string &key, double value)
{
    comma();
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", value);
    out_ += "\"" + key + "\":" + buf;
}

void
JsonWriter::add(const std::string &key, uint64_t value)
{
    comma();
    out_ += "\"" + key + "\":" + std::to_string(value);
}

void
JsonWriter::add(const std::string &key, const std::string &value)
{
    comma();
    out_ += "\"" + key + "\":\"" + value + "\"";
}

void
JsonWriter::beginArray(const std::string &key)
{
    comma();
    out_ += "\"" + key + "\":[";
    needComma_ = false;
}

void
JsonWriter::beginObject()
{
    comma();
    out_ += "{";
    needComma_ = false;
}

void
JsonWriter::endObject()
{
    out_ += "}";
    needComma_ = true;
}

void
JsonWriter::endArray()
{
    out_ += "]";
    needComma_ = true;
}

bool
JsonWriter::writeFile(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const std::string body = str();
    const bool ok =
        std::fwrite(body.data(), 1, body.size(), f) == body.size();
    std::fclose(f);
    return ok;
}

std::string
JsonWriter::str() const
{
    return out_ + "}\n";
}

} // namespace bench
} // namespace wsearch
