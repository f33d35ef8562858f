#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>
#include <stdexcept>

#include "bench.hh"
#include "util/rng.hh"

namespace wsbench {

uint64_t
clockNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
spinUntil(uint64_t due_ns)
{
    while (clockNs() < due_ns) {
    }
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    auto u64 = [](uint64_t &dst) {
        return [&dst](const std::string &v) {
            dst = std::stoull(v, nullptr, 0);
        };
    };
    auto f64 = [](double &dst) {
        return [&dst](const std::string &v) { dst = std::stod(v); };
    };
    auto flag = [](bool &dst) {
        return [&dst](const std::string &v) { dst = std::stoull(v) != 0; };
    };
    auto str = [](std::string &dst) {
        return [&dst](const std::string &v) { dst = v; };
    };
    const std::map<std::string, std::function<void(const std::string &)>>
        setters = {
            {"workload", str(o.workload)},
            {"seed", u64(o.seed)},
            {"seconds", f64(o.seconds)},
            {"trace", flag(o.trace)},
            {"setup_only", flag(o.setupOnly)},
            {"t0_ns", u64(o.t0Ns)},
            {"trace_out", str(o.traceOut)},
            {"default_seed", u64(o.defaultSeed)},
            {"corpus_seed", u64(o.corpusSeed)},
            {"query_seed", u64(o.querySeed)},
            {"arrival_seed", u64(o.arrivalSeed)},
            {"writer_seed", u64(o.writerSeed)},
            {"leaf_light_qps", f64(o.lightQps)},
            {"leaf_nominal_qps", f64(o.nominalQps)},
            {"leaf_search_qps",
             [&o](const std::string &v) {
                 std::stringstream ss(v);
                 std::string item;
                 while (std::getline(ss, item, ','))
                     o.searchQps.push_back(std::stod(item));
             }},
            {"slo_p99_us", f64(o.sloP99Us)},
            {"slo_max_fail_frac", f64(o.sloMaxFailFrac)},
            {"leaf_codec", str(o.leafCodec)},
        };
    std::set<std::string> seen;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const size_t eq = a.find('=');
        if (a.rfind("--", 0) != 0 || eq == std::string::npos)
            throw std::invalid_argument("expected --key=value, got " + a);
        const std::string key = a.substr(2, eq - 2);
        const auto it = setters.find(key);
        if (it == setters.end())
            throw std::invalid_argument("unknown parameter --" + key);
        it->second(a.substr(eq + 1));
        seen.insert(key);
    }
    for (const auto &[key, set] : setters)
        if (!seen.count(key))
            throw std::invalid_argument("missing parameter --" + key);
    if (o.leafCodec != "varint" && o.leafCodec != "packed")
        throw std::invalid_argument("leaf_codec must be varint or packed");
    if (o.searchQps.size() < 2 ||
        !std::is_sorted(o.searchQps.begin(), o.searchQps.end()))
        throw std::invalid_argument("leaf_search_qps: >= 2 rates, ascending");
    return o;
}

uint64_t
Seeds::trace(uint64_t preset) const
{
    return pinned ? preset : wsearch::mix64(preset ^ wsearch::mix64(run));
}

Seeds
deriveSeeds(const Options &o)
{
    Seeds s;
    s.run = o.seed;
    s.pinned = s.run == o.defaultSeed;
    auto derive = [&](uint64_t base) {
        return s.pinned ? base : wsearch::mix64(base ^ wsearch::mix64(s.run));
    };
    s.corpus = o.corpusSeed;
    s.query = o.querySeed;
    s.draw = s.pinned ? 0 : wsearch::mix64(s.run);
    s.arrival = derive(o.arrivalSeed);
    s.writer = derive(o.writerSeed);
    return s;
}

wsearch::QueryGenerator::Config
queryTraffic(uint32_t vocab, uint64_t seed)
{
    wsearch::QueryGenerator::Config qc;
    qc.vocabSize = vocab; // terms must exist in the index
    qc.distinctQueries = 65536;
    qc.popularityTheta = 0.9;
    qc.maxTerms = 3;
    qc.conjunctiveFrac = 0.7;
    qc.seed = seed;
    return qc;
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    metrics_[name] = Value{value, unit};
}

void
Report::ops(uint64_t attempted, uint64_t failed)
{
    attempted_ += attempted;
    failed_ += failed;
}

void
Report::checkFailed(const std::string &what)
{
    std::printf("CHECK FAILED: %s\n", what.c_str());
    checkFailures_.push_back(what);
}

void
Report::merge(const Report &other, bool layers_only)
{
    for (const auto &[name, v] : other.metrics_)
        if (!layers_only || name.find('.') != std::string::npos)
            metrics_[name] = v;
    checkFailures_.insert(checkFailures_.end(),
                          other.checkFailures_.begin(),
                          other.checkFailures_.end());
    attempted_ += other.attempted_;
    failed_ += other.failed_;
}

std::string
Report::json() const
{
    std::string out = "{\"correct\": ";
    out += correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted_);
    out += ", \"failed\": " + std::to_string(failed_);
    out += ", \"metrics\": {";
    bool first = true;
    char buf[64];
    for (const auto &[name, v] : metrics_) {
        // NaN/inf are not JSON; report them as a failed measurement.
        std::snprintf(buf, sizeof buf, "%.17g",
                      std::isfinite(v.value) ? v.value : -1.0);
        out += first ? "" : ", ";
        out += "\"" + name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + v.unit + "\"}";
        first = false;
    }
    return out + "}}";
}

double
quantile(std::vector<double> &v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const size_t i = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
    return v[std::min(i, v.size() - 1)];
}

double
median(std::vector<double> v)
{
    return quantile(v, 0.5);
}

double
peakRssMib()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

CpuKeepAwake::CpuKeepAwake()
{
    const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned i = 0; i < cpus; ++i)
        spinners_.emplace_back([](std::stop_token stop) {
            sched_param none = {};
            if (sched_setscheduler(0, SCHED_IDLE, &none) != 0)
                return; // never compete with the program at normal priority
            while (!stop.stop_requested()) {
#if defined(__x86_64__) || defined(__i386__)
                __builtin_ia32_pause();
#endif
            }
        });
}

} // namespace wsbench
