/**
 * @file
 * Replacement-policy and inclusion-mode study over the Figure-6bc L3
 * capacity ladder (1/32-scale S1 leaf), exercising the composable
 * hierarchy generators end to end:
 *
 *   lru / srrip / drrip   NINE LLC, replacement policy swapped
 *   inclusive / exclusive LLC inclusion mode swapped (LRU)
 *
 * Every (capacity, variant) cell lands in BENCH_replacement.json with
 * exact counters for bench_diff.py to gate.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "common.hh"
#include "util/table.hh"

namespace wsearch {
namespace {

struct Variant
{
    const char *name;
    ReplPolicy repl;
    InclusionMode inclusion;
};

constexpr Variant kVariants[] = {
    {"lru", ReplPolicy::LRU, InclusionMode::NINE},
    {"srrip", ReplPolicy::SRRIP, InclusionMode::NINE},
    {"drrip", ReplPolicy::DRRIP, InclusionMode::NINE},
    {"inclusive", ReplPolicy::LRU, InclusionMode::Inclusive},
    {"exclusive", ReplPolicy::LRU, InclusionMode::Exclusive},
};

int
runReplacement(const bench::Args &args)
{
    const double bench_t0 = bench::nowSec();
    bench::banner("Replacement & inclusion",
                  "LLC policy study on the Fig. 6bc capacity ladder "
                  "(1/32-scale)",
                  args.smoke);
    const WorkloadProfile prof = WorkloadProfile::s1LeafCapacitySweep();
    const PlatformConfig plt1 = PlatformConfig::plt1();
    const uint32_t scale = prof.sweepScale;
    const std::vector<uint64_t> sizes = {128 * KiB, 512 * KiB, 2 * MiB,
                                         8 * MiB};

    std::vector<RunOptions> options;
    for (const uint64_t sim : sizes) {
        for (const Variant &v : kVariants) {
            RunOptions opt =
                bench::baseOptions(args, 16, 8'000'000, 16'000'000);
            opt.l3Bytes = sim;
            opt.l3Ways = 16;
            opt.llcRepl = v.repl;
            opt.llcInclusion = v.inclusion;
            options.push_back(opt);
        }
    }
    const std::vector<SystemResult> results = runWorkloadSweep(
        prof, plt1, options,
        bench::sweepControl(args, recordBudget(options[0]).total()));

    bench::JsonWriter json;
    bench::beginStandardJson(json, "replacement", args.smoke);
    json.add("capacity_points", static_cast<uint64_t>(sizes.size()));
    json.beginArray("rows");

    constexpr size_t kNumVariants =
        sizeof(kVariants) / sizeof(kVariants[0]);
    Table t({"L3 (paper-eq)", "LRU MPKI", "SRRIP MPKI", "DRRIP MPKI",
             "Incl. MPKI", "Excl. MPKI"});
    for (size_t i = 0; i < sizes.size(); ++i) {
        std::vector<std::string> row = {
            formatBytes(sizes[i] * scale)};
        for (size_t j = 0; j < kNumVariants; ++j) {
            const SystemResult &r = results[i * kNumVariants + j];
            row.push_back(
                Table::fmt(r.l3.mpkiTotal(r.instructions), 2));
            json.beginObject();
            json.add("l3_capacity", sizes[i] * scale);
            json.add("variant", std::string(kVariants[j].name));
            json.add("l3_accesses", r.l3.totalAccesses());
            json.add("l3_misses", r.l3.totalMisses());
            json.add("writebacks", r.writebacks);
            json.add("back_invalidations", r.backInvalidations);
            json.add("instructions", r.instructions);
            json.endObject();
        }
        t.addRow(row);
    }
    json.endArray();
    t.print();
    std::printf("\nSRRIP/DRRIP protect the reused shard band against "
                "the scan-like posting traffic; the exclusive LLC "
                "buys ~L2-sized extra effective capacity, the "
                "inclusive one pays back-invalidations.\n");
    bench::finishStandardJson(json, "replacement", bench_t0);
    return 0;
}

} // namespace
} // namespace wsearch

int
main(int argc, char **argv)
{
    return wsearch::runReplacement(
        wsearch::bench::parseArgs(argc, argv));
}
