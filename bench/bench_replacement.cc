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
    bench::Artifact art("replacement", args.smoke);
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

    art.add("capacity_points", sizes.size());

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
            art.row()
                .key("l3_capacity", sizes[i] * scale)
                .key("variant", kVariants[j].name)
                .counter("l3_accesses", r.l3.totalAccesses())
                .counter("l3_misses", r.l3.totalMisses())
                .add("writebacks", r.writebacks)
                .counter("back_invalidations", r.backInvalidations)
                .counter("instructions", r.instructions);
        }
        t.addRow(row);
    }
    t.print();
    std::printf("\nSRRIP/DRRIP protect the reused shard band against "
                "the scan-like posting traffic; the exclusive LLC "
                "buys ~L2-sized extra effective capacity, the "
                "inclusive one pays back-invalidations.\n");
    return art.finish();
}

} // namespace
} // namespace wsearch

int
main(int argc, char **argv)
{
    return wsearch::runReplacement(
        wsearch::bench::parseArgs(argc, argv));
}
