/**
 * @file
 * Ablations of the design choices DESIGN.md calls out, beyond the
 * paper's own sensitivity bars:
 *
 *  1. L4 fill policy: victim-of-LLC (the paper's memory-side design)
 *     vs conventional allocate-on-miss.
 *  2. Inclusive vs non-inclusive L3 (the paper notes CAT-induced
 *     back-invalidations make its measured results conservative).
 *  3. CAT way-partitioning vs a dedicated same-capacity cache
 *     (partitioning reduces associativity, adding conflicts).
 *  4. L3 replacement policy: LRU vs random vs SRRIP vs DRRIP.
 *
 * Emits BENCH_ablation.json (see bench::Artifact): one rows[] element
 * per (study, variant) with the deterministic counters bench_diff.py
 * gates on.
 */

#include <cstdio>

#include "common.hh"
#include "trace/synthetic.hh"
#include "util/table.hh"

namespace wsearch {
namespace {

uint64_t
budget(const bench::Args &args, uint64_t records)
{
    // Smoke mode quarters the (already 8x-scaled) budget: the studies
    // stay directionally meaningful and CI stays fast.
    const uint64_t n = bench::scaledRecords(args, records);
    return args.smoke ? n / 4 : n;
}

SystemResult
runCfg(const WorkloadProfile &prof, SystemConfig cfg, uint64_t records)
{
    SyntheticSearchTrace trace(prof, cfg.hierarchy.numCores *
                                          cfg.hierarchy.smtWays);
    SystemSimulator sim(cfg);
    return sim.run(trace, records, records);
}

void
addRow(bench::Artifact &art, const char *study, const char *variant,
       const SystemResult &r)
{
    art.row()
        .key("study", study)
        .key("variant", variant)
        .counter("instructions", r.instructions)
        .counter("l3_misses", r.l3.totalMisses())
        .add("l4_accesses", r.l4.totalAccesses())
        .counter("l4_misses", r.l4.totalMisses())
        .add("writebacks", r.writebacks)
        .counter("back_invalidations", r.backInvalidations);
}

void
l4FillPolicy(const bench::Args &args, bench::Artifact &art)
{
    std::printf("--- L4 fill policy (victim vs allocate-on-miss) ---\n");
    const WorkloadProfile prof = WorkloadProfile::s1LeafSweep();
    const PlatformConfig plt1 = PlatformConfig::plt1();
    Table t({"Fill policy", "L4 hit rate", "L3 MPKI", "DRAM accesses "
             "per ki"});
    for (const bool victim : {true, false}) {
        SystemConfig cfg = plt1.system(prof, 16);
        cfg.hierarchy.llc.cache.sizeBytes =
            (23 * MiB) / prof.sweepScale;
        cfg.hierarchy.l4 = cache_gen_victim(
            (1 * GiB) / prof.sweepScale, 64, /*fully_assoc=*/false,
            /*victim_fill=*/victim);
        const SystemResult r =
            runCfg(prof, cfg, budget(args, 24'000'000));
        const uint64_t i = r.instructions;
        t.addRow({victim ? "victim-of-L3 (paper)" : "allocate-on-miss",
                  Table::fmtPct(r.l4.hitRateTotal(), 1),
                  Table::fmt(r.l3.mpkiTotal(i), 2),
                  Table::fmt(r.l4.mpkiTotal(i), 2)});
        addRow(art, "l4_fill", victim ? "victim" : "on_miss", r);
        std::fflush(stdout);
    }
    t.print();
    std::printf("\n");
}

void
inclusiveL3(const bench::Args &args, bench::Artifact &art)
{
    std::printf("--- Inclusive vs non-inclusive L3 ---\n");
    const WorkloadProfile prof = WorkloadProfile::s1Leaf();
    const PlatformConfig plt1 = PlatformConfig::plt1();
    Table t({"L3 policy", "L3 MPKI", "Back-invalidations/ki", "IPC"});
    for (const bool inclusive : {false, true}) {
        SystemConfig cfg = plt1.system(prof, 16);
        cfg.hierarchy.llc.inclusion = inclusive
            ? InclusionMode::Inclusive : InclusionMode::NINE;
        // A small partition makes inclusion victims visible, like the
        // paper's CAT experiments.
        cfg.hierarchy.llc.cache.partitionWays = 4;
        const SystemResult r =
            runCfg(prof, cfg, budget(args, 16'000'000));
        const uint64_t i = r.instructions;
        t.addRow({inclusive ? "inclusive" : "non-inclusive",
                  Table::fmt(r.l3.mpkiTotal(i), 2),
                  Table::fmt(1000.0 * r.backInvalidations /
                                 static_cast<double>(i), 2),
                  Table::fmt(r.ipcPerThread, 3)});
        addRow(art, "inclusion", inclusive ? "inclusive" : "nine", r);
        std::fflush(stdout);
    }
    t.print();
    std::printf("Paper: inclusion back-invalidations under CAT make "
                "the measured rightsizing benefits conservative.\n\n");
}

void
catVsDedicated(const bench::Args &args, bench::Artifact &art)
{
    std::printf("--- CAT partition vs dedicated cache ---\n");
    const WorkloadProfile prof = WorkloadProfile::s1Leaf();
    const PlatformConfig plt1 = PlatformConfig::plt1();
    Table t({"Configuration", "Effective capacity", "Ways", "L3 MPKI"});
    // 4 of 20 ways of 45 MiB (CAT) vs a dedicated 9 MiB 20-way cache.
    {
        SystemConfig cfg = plt1.system(prof, 16);
        cfg.hierarchy.llc.cache.partitionWays = 4;
        const SystemResult r =
            runCfg(prof, cfg, budget(args, 16'000'000));
        t.addRow({"CAT 4/20 ways of 45 MiB", "9 MiB", "4",
                  Table::fmt(r.l3.mpkiTotal(r.instructions), 2)});
        addRow(art, "cat", "partition_4_of_20", r);
    }
    {
        SystemConfig cfg = plt1.system(prof, 16);
        cfg.hierarchy.llc.cache.sizeBytes = 9 * MiB;
        const SystemResult r =
            runCfg(prof, cfg, budget(args, 16'000'000));
        t.addRow({"dedicated 9 MiB, 20-way", "9 MiB", "20",
                  Table::fmt(r.l3.mpkiTotal(r.instructions), 2)});
        addRow(art, "cat", "dedicated_9mib", r);
    }
    t.print();
    std::printf("CAT keeps the set count but cuts associativity, so "
                "it suffers extra conflict misses vs a dedicated "
                "cache of the same capacity.\n\n");
}

void
replacementPolicy(const bench::Args &args, bench::Artifact &art)
{
    std::printf("--- L3 replacement policy ---\n");
    const WorkloadProfile prof = WorkloadProfile::s1Leaf();
    const PlatformConfig plt1 = PlatformConfig::plt1();
    Table t({"Policy", "L3 MPKI", "L3 hit rate"});
    for (const ReplPolicy repl :
         {ReplPolicy::LRU, ReplPolicy::Random, ReplPolicy::SRRIP,
          ReplPolicy::DRRIP}) {
        SystemConfig cfg = plt1.system(prof, 16);
        // Capacity-constrained point where replacement matters.
        cfg.hierarchy.llc.cache.sizeBytes = 9 * MiB;
        cfg.hierarchy.llc.cache.repl = repl;
        const SystemResult r =
            runCfg(prof, cfg, budget(args, 16'000'000));
        const char *name = repl == ReplPolicy::LRU ? "LRU"
            : repl == ReplPolicy::Random ? "random"
            : repl == ReplPolicy::SRRIP ? "SRRIP" : "DRRIP";
        t.addRow({name,
                  Table::fmt(r.l3.mpkiTotal(r.instructions), 2),
                  Table::fmtPct(r.l3.hitRateTotal(), 1)});
        addRow(art, "replacement", name, r);
        std::fflush(stdout);
    }
    t.print();
}

int
runAblation(const bench::Args &args)
{
    bench::Artifact art("ablation", args.smoke);
    bench::banner("Ablations",
                  "Design-choice sensitivity beyond the paper's own "
                  "bars");
    art.config("records_unit", budget(args, 16'000'000));
    l4FillPolicy(args, art);
    inclusiveL3(args, art);
    catVsDedicated(args, art);
    replacementPolicy(args, art);
    return art.finish();
}

} // namespace
} // namespace wsearch

int
main(int argc, char **argv)
{
    return wsearch::runAblation(wsearch::bench::parseArgs(argc, argv));
}
