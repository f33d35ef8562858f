/**
 * @file
 * Microbenchmarks of the simulator's hot paths: cache access, Zipf
 * sampling, trace generation, and the full system loop. These bound
 * how many records per second the experiment sweeps can push.
 *
 * Self-timed (no google-benchmark) so the results flow through
 * bench::Artifact: BENCH_micro.json carries one rows[] element per
 * kernel whose item count and deterministic checksum are counters
 * (bench_diff.py gates them exactly) and whose throughput is
 * informational.
 */

#include <cstdio>

#include "common.hh"
#include "util/table.hh"
#include "cpu/system.hh"
#include "memsim/cache.hh"
#include "trace/synthetic.hh"
#include "util/zipf.hh"

namespace wsearch {
namespace {

/// Defeats dead-code elimination of a benchmark-loop result.
template <typename T>
inline void
sink(const T &v)
{
    asm volatile("" : : "g"(&v) : "memory");
}

struct Kernel
{
    const char *name;
    uint64_t items;    ///< Work units executed (deterministic).
    uint64_t checksum; ///< Deterministic digest of the results.
    double seconds;    ///< Wall time (informational, not gated).
};

Kernel
cacheAccessHit(uint64_t iters)
{
    SetAssocCache c({32 * KiB, 64, 8});
    for (uint64_t a = 0; a < 32 * KiB; a += 64)
        c.access(a, false);
    uint64_t a = 0, hits = 0;
    const double t0 = bench::nowSec();
    for (uint64_t i = 0; i < iters; ++i) {
        hits += c.access(a, false) ? 1 : 0;
        a = (a + 64) & (32 * KiB - 1);
    }
    sink(hits);
    return {"cache_access_hit", iters, hits, bench::nowSec() - t0};
}

Kernel
cacheAccessMissHeavy(uint64_t iters)
{
    SetAssocCache c({256 * KiB, 64, 8});
    Rng rng(1);
    uint64_t hits = 0;
    const double t0 = bench::nowSec();
    for (uint64_t i = 0; i < iters; ++i)
        hits += c.access(rng.nextRange(1u << 26) * 64, false) ? 1 : 0;
    sink(hits);
    return {"cache_access_miss_heavy", iters, hits,
            bench::nowSec() - t0};
}

Kernel
zipfSample(uint64_t iters)
{
    ZipfSampler z(1u << 24, 0.9);
    Rng rng(2);
    uint64_t sum = 0;
    const double t0 = bench::nowSec();
    for (uint64_t i = 0; i < iters; ++i)
        sum += z.sample(rng);
    sink(sum);
    return {"zipf_sample", iters, sum, bench::nowSec() - t0};
}

Kernel
traceGeneration(uint64_t iters)
{
    SyntheticSearchTrace trace(WorkloadProfile::s1Leaf(), 16);
    TraceRecord buf[4096];
    uint64_t sum = 0;
    const double t0 = bench::nowSec();
    for (uint64_t i = 0; i < iters; ++i) {
        const size_t n = trace.fill(buf, 4096);
        sum += n + buf[0].addr;
    }
    sink(sum);
    return {"trace_generation", iters * 4096, sum,
            bench::nowSec() - t0};
}

Kernel
fullSystemLoop(uint64_t iters)
{
    SyntheticSearchTrace trace(WorkloadProfile::s1Leaf(), 16);
    SystemConfig cfg;
    cfg.hierarchy.numCores = 16;
    cfg.hierarchy.llc = cache_gen_llc(40 * MiB, 64, 20);
    SystemSimulator sim(cfg);
    sim.run(trace, 500'000, 0); // warm
    uint64_t checksum = 0;
    const double t0 = bench::nowSec();
    for (uint64_t i = 0; i < iters; ++i) {
        const SystemResult r = sim.run(trace, 0, 100'000);
        checksum += r.instructions + r.l3.totalMisses();
    }
    return {"full_system_loop", iters * 100'000, checksum,
            bench::nowSec() - t0};
}

int
runMicro(const bench::Args &args)
{
    bench::Artifact art("micro", args.smoke);
    bench::banner("Microbenchmarks", "Simulator hot-path throughput");
    // Smoke mode shrinks iteration counts; the checksums stay
    // deterministic at either scale (config carries the mode).
    const uint64_t k = args.smoke ? 1 : 16;

    const Kernel kernels[] = {
        cacheAccessHit(1'000'000 * k),
        cacheAccessMissHeavy(500'000 * k),
        zipfSample(500'000 * k),
        traceGeneration(256 * k),
        fullSystemLoop(4 * k),
    };

    Table t({"Kernel", "Items", "M items/s"});
    for (const Kernel &kn : kernels) {
        const double mips = kn.seconds > 0
            ? kn.items / kn.seconds / 1e6 : 0.0;
        t.addRow({kn.name, Table::fmtInt(kn.items),
                  Table::fmt(mips, 2)});
        art.row()
            .key("kernel", kn.name)
            .counter("items", kn.items)
            .counter("checksum", kn.checksum)
            .add("m_items_per_s", mips);
    }
    t.print();
    return art.finish();
}

} // namespace
} // namespace wsearch

int
main(int argc, char **argv)
{
    return wsearch::runMicro(wsearch::bench::parseArgs(argc, argv));
}
