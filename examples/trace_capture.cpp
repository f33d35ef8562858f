/**
 * @file
 * Trace capture & replay: record the instrumented engine's memory
 * trace to a binary file (the workflow the paper used with Pin), then
 * replay it through two different hierarchies — demonstrating that a
 * captured trace is a reusable artifact giving bit-identical streams.
 *
 *   ./examples/trace_capture [records] [path]
 */

#include <cstdio>
#include <cstdlib>

#include "memsim/simulator.hh"
#include "search/engine_trace.hh"
#include "trace/trace_file.hh"

int
main(int argc, char **argv)
{
    using namespace wsearch;

    const uint64_t records =
        argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 2'000'000;
    const std::string path =
        argc > 2 ? argv[2] : "/tmp/wsearch_engine.trace";

    // 1. Capture: run the instrumented engine and write its records.
    ProceduralIndex::Config pc;
    pc.numDocs = 1u << 20;
    pc.numTerms = 1u << 17;
    ProceduralIndex shard(pc);
    EngineTraceConfig tc;
    tc.numThreads = 4;
    tc.queries.vocabSize = shard.numTerms();
    EngineTraceSource engine(shard, tc);

    {
        TraceFileWriter writer(path, tc.numThreads);
        if (!writer.ok()) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return 1;
        }
        const uint64_t written = writer.captureFrom(engine, records);
        std::printf("captured %llu records (%llu queries) to %s\n",
                    (unsigned long long)written,
                    (unsigned long long)engine.queriesExecuted(),
                    path.c_str());
    }

    // 2. Replay through two hierarchies from the same file.
    for (const uint64_t l3 : {8ull << 20, 40ull << 20}) {
        TraceFileReader reader(path);
        if (!reader.ok()) {
            std::fprintf(stderr, "cannot read %s\n", path.c_str());
            return 1;
        }
        HierarchySpec h;
        h.numCores = tc.numThreads;
        h.llc = cache_gen_llc(l3, 64, 20);
        CacheHierarchy hier(h);
        const SimResult r =
            runTrace(reader, hier, records / 4, records / 2);
        std::printf("replay with %-7s L3: L2 MPKI %6.2f | L3 MPKI "
                    "%6.2f | L3 hit %5.1f%%\n",
                    formatBytes(l3).c_str(),
                    r.l2.mpkiTotal(r.instructions),
                    r.l3.mpkiTotal(r.instructions),
                    100.0 * r.l3.hitRateTotal());
    }
    std::remove(path.c_str());
    return 0;
}
