/**
 * @file
 * Reproduces paper Figure 5: accessed working set of the heap and
 * shard segments as thread count scales 1..16, measured from the
 * instrumented engine serving a cache-filtered query stream. The
 * paper's findings: the shard working set grows nearly linearly with
 * threads (disjoint posting lists; little locality survives the
 * cache-server tier), while the heap working set grows much slower
 * (shared structures).
 */

#include <cstdio>

#include "common.hh"
#include "search/engine_trace.hh"
#include "stats/working_set.hh"
#include "util/table.hh"

namespace wsearch {
namespace {

void
runFig5(const bench::Args &args)
{
    bench::banner("Figure 5", "Accessed working set vs threads");
    ProceduralIndex::Config pc; // GiB-scale nominal shard
    ProceduralIndex shard(pc);

    Table t({"Threads", "Heap WS", "Shard WS", "Heap growth",
             "Shard growth"});
    const uint64_t records_per_thread =
        bench::scaledRecords(args, 3'000'000);
    double heap1 = 0, shard1 = 0;
    for (uint32_t threads : {1u, 2u, 4u, 8u, 16u}) {
        EngineTraceConfig cfg;
        cfg.numThreads = threads;
        cfg.queries.vocabSize = shard.numTerms();
        EngineTraceSource src(shard, cfg);

        // The heap segment has three dense sub-regions (metadata,
        // lexicon, per-thread scratch); track each with a bitmap.
        WorkingSetTracker meta_ws(
            vaddr::kHeapBase,
            uint64_t(shard.numDocs()) * engine_vaddr::kDocMetaBytes +
                64, 64);
        WorkingSetTracker lex_ws(
            engine_vaddr::kLexiconBase,
            uint64_t(shard.numTerms()) *
                    engine_vaddr::kLexiconEntryBytes + 64, 64);
        WorkingSetTracker scratch_ws(
            engine_vaddr::kScratchBase,
            engine_vaddr::kScratchStride * threads, 64);
        WorkingSetTracker shard_ws(vaddr::kShardBase,
                                   shard.shardBytes() + (1 << 20), 64);
        std::vector<TraceRecord> buf(8192);
        uint64_t total = records_per_thread * threads;
        while (total > 0) {
            const size_t got = src.fill(
                buf.data(), std::min<uint64_t>(buf.size(), total));
            for (size_t i = 0; i < got; ++i) {
                const TraceRecord &r = buf[i];
                if (!r.hasData())
                    continue;
                if (r.kind == AccessKind::Heap) {
                    meta_ws.touch(r.addr);
                    lex_ws.touch(r.addr);
                    scratch_ws.touch(r.addr);
                } else if (r.kind == AccessKind::Shard) {
                    shard_ws.touch(r.addr);
                }
            }
            total -= got;
        }
        const uint64_t heap_bytes = meta_ws.workingSetBytes() +
            lex_ws.workingSetBytes() + scratch_ws.workingSetBytes();
        if (heap1 == 0) {
            heap1 = static_cast<double>(heap_bytes);
            shard1 = static_cast<double>(shard_ws.workingSetBytes());
        }
        t.addRow({Table::fmtInt(threads), formatBytes(heap_bytes),
                  formatBytes(shard_ws.workingSetBytes()),
                  Table::fmt(heap_bytes / heap1, 2) + "x",
                  Table::fmt(shard_ws.workingSetBytes() / shard1, 2) +
                      "x"});
        std::fflush(stdout);
    }
    t.print();
    std::printf("\nPaper: shard WS grows ~linearly with threads; heap "
                "WS grows much slower (shared structures). At 16 "
                "threads the paper's heap WS is ~1 GiB.\n");
}

} // namespace
} // namespace wsearch

int
main(int argc, char **argv)
{
    wsearch::runFig5(wsearch::bench::parseArgs(argc, argv));
    return 0;
}
