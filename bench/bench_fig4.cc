/**
 * @file
 * Reproduces paper Figure 4: steady-state allocated memory footprint
 * (code, stack, heap) as served cores scale from 6 to 36 on a leaf.
 * The paper's observations: heap dominates by ~an order of magnitude
 * and grows sub-linearly (shared structures); code is constant; the
 * shard (not shown) is 100s of GiB. Here the accounting comes from
 * the mini leaf server over the procedural production-scale shard.
 */

#include <cstdio>

#include "common.hh"
#include "search/leaf.hh"
#include "util/table.hh"

namespace wsearch {
namespace {

void
runFig4()
{
    bench::banner("Figure 4", "Allocated footprint vs cores");
    ProceduralIndex::Config pc; // default: GiB-scale nominal shard
    ProceduralIndex shard(pc);

    Table t({"Cores", "Code", "Stack", "Heap",
             "Heap growth vs 6-core"});
    double heap6 = 0;
    for (uint32_t cores : {6u, 16u, 26u, 36u}) {
        LeafServer::Config lc;
        lc.numThreads = cores;
        LeafServer leaf(shard, lc);
        // Run a few queries per thread so per-query scratch
        // high-water marks are realistic.
        QueryGenerator::Config qc;
        qc.vocabSize = shard.numTerms();
        QueryGenerator gen(qc);
        for (uint32_t tid = 0; tid < cores; ++tid)
            for (int i = 0; i < 3; ++i) {
                SearchRequest req;
                req.query = gen.next();
                leaf.serve(tid, req);
            }
        const FootprintStats f = leaf.footprint();
        if (heap6 == 0)
            heap6 = static_cast<double>(f.heapBytes());
        t.addRow({Table::fmtInt(cores), formatBytes(f.codeBytes),
                  formatBytes(f.stackBytes), formatBytes(f.heapBytes()),
                  Table::fmt(f.heapBytes() / heap6, 2) + "x"});
        std::fflush(stdout);
    }
    t.print();
    std::printf("\nShard (not shown above, as in the paper): %s "
                "nominal.\n", formatBytes(shard.shardBytes()).c_str());
    std::printf("Paper: heap ~10x code/stack; heap grows sub-linearly "
                "with cores (6x cores -> well under 6x heap).\n");
}

} // namespace
} // namespace wsearch

int
main(int argc, char **argv)
{
    // The footprint study has no record budget, so --smoke changes
    // nothing; parsing still rejects unknown arguments.
    wsearch::bench::parseArgs(argc, argv);
    wsearch::runFig4();
    return 0;
}
