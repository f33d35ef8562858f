/**
 * @file
 * Reproduces paper Table I: key performance metrics (per-core IPC, L3
 * load MPKI, L2 instruction MPKI, branch MPKI) for the production
 * search services S1/S2/S3 (leaf and root), the S1 leaf on the PLT1
 * and PLT2 lab platforms, four SPEC CPU2006 representatives, and the
 * CloudSuite v3 Web Search.
 *
 * The rows are heterogeneous (different profiles and platforms), so
 * they run through runWorkloads -- each row gets a private trace and
 * simulator on a worker thread.
 *
 * Paper reference values are printed alongside for comparison; see
 * EXPERIMENTS.md for the recorded deltas.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hh"
#include "util/table.hh"

namespace wsearch {
namespace {

struct Row
{
    std::string label;
    WorkloadProfile profile;
    PlatformConfig platform;
    uint32_t cores;
    /** Paper reference: IPC, L3 load MPKI, L2-I MPKI, branch MPKI. */
    double refIpc, refL3, refL2i, refBr;
};

void
runTable1(const bench::Args &args)
{
    bench::banner("Table I",
                  "Key performance metrics for search, SPEC CPU2006, "
                  "and CloudSuite",
                  args.smoke);

    const PlatformConfig plt1 = PlatformConfig::plt1();
    const PlatformConfig plt2 = PlatformConfig::plt2();

    std::vector<Row> rows = {
        {"S1 leaf (fleet)", WorkloadProfile::s1Leaf(), plt1, 16,
         1.34, 2.20, 11.83, 8.98},
        {"S2 leaf (fleet)", WorkloadProfile::s2Leaf(), plt1, 16,
         1.63, 1.89, 12.44, 6.17},
        {"S3 leaf (fleet)", WorkloadProfile::s3Leaf(), plt1, 16,
         1.46, 1.78, 14.10, 7.99},
        {"S1 root (fleet)", WorkloadProfile::s1Root(), plt1, 16,
         1.03, 4.20, 12.02, 4.71},
        {"S2 root (fleet)", WorkloadProfile::s2Root(), plt1, 16,
         1.14, 3.05, 19.62, 4.84},
        {"S3 root (fleet)", WorkloadProfile::s3Root(), plt1, 16,
         1.08, 3.19, 13.97, 5.37},
        {"S1 leaf PLT1 (lab)", WorkloadProfile::s1Leaf(), plt1, 16,
         1.27, 2.43, 10.78, 9.47},
        {"S1 leaf PLT2 (lab)", WorkloadProfile::s1Leaf(), plt2, 12,
         1.92, 1.15, 2.53, 11.50},
        {"400.perlbench", WorkloadProfile::specPerlbench(), plt1, 1,
         2.72, 0.48, 0.58, 1.80},
        {"429.mcf", WorkloadProfile::specMcf(), plt1, 1,
         0.15, 56.92, 0.31, 11.32},
        {"445.gobmk", WorkloadProfile::specGobmk(), plt1, 1,
         1.43, 0.29, 3.02, 18.40},
        {"471.omnetpp", WorkloadProfile::specOmnetpp(), plt1, 1,
         0.30, 24.92, 0.63, 5.32},
        {"CloudSuite WebSearch", WorkloadProfile::cloudsuiteWebSearch(),
         plt1, 16, 1.61, 0.03, 0.28, 0.51},
    };

    std::vector<WorkloadSpec> specs;
    uint64_t max_records = 0;
    for (const auto &row : rows) {
        RunOptions opt = bench::baseOptions(
            args, row.cores, row.cores >= 8 ? 24'000'000 : 8'000'000);
        specs.push_back({row.profile, row.platform, opt});
        max_records = std::max(max_records, recordBudget(opt).total());
    }
    const std::vector<SystemResult> results =
        runWorkloads(specs, bench::sweepControl(args, max_records));

    Table t({"Workload", "IPC", "(ref)", "L3 load MPKI", "(ref)",
             "L2-I MPKI", "(ref)", "Branch MPKI", "(ref)"});
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row &row = rows[i];
        const SystemResult &r = results[i];
        t.addRow({row.label, Table::fmt(r.ipcPerThread, 2),
                  Table::fmt(row.refIpc, 2), Table::fmt(r.l3LoadMpki(), 2),
                  Table::fmt(row.refL3, 2), Table::fmt(r.l2InstrMpki(), 2),
                  Table::fmt(row.refL2i, 2), Table::fmt(r.branchMpki(), 2),
                  Table::fmt(row.refBr, 2)});
    }
    t.print();
}

} // namespace
} // namespace wsearch

int
main(int argc, char **argv)
{
    wsearch::runTable1(wsearch::bench::parseArgs(argc, argv));
    return 0;
}
