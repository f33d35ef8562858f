/**
 * @file
 * Reproduces paper Table II: key attributes of the PLT1 (Intel
 * Haswell) and PLT2 (IBM POWER8) platforms as modeled by this
 * library's PlatformConfig presets.
 */

#include "common.hh"
#include "core/platform.hh"
#include "util/table.hh"

namespace wsearch {
namespace {

void
runTable2()
{
    bench::banner("Table II", "Key attributes of PLT1 and PLT2");
    const PlatformConfig p1 = PlatformConfig::plt1();
    const PlatformConfig p2 = PlatformConfig::plt2();

    Table t({"Attribute", p1.name, p2.name});
    t.addRow({"Microarchitecture", p1.microarchitecture,
              p2.microarchitecture});
    t.addRow({"Number of sockets", Table::fmtInt(p1.sockets),
              Table::fmtInt(p2.sockets)});
    t.addRow({"Cores per socket", Table::fmtInt(p1.coresPerSocket),
              Table::fmtInt(p2.coresPerSocket)});
    t.addRow({"SMT", Table::fmtInt(p1.smtWays),
              Table::fmtInt(p2.smtWays)});
    t.addRow({"Cache block size", formatBytes(p1.cacheBlockBytes),
              formatBytes(p2.cacheBlockBytes)});
    t.addRow({"L1-I$ (per core)", formatBytes(p1.l1iBytes),
              formatBytes(p2.l1iBytes)});
    t.addRow({"L1-D$ (per core)", formatBytes(p1.l1dBytes),
              formatBytes(p2.l1dBytes)});
    t.addRow({"Private L2$ (per core)", formatBytes(p1.l2Bytes),
              formatBytes(p2.l2Bytes)});
    t.addRow({"Shared L3$ (per socket)", formatBytes(p1.l3Bytes),
              formatBytes(p2.l3Bytes)});
    t.print();
}

} // namespace
} // namespace wsearch

int
main(int argc, char **argv)
{
    // A static table: --smoke changes nothing; parsing still rejects
    // unknown arguments.
    wsearch::bench::parseArgs(argc, argv);
    wsearch::runTable2();
    return 0;
}
