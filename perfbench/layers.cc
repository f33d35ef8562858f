/**
 * @file
 * Layer ladders of the traced run, done from outside through public
 * calls on one fixed buffer per configuration: generate -> private
 * levels (runTrace with no LLC) -> +LLC (the full runTrace) -> +core
 * model (SystemSimulator::run). Each rung is timed per record; the
 * difference between consecutive rungs is the cost of the level it
 * adds. Statistics cover the measure phase, after the warmup records
 * have filled the modelled caches.
 *
 * Two configurations: the 1 MiB rung of the sweep ladder and the S1
 * leaf row of Table I (45 MiB LLC, whose line state far exceeds a
 * host core's L2).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench.hh"
#include "memsim/simulator.hh"
#include "trace/buffered_trace.hh"
#include "trace/synthetic.hh"

namespace wsbench {

using namespace wsearch;

namespace {

/** Share of fetches in the same 64 B block as the core's last fetch. */
double
sameBlockFetchShare(const BufferedTrace &trace, uint32_t cores)
{
    std::vector<uint64_t> last(cores, ~0ull);
    uint64_t same = 0;
    for (size_t c = 0; c < trace.numChunks(); ++c) {
        const BufferedTrace::Span s = trace.chunk(c);
        for (size_t i = 0; i < s.count; ++i) {
            const TraceRecord &r = s.data[i];
            const uint64_t block = r.pc >> 6;
            uint64_t &prev = last[r.tid % cores];
            same += block == prev ? 1 : 0;
            prev = block;
        }
    }
    return trace.size() ? static_cast<double>(same) /
            static_cast<double>(trace.size())
                        : 0.0;
}

double
secondsSince(uint64_t t0)
{
    return static_cast<double>(clockNs() - t0) / 1e9;
}

/** The rungs for one (profile, configuration) pair. */
void
ladder(const std::string &tag, const WorkloadProfile &prof,
       const RunOptions &opt, Report &out)
{
    const SystemConfig cfg =
        makeSystemConfig(prof, PlatformConfig::plt1(), opt);
    const RecordBudget b = recordBudget(opt);
    const double recs = static_cast<double>(b.total());
    const uint32_t threads = opt.cores * opt.smtWays;

    uint64_t t0 = clockNs();
    std::shared_ptr<const BufferedTrace> trace;
    {
        Scope span("trace.materialize");
        SyntheticSearchTrace src(prof, threads);
        trace = BufferedTrace::materialize(src, b.total());
    }
    const double gen = secondsSince(t0);

    // Each rung is the median of a few replays on fresh state, so one
    // host hiccup cannot turn a rung difference negative.
    const uint64_t reps = 3;
    HierarchySpec priv = cfg.hierarchy;
    priv.hasLlc = false;
    priv.l4.reset();
    SimResult mem;
    SystemResult sys;
    std::vector<double> t_priv, t_full, t_sys;
    for (uint64_t rep = 0; rep < reps; ++rep) {
        CacheHierarchy priv_hier(priv);
        t0 = clockNs();
        {
            Scope span("memsim.runTrace.private");
            runTrace(*trace, priv_hier, b.warmup, b.measure);
        }
        t_priv.push_back(secondsSince(t0));

        CacheHierarchy full_hier(cfg.hierarchy);
        t0 = clockNs();
        {
            Scope span("memsim.runTrace.full");
            mem = runTrace(*trace, full_hier, b.warmup, b.measure);
        }
        t_full.push_back(secondsSince(t0));

        SystemSimulator sim(cfg);
        t0 = clockNs();
        {
            Scope span("cpu.SystemSimulator.run");
            sys = sim.run(*trace, b.warmup, b.measure);
        }
        t_sys.push_back(secondsSince(t0));
    }
    const double priv_s = median(t_priv), full_s = median(t_full),
                 sys_s = median(t_sys);

    const double ns = 1e9 / recs;
    const double kinstr = static_cast<double>(mem.instructions) / 1e3;
    out.metric("trace.gen_ns_per_rec." + tag, gen * ns, "ns");
    out.metric("trace.same_block_fetch_share." + tag,
               sameBlockFetchShare(*trace, opt.cores), "ratio");
    out.metric("memsim.private_ns_per_rec." + tag, priv_s * ns, "ns");
    out.metric("memsim.llc_ns_per_rec." + tag, (full_s - priv_s) * ns,
               "ns");
    out.metric("cpu.self_ns_per_rec." + tag, (sys_s - full_s) * ns, "ns");
    out.metric("memsim.l1i_mpki." + tag, mem.l1i.mpkiTotal(mem.instructions),
               "MPKI");
    out.metric("memsim.l1d_mpki." + tag, mem.l1d.mpkiTotal(mem.instructions),
               "MPKI");
    out.metric("memsim.l2_mpki." + tag, mem.l2.mpkiTotal(mem.instructions),
               "MPKI");
    out.metric("memsim.llc_mpki." + tag, mem.l3.mpkiTotal(mem.instructions),
               "MPKI");
    out.metric("memsim.llc_accesses_pki." + tag,
               static_cast<double>(mem.l3.totalAccesses()) / kinstr, "PKI");
    out.metric("cpu.branch_mpki." + tag, sys.branchMpki(), "MPKI");
    std::printf("layers %-6s gen %.1f  private %.1f  +llc %.1f  +cpu %.1f "
                "ns/rec over %.1f M records\n",
                tag.c_str(), gen * ns, priv_s * ns, (full_s - priv_s) * ns,
                (sys_s - full_s) * ns, recs / 1e6);
}

} // namespace

void
runLayerLadders(const Seeds &s, Report &out)
{
    const std::vector<RunOptions> options = ladderOptions();
    const RunOptions &rung = options[kLadderCheckJob];
    ladder("ladder", ladderProfile(s), rung, out);
    out.metric("trace.buffer_mib",
               static_cast<double>(recordBudget(rung).total() *
                                   sizeof(TraceRecord)) /
                   (1024.0 * 1024.0),
               "MiB");

    const std::vector<Table1Row> rows = table1Rows(s);
    const Table1Row &row = rows[kRowsCheckJob];
    ladder("s1leaf", row.profile, row.opt, out);
}

} // namespace wsbench
