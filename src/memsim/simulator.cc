#include "memsim/simulator.hh"

#include "memsim/sweep.hh"

namespace wsearch {

SimResult
runTrace(const BufferedTrace &trace, CacheHierarchy &hier,
         uint64_t warmup, uint64_t measure)
{
    BufferedTrace::Reader reader(trace);
    const auto replay = [&](uint64_t begin, uint64_t count) {
        return bufferedSpans(
            reader, begin, count, [&](const TraceRecord *rec, size_t n) {
                for (size_t i = 0; i < n; ++i) {
                    const TraceRecord &r = rec[i];
                    hier.accessInstr(r.tid, r.pc);
                    if (r.hasData()) {
                        hier.accessData(r.tid, r.pc, r.addr,
                                        r.isStore(), r.kind);
                    }
                }
            });
    };
    const auto harvest = [&](uint64_t instructions) {
        SimResult res;
        res.instructions = instructions;
        res.l1i = hier.l1iStats();
        res.l1d = hier.l1dStats();
        res.l2 = hier.l2Stats();
        res.l3 = hier.l3Stats();
        res.l4 = hier.l4Stats();
        res.l3Evictions = hier.l3Evictions();
        res.writebacks = hier.writebacks();
        res.backInvalidations = hier.backInvalidations();
        return res;
    };
    return replayPlan<SimResult>(contiguousPlan(warmup, measure), replay,
                                 [&] { hier.resetStats(); }, harvest);
}

} // namespace wsearch
