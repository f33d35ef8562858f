#include "memsim/simulator.hh"

namespace wsearch {

namespace {

/** Replay up to @p count records pulled from @p src. */
uint64_t
pump(TraceSource &src, CacheHierarchy &hier, uint64_t count)
{
    return pullSpans(src, count, [&](const TraceRecord *rec, size_t n) {
        pumpSpan(hier, rec, n);
    });
}

} // namespace

SimResult
harvest(const CacheHierarchy &hier, uint64_t instructions)
{
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
    const CoherenceStats coh = hier.cohStats();
    res.cohUpgrades = coh.upgrades;
    res.cohInvalidations = coh.invalidations;
    res.cohDirtyWritebacks = coh.dirtyWritebacks;
    return res;
}

SimResult
runTrace(TraceSource &src, CacheHierarchy &hier, uint64_t warmup,
         uint64_t measure)
{
    pump(src, hier, warmup);
    hier.resetStats();
    return harvest(hier, pump(src, hier, measure));
}

void
pumpSpan(CacheHierarchy &hier, const TraceRecord *rec, size_t n)
{
    for (size_t i = 0; i < n; ++i) {
        const TraceRecord &r = rec[i];
        hier.accessInstr(r.tid, r.pc);
        if (r.hasData()) {
            hier.accessData(r.tid, r.pc, r.addr, r.isStore(), r.kind);
        }
    }
}

uint64_t
pumpRange(const BufferedTrace &trace, CacheHierarchy &hier,
          uint64_t begin, uint64_t count)
{
    return bufferedSpans(trace, begin, count,
                         [&](const TraceRecord *rec, size_t n) {
                             pumpSpan(hier, rec, n);
                         });
}

SimResult
runTrace(const BufferedTrace &trace, CacheHierarchy &hier,
         uint64_t warmup, uint64_t measure)
{
    const uint64_t warmed = pumpRange(trace, hier, 0, warmup);
    hier.resetStats();
    return harvest(hier, pumpRange(trace, hier, warmed, measure));
}

} // namespace wsearch
