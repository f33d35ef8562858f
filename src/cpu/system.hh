/**
 * @file
 * Full-system trace simulation: cache hierarchy + branch predictors +
 * TLBs + Top-Down core model in one loop. This is the engine behind
 * Table I, Figures 2, 3, and 8: one pass produces MPKIs, branch
 * behaviour, TLB walks, the Top-Down breakdown, IPC, and AMAT.
 */

#ifndef WSEARCH_CPU_SYSTEM_HH
#define WSEARCH_CPU_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cpu/branch.hh"
#include "cpu/core_model.hh"
#include "cpu/tlb.hh"
#include "memsim/hierarchy.hh"
#include "memsim/simulator.hh"
#include "memsim/sweep.hh"
#include "trace/buffered_trace.hh"
#include "trace/record.hh"

namespace wsearch {

/** Configuration of a full system simulation. */
struct SystemConfig
{
    HierarchySpec hierarchy;
    CoreModelParams core;
    bool modelTlb = false;
    TlbConfig dtlb;  ///< data-side TLB (also used for instruction side)
    /** Direction-predictor capacity; production cores have far more
     *  predictor state than an academic 16K bimodal, which matters
     *  against search's ~4 MiB code footprint. */
    uint32_t predictorEntries = 128 * 1024;
};

/**
 * Everything one system run produces: the cache/coherence counters
 * and window accounting of SimResult, plus branch, TLB and Top-Down
 * counters and the derived IPC and AMAT.
 */
struct SystemResult : SimResult
{
    uint64_t branches = 0;
    uint64_t mispredicts = 0;

    uint64_t dtlbAccesses = 0;
    uint64_t dtlbWalks = 0;
    uint64_t itlbWalks = 0;

    TopDown topdown;
    double ipcPerThread = 0;  ///< per-hardware-thread IPC
    double amatL3Ns = 0;      ///< hL3*tL3 + (1-hL3)*t_miss-path

    /**
     * Merge another result's raw counters (sampled-window
     * accumulation). Derived values (IPC, AMAT) are NOT merged; the
     * simulator recomputes them after the last window.
     */
    SystemResult &
    operator+=(const SystemResult &o)
    {
        SimResult::operator+=(o);
        branches += o.branches;
        mispredicts += o.mispredicts;
        dtlbAccesses += o.dtlbAccesses;
        dtlbWalks += o.dtlbWalks;
        itlbWalks += o.itlbWalks;
        topdown += o.topdown;
        return *this;
    }

    double
    branchMpki() const
    {
        return instructions
            ? 1000.0 * static_cast<double>(mispredicts) /
                  static_cast<double>(instructions)
            : 0.0;
    }

    double
    l3LoadMpki() const
    {
        return l3.mpkiData(instructions);
    }

    double
    l2InstrMpki() const
    {
        return l2.mpki(AccessKind::Code, instructions);
    }

    /**
     * L3 hit rate over data accesses only -- what CAT-style
     * load-counter measurements (paper Figure 8a) observe, and the
     * input to the AMAT/Eq.1 models.
     */
    double
    l3DataHitRate() const
    {
        const uint64_t code_acc = l3.accessesOf(AccessKind::Code);
        const uint64_t code_miss = l3.missesOf(AccessKind::Code);
        const uint64_t acc = l3.totalAccesses() - code_acc;
        const uint64_t miss = l3.totalMisses() - code_miss;
        if (acc == 0)
            return 1.0;
        return 1.0 - static_cast<double>(miss) /
                     static_cast<double>(acc);
    }
};

/** The combined simulator. */
class SystemSimulator
{
  public:
    explicit SystemSimulator(const SystemConfig &cfg);

    /**
     * Simulate @p warmup then @p measure records from @p src.
     * Statistics cover the measurement phase only.
     */
    SystemResult run(TraceSource &src, uint64_t warmup,
                     uint64_t measure);

    /**
     * Chunked-replay variant over a materialized trace: bit-identical
     * counters to run(TraceSource&) on a fresh source producing the
     * same records, with no generation cost or staging copies.
     */
    SystemResult run(const BufferedTrace &trace, uint64_t warmup,
                     uint64_t measure);

    /**
     * Planned representative-window replay through the same window
     * loop as runTracePlanned (see replayPlan): predictor and cache
     * state carried across gaps, per-window counters weight-merged via
     * operator+=. The result carries the confidence band (l3MissVar)
     * and window accounting; derived metrics are recomputed over the
     * merged counters. A plan selecting every window with weight 1
     * reproduces the exact contiguous replay bit-identically.
     */
    SystemResult runPlanned(const BufferedTrace &trace,
                            const SamplingPlan &plan);

    CacheHierarchy &hierarchy() { return hier_; }

  private:
    void step(const TraceRecord &r, bool tlb);
    /** The per-record loop, fed by both the pull and buffered paths. */
    void stepSpan(const TraceRecord *rec, size_t n);
    uint64_t pumpRange(const BufferedTrace &trace, uint64_t begin,
                       uint64_t count);
    void resetStats();
    /** Read the current counters off every component. */
    SystemResult harvestCounters() const;
    /** Compute IPC / AMAT over @p res's (possibly merged) counters. */
    void finalizeDerived(SystemResult &res) const;

    SystemConfig cfg_;
    CacheHierarchy hier_;
    std::vector<TournamentPredictor> predictors_; ///< one per core
    std::vector<Tlb> dtlbs_;
    std::vector<Tlb> itlbs_;
    CoreModel core_; ///< aggregated slot accounting across threads
    uint64_t branches_ = 0;
    uint64_t mispredicts_ = 0;
    uint64_t itlbWalks_ = 0;
    uint64_t dtlbWalks_ = 0;
    uint64_t dtlbAccesses_ = 0;
};

} // namespace wsearch

#endif // WSEARCH_CPU_SYSTEM_HH
