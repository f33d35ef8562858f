#include "cpu/system.hh"

namespace wsearch {

SystemSimulator::SystemSimulator(const SystemConfig &cfg)
    : cfg_(cfg), hier_(cfg.hierarchy), core_(cfg.core)
{
    for (uint32_t c = 0; c < cfg.hierarchy.numCores; ++c) {
        predictors_.emplace_back(cfg.predictorEntries);
        if (cfg.modelTlb) {
            dtlbs_.emplace_back(cfg.dtlb);
            itlbs_.emplace_back(cfg.dtlb);
        }
    }
}

void
SystemSimulator::resetStats()
{
    hier_.resetStats();
    core_.reset();
    branches_ = 0;
    mispredicts_ = 0;
    itlbWalks_ = 0;
    dtlbWalks_ = 0;
    dtlbAccesses_ = 0;
    for (auto &t : dtlbs_)
        t.resetStats();
    for (auto &t : itlbs_)
        t.resetStats();
}

void
SystemSimulator::step(const TraceRecord &r, bool tlb)
{
    const uint32_t c = hier_.coreOf(r.tid);
    core_.onInstruction();

    if (tlb && itlbs_[c].access(r.pc) == TlbLevel::Walk) {
        ++itlbWalks_;
        core_.onItlbWalk();
    }
    const HitLevel il = hier_.accessInstr(r.tid, r.pc);
    core_.onInstrFetch(il);

    if (r.isBranch()) {
        ++branches_;
        if (!predictors_[c].predictAndUpdate(r.pc, r.isTaken())) {
            ++mispredicts_;
            core_.onBranchMispredict();
        }
    }
    if (r.hasData()) {
        if (tlb) {
            ++dtlbAccesses_;
            if (dtlbs_[c].access(r.addr) == TlbLevel::Walk) {
                ++dtlbWalks_;
                core_.onTlbWalk();
            }
        }
        const HitLevel dl = hier_.accessData(
            r.tid, r.pc, r.addr, r.isStore(), r.kind);
        core_.onDataAccess(dl);
    }
}

void
SystemSimulator::stepSpan(const TraceRecord *rec, size_t n)
{
    const bool tlb = cfg_.modelTlb;
    for (size_t i = 0; i < n; ++i)
        step(rec[i], tlb);
}

uint64_t
SystemSimulator::pumpRange(const BufferedTrace &trace, uint64_t begin,
                           uint64_t count)
{
    return bufferedSpans(trace, begin, count,
                         [this](const TraceRecord *rec, size_t n) {
                             stepSpan(rec, n);
                         });
}

SystemResult
SystemSimulator::harvestCounters() const
{
    SystemResult res;
    static_cast<SimResult &>(res) = harvest(hier_, core_.instructions());
    res.branches = branches_;
    res.mispredicts = mispredicts_;
    res.dtlbAccesses = dtlbAccesses_;
    res.dtlbWalks = dtlbWalks_;
    res.itlbWalks = itlbWalks_;
    res.topdown = core_.topDown();
    return res;
}

void
SystemSimulator::finalizeDerived(SystemResult &res) const
{
    // Per-thread IPC: the slot accounting aggregates all threads, so
    // divide the implied cycles evenly (threads are symmetric).
    const uint32_t threads =
        cfg_.hierarchy.numCores * cfg_.hierarchy.smtWays;
    const double cycles_per_thread =
        res.topdown.total() / cfg_.core.width / threads;
    const double instr_per_thread =
        static_cast<double>(res.instructions) / threads;
    res.ipcPerThread = cycles_per_thread > 0
        ? instr_per_thread / cycles_per_thread : 0.0;

    // Average memory access time seen at the L3 (paper §III-D),
    // over data accesses as in the paper's CAT measurements.
    const double h_l3 = res.l3DataHitRate();
    double miss_path = cfg_.core.memNs;
    if (cfg_.hierarchy.l4) {
        const double h_l4 = res.l4.hitRateTotal();
        miss_path = h_l4 * cfg_.core.l4HitNs +
            (1.0 - h_l4) * (cfg_.core.memNs + cfg_.core.l4MissExtraNs);
    }
    res.amatL3Ns = h_l3 * cfg_.core.l3HitNs + (1.0 - h_l3) * miss_path;
}

SystemResult
SystemSimulator::run(TraceSource &src, uint64_t warmup, uint64_t measure)
{
    const auto step_span = [this](const TraceRecord *rec, size_t n) {
        stepSpan(rec, n);
    };
    pullSpans(src, warmup, step_span);
    resetStats();
    pullSpans(src, measure, step_span);
    SystemResult res = harvestCounters();
    finalizeDerived(res);
    return res;
}

SystemResult
SystemSimulator::run(const BufferedTrace &trace, uint64_t warmup,
                     uint64_t measure)
{
    const uint64_t warmed = pumpRange(trace, 0, warmup);
    resetStats();
    pumpRange(trace, warmed, measure);
    SystemResult res = harvestCounters();
    finalizeDerived(res);
    return res;
}

SystemResult
SystemSimulator::runPlanned(const BufferedTrace &trace,
                            const SamplingPlan &plan)
{
    if (!plan.enabled())
        return run(trace, 0, trace.size());
    SystemResult res = replayPlan<SystemResult>(
        plan,
        [&](uint64_t begin, uint64_t count) {
            return pumpRange(trace, begin, count);
        },
        [this] { resetStats(); },
        [this](uint64_t) { return harvestCounters(); });
    finalizeDerived(res);
    return res;
}

} // namespace wsearch
