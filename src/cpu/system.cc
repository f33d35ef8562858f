#include "cpu/system.hh"

namespace wsearch {

namespace {

/** Compute IPC / AMAT over @p res's (possibly merged) counters. */
void
finalizeDerived(const SystemConfig &cfg, SystemResult &res)
{
    // Per-thread IPC: the slot accounting aggregates all threads, so
    // divide the implied cycles evenly (threads are symmetric).
    const uint32_t threads =
        cfg.hierarchy.numCores * cfg.hierarchy.smtWays;
    const double cycles_per_thread =
        res.topdown.total() / cfg.core.width / threads;
    const double instr_per_thread =
        static_cast<double>(res.instructions) / threads;
    res.ipcPerThread = cycles_per_thread > 0
        ? instr_per_thread / cycles_per_thread : 0.0;

    // Average memory access time seen at the L3 (paper §III-D),
    // over data accesses as in the paper's CAT measurements.
    const double h_l3 = res.l3DataHitRate();
    double miss_path = cfg.core.memNs;
    if (cfg.hierarchy.l4) {
        const double h_l4 = res.l4.hitRateTotal();
        miss_path = h_l4 * cfg.core.l4HitNs +
            (1.0 - h_l4) * (cfg.core.memNs + cfg.core.l4MissExtraNs);
    }
    res.amatL3Ns = h_l3 * cfg.core.l3HitNs + (1.0 - h_l3) * miss_path;
}

/** @p h with its shared levels (LLC, L4, hasLlc) set to defaults. */
HierarchySpec
privateLevelsOf(const HierarchySpec &h)
{
    HierarchySpec p = h;
    p.llc = HierarchySpec{}.llc;
    p.l4.reset();
    p.hasLlc = true;
    return p;
}

} // namespace

PrivateSystem::PrivateSystem(const SystemConfig &cfg)
    : levels_(cfg.hierarchy), tlb_(cfg.modelTlb)
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
PrivateSystem::resetStats()
{
    levels_.resetStats();
    instructions_ = 0;
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
PrivateSystem::harvest(SystemResult &res) const
{
    res.instructions = instructions_;
    res.l1i = levels_.l1iStats();
    res.l1d = levels_.l1dStats();
    res.l2 = levels_.l2Stats();
    res.writebacks += levels_.writebacks();
    const CoherenceStats coh = levels_.cohStats();
    res.cohUpgrades = coh.upgrades;
    res.cohInvalidations = coh.invalidations;
    res.cohDirtyWritebacks = coh.dirtyWritebacks;
    res.branches = branches_;
    res.mispredicts = mispredicts_;
    res.dtlbAccesses = dtlbAccesses_;
    res.dtlbWalks = dtlbWalks_;
    res.itlbWalks = itlbWalks_;
}

SharedSystem::SharedSystem(const SystemConfig &cfg)
    : levels_(cfg.hierarchy), core_(cfg.core)
{
}

void
SharedSystem::resetStats()
{
    levels_.resetStats();
    core_.reset();
}

void
SharedSystem::harvest(SystemResult &res) const
{
    res.l3 = levels_.l3Stats();
    res.l4 = levels_.l4Stats();
    res.l3Evictions = levels_.l3Evictions();
    res.writebacks += levels_.writebacks();
    res.backInvalidations = levels_.backInvalidations();
    res.topdown = core_.topDown(res.instructions, res.mispredicts);
}

SystemSimulator::SystemSimulator(const SystemConfig &cfg)
    : cfg_(cfg), priv_(cfg), shared_(cfg)
{
}

void
SystemSimulator::resetStats()
{
    priv_.resetStats();
    shared_.resetStats();
}

void
SystemSimulator::stepSpan(const TraceRecord *rec, size_t n)
{
    PrivateLevels &upper = priv_.levels();
    SharedLevels &shared = shared_.levels();
    for (size_t i = 0; i < n; ++i) {
        // Serve each access's requests before the next access starts:
        // an inclusive LLC's back-invalidations must land in between.
        HitLevel served[2];
        uint32_t issued = 0, used = 0;
        const uint8_t out =
            priv_.step(rec[i], [&](const SharedRequests &q) {
                served[issued++] = shared.serve(q, &upper);
            });
        if (out)
            shared_.charge(out, [&] { return served[used++]; });
    }
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
    priv_.harvest(res);
    shared_.harvest(res);
    return res;
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
    finalizeDerived(cfg_, res);
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
    finalizeDerived(cfg_, res);
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
    finalizeDerived(cfg_, res);
    return res;
}

bool
samePrivateHalf(const SystemConfig &a, const SystemConfig &b)
{
    // Every SystemConfig field but `core` (the shared half's).
    return privateLevelsOf(a.hierarchy) == privateLevelsOf(b.hierarchy) &&
        a.modelTlb == b.modelTlb && a.dtlb == b.dtlb &&
        a.predictorEntries == b.predictorEntries;
}

PrivateRecording
recordPrivateHalf(const SystemConfig &cfg, const BufferedTrace &trace,
                  uint64_t warmup, uint64_t measure,
                  const SamplingPlan &plan)
{
    PrivateSystem priv(cfg);
    PrivateRecording rec;
    const auto replay = [&](uint64_t begin, uint64_t count) {
        uint64_t events = 0;
        const uint64_t done = bufferedSpans(
            trace, begin, count, [&](const TraceRecord *r, size_t n) {
                for (size_t i = 0; i < n; ++i) {
                    const uint8_t out = priv.step(
                        r[i], [&](const SharedRequests &q) {
                            for (uint32_t k = 0; k < q.n; ++k)
                                rec.requests.push(q.req[k]);
                        });
                    if (out) {
                        rec.events.push(out);
                        ++events;
                    }
                }
            });
        rec.ranges.push_back({done, events});
        return done;
    };
    const auto reset = [&] { priv.resetStats(); };
    const auto harvest = [&](uint64_t) {
        SystemResult res;
        priv.harvest(res);
        rec.counters.push_back(res);
        return SystemResult{};
    };
    if (plan.enabled()) {
        // The same window loop the shared passes run, so the ranges
        // and the counter resets line up with theirs.
        replayPlan<SystemResult>(plan, replay, reset, harvest);
    } else {
        const uint64_t warmed = replay(0, warmup);
        reset();
        replay(warmed, measure);
        harvest(0);
    }
    return rec;
}

SystemResult
replaySharedHalf(const SystemConfig &cfg, const PrivateRecording &rec,
                 const SamplingPlan &plan)
{
    wsearch_assert(cfg.hierarchy.llc.inclusion !=
                   InclusionMode::Inclusive);
    SharedSystem shared(cfg);
    SharedLevels &levels = shared.levels();
    size_t range = 0, window = 0;
    ChunkedLog<uint8_t>::Reader out(rec.events);
    ChunkedLog<SharedRequest>::Reader req(rec.requests);
    const auto next = [&] {
        for (;;) {
            const SharedRequest &r = req.next();
            const HitLevel level = levels.serve(r, nullptr);
            if (r.demand())
                return level;
        }
    };
    // Ranges come in the order the private pass replayed them; only
    // their event records charge anything or reach the shared levels.
    const auto replay = [&](uint64_t, uint64_t) {
        wsearch_assert(range < rec.ranges.size());
        const PrivateRecording::Range r = rec.ranges[range++];
        for (uint64_t i = 0; i < r.events; ++i)
            shared.charge(out.next(), next);
        return r.records;
    };
    const auto reset = [&] { shared.resetStats(); };
    const auto harvest = [&](uint64_t) {
        SystemResult res = rec.counters[window++];
        shared.harvest(res);
        return res;
    };
    SystemResult res;
    if (plan.enabled()) {
        res = replayPlan<SystemResult>(plan, replay, reset, harvest);
    } else {
        replay(0, 0);
        reset();
        replay(0, 0);
        res = harvest(0);
    }
    wsearch_assert(out.done() && req.done());
    finalizeDerived(cfg, res);
    return res;
}

} // namespace wsearch
