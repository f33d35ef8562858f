#include "core/experiments.hh"

#include <algorithm>
#include <map>
#include <memory>

#include "trace/buffered_trace.hh"
#include "trace/synthetic.hh"

namespace wsearch {

SystemConfig
makeSystemConfig(const WorkloadProfile &profile,
                 const PlatformConfig &platform, const RunOptions &opt)
{
    SystemConfig cfg = platform.system(profile, opt.cores, opt.smtWays,
                                       opt.l3PartitionWays, opt.l4);
    if (opt.l3Bytes)
        cfg.hierarchy.llc.cache.sizeBytes = *opt.l3Bytes;
    if (opt.l3Ways)
        cfg.hierarchy.llc.cache.ways = *opt.l3Ways;
    if (opt.l1Ways) {
        cfg.hierarchy.l1i.cache.ways = *opt.l1Ways;
        cfg.hierarchy.l1d.cache.ways = *opt.l1Ways;
    }
    if (opt.l2Ways)
        cfg.hierarchy.l2.cache.ways = *opt.l2Ways;
    if (opt.blockBytes) {
        cfg.hierarchy.l1i.cache.blockBytes = *opt.blockBytes;
        cfg.hierarchy.l1d.cache.blockBytes = *opt.blockBytes;
        cfg.hierarchy.l2.cache.blockBytes = *opt.blockBytes;
        cfg.hierarchy.llc.cache.blockBytes = *opt.blockBytes;
    }
    cfg.hierarchy.prefetch = opt.prefetch;
    cfg.hierarchy.llc.inclusion = opt.llcInclusion;
    if (opt.llcRepl)
        cfg.hierarchy.llc.cache.repl = *opt.llcRepl;
    cfg.hierarchy.llc.slices = opt.llcSlices;
    cfg.hierarchy.coherence = opt.coherence;
    cfg.modelTlb = opt.modelTlb;
    if (opt.modelTlb)
        cfg.dtlb = opt.hugePages ? platform.tlbHuge : platform.tlbBase;
    return cfg;
}

RecordBudget
recordBudget(const RunOptions &opt)
{
    RecordBudget b;
    b.measure = opt.measureRecords;
    b.warmup = opt.warmupRecords ? opt.warmupRecords : b.measure / 2;
    return b;
}

SystemResult
runWorkload(const WorkloadProfile &profile,
            const PlatformConfig &platform, const RunOptions &opt)
{
    const SystemConfig cfg = makeSystemConfig(profile, platform, opt);
    const uint32_t threads = opt.cores * opt.smtWays;
    SyntheticSearchTrace trace(profile, threads);
    SystemSimulator sim(cfg);
    const RecordBudget budget = recordBudget(opt);
    return sim.run(trace, budget.warmup, budget.measure);
}

std::vector<SystemResult>
runWorkloadSweep(const WorkloadProfile &profile,
                 const PlatformConfig &platform,
                 const std::vector<RunOptions> &options,
                 const SweepControl &control)
{
    // Traces depend on the hardware-thread count, so variations are
    // grouped by cores x smtWays and each group shares one buffer
    // sized for its largest warmup+measure budget.
    struct Group
    {
        uint32_t threads = 0;
        uint64_t records = 0;
        std::shared_ptr<const BufferedTrace> trace;
    };
    std::map<uint32_t, size_t> group_of;
    std::vector<Group> groups;
    std::vector<size_t> job_group(options.size());
    std::vector<RecordBudget> budgets(options.size());
    for (size_t i = 0; i < options.size(); ++i) {
        const uint32_t threads =
            options[i].cores * options[i].smtWays;
        budgets[i] = recordBudget(options[i]);
        auto [it, fresh] = group_of.try_emplace(threads, groups.size());
        if (fresh)
            groups.push_back(Group{threads, 0, nullptr});
        Group &g = groups[it->second];
        g.records = std::max(g.records, budgets[i].total());
        job_group[i] = it->second;
    }

    // Generation is itself embarrassingly parallel across groups
    // (each group owns an independent deterministic source).
    runParallelJobs(groups.size(), control.threads, [&](size_t gi) {
        SyntheticSearchTrace src(profile, groups[gi].threads);
        groups[gi].trace =
            BufferedTrace::materialize(src, groups[gi].records);
    });

    // Representative plans depend only on (trace, total records): one
    // plan per distinct (group, budget) pair, shared by every
    // configuration replaying that trace prefix.
    const bool planned = control.planned();
    std::vector<SamplingPlan> plans;
    std::vector<size_t> job_plan(options.size(), 0);
    if (planned) {
        std::map<std::pair<size_t, uint64_t>, size_t> plan_of;
        std::vector<std::pair<size_t, uint64_t>> plan_keys;
        for (size_t i = 0; i < options.size(); ++i) {
            const std::pair<size_t, uint64_t> key{
                job_group[i], budgets[i].total()};
            auto [it, fresh] =
                plan_of.try_emplace(key, plan_keys.size());
            if (fresh)
                plan_keys.push_back(key);
            job_plan[i] = it->second;
        }
        plans.resize(plan_keys.size());
        runParallelJobs(plan_keys.size(), control.threads,
                        [&](size_t pi) {
            plans[pi] = buildSweepPlan(
                *groups[plan_keys[pi].first].trace,
                plan_keys[pi].second, control);
        });
    }

    std::vector<SystemResult> results(options.size());
    runParallelJobs(options.size(), control.threads, [&](size_t i) {
        SystemSimulator sim(
            makeSystemConfig(profile, platform, options[i]));
        const BufferedTrace &trace = *groups[job_group[i]].trace;
        if (planned)
            results[i] = sim.runPlanned(trace, plans[job_plan[i]]);
        else
            results[i] = sim.run(trace, budgets[i].warmup,
                                 budgets[i].measure);
    });
    return results;
}

std::vector<SystemResult>
runWorkloads(const std::vector<WorkloadSpec> &specs,
             const SweepControl &control)
{
    std::vector<SystemResult> results(specs.size());
    runParallelJobs(specs.size(), control.threads, [&](size_t i) {
        const WorkloadSpec &s = specs[i];
        if (!control.planned()) {
            // Exact jobs stream through the pull path: no job ever
            // holds its whole trace in memory.
            results[i] = runWorkload(s.profile, s.platform, s.opt);
            return;
        }
        const RecordBudget budget = recordBudget(s.opt);
        SyntheticSearchTrace src(s.profile, s.opt.cores * s.opt.smtWays);
        const std::shared_ptr<const BufferedTrace> trace =
            BufferedTrace::materialize(src, budget.total());
        SystemSimulator sim(makeSystemConfig(s.profile, s.platform, s.opt));
        results[i] = sim.runPlanned(
            *trace, buildSweepPlan(*trace, budget.total(), control));
    });
    return results;
}

std::vector<SystemResult>
runWorkloads(const std::vector<WorkloadSpec> &specs, uint32_t threads)
{
    SweepControl control;
    control.threads = threads;
    return runWorkloads(specs, control);
}

} // namespace wsearch
