#include "core/experiments.hh"

#include <algorithm>
#include <atomic>
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
        std::shared_ptr<BufferedTrace> trace;
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

    // Each group owns an independent deterministic source, so
    // generation is itself parallel across groups. A synthetic source
    // never runs dry: a group's buffer ends up holding exactly
    // `records` records.
    for (Group &g : groups)
        g.trace = std::make_shared<BufferedTrace>(g.records);
    const auto generate = [&](size_t gi) {
        SyntheticSearchTrace src(profile, groups[gi].threads);
        groups[gi].trace->generate(src);
    };

    // Representative plans depend only on (trace, total records): one
    // plan per distinct (group, budget) pair, shared by every
    // configuration replaying that trace prefix. A clustered plan
    // reads the whole trace for its window signatures, so a clustered
    // sweep generates every group first; a uniform plan needs only the
    // record count.
    const bool planned = control.planned();
    const bool clustered =
        planned && control.policy == SamplingPolicy::kClustered;
    if (clustered)
        runParallelJobs(groups.size(), control.threads, generate);
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
            const auto [g, total] = plan_keys[pi];
            plans[pi] = clustered
                ? buildSweepPlan(*groups[g].trace, total, control)
                : buildUniformPlan(total, control.rep);
        });
    }

    // What job i replays: its group's buffer under its plan, or a
    // warmup+measure split of it. A planned job whose plan came out
    // empty replays the whole buffer, as runPlanned does.
    struct Replay
    {
        size_t group;
        uint64_t warmup, measure;
        const SamplingPlan *plan;
        bool operator==(const Replay &) const = default;
    };
    const SamplingPlan no_plan;
    std::vector<SystemConfig> cfgs;
    std::vector<Replay> replays;
    for (size_t i = 0; i < options.size(); ++i) {
        cfgs.push_back(makeSystemConfig(profile, platform, options[i]));
        const size_t g = job_group[i];
        if (!planned)
            replays.push_back({g, budgets[i].warmup, budgets[i].measure,
                               &no_plan});
        else if (plans[job_plan[i]].enabled())
            replays.push_back({g, 0, 0, &plans[job_plan[i]]});
        else
            replays.push_back({g, 0, groups[g].records, &no_plan});
    }

    // Classes: jobs with the same replay and the same private half.
    // Without an inclusive LLC nothing flows back up from the shared
    // levels, so a class replays its private half once and each job
    // then runs only its own shared half over the recorded stream.
    // Inclusive-LLC jobs and classes of one replay directly.
    std::vector<std::vector<size_t>> classes;
    std::vector<size_t> direct;
    for (size_t i = 0; i < options.size(); ++i) {
        if (cfgs[i].hierarchy.llc.inclusion == InclusionMode::Inclusive) {
            direct.push_back(i);
            continue;
        }
        auto it = std::find_if(
            classes.begin(), classes.end(),
            [&](const std::vector<size_t> &cls) {
                return replays[cls[0]] == replays[i] &&
                    samePrivateHalf(cfgs[cls[0]], cfgs[i]);
            });
        if (it == classes.end())
            classes.push_back({i});
        else
            it->push_back(i);
    }
    std::erase_if(classes, [&](const std::vector<size_t> &cls) {
        if (cls.size() > 1)
            return false;
        direct.push_back(cls[0]);
        return true;
    });

    // Generation, then the private passes (a class's first job stands
    // for it) and direct replays, in parallel: each replay follows its
    // group's generation chunk by chunk. runParallelJobs hands jobs out
    // in index order, so every generation job has started before any
    // job that reads its buffer, and generation never waits: no thread
    // count can deadlock. Then every shared pass, each class's
    // recording freed when its last shared pass ends.
    const size_t gen_jobs = clustered ? 0 : groups.size();
    std::vector<SystemResult> results(options.size());
    std::vector<PrivateRecording> recordings(classes.size());
    runParallelJobs(gen_jobs + classes.size() + direct.size(),
                    control.threads, [&](size_t k) {
        if (k < gen_jobs) {
            generate(k);
            return;
        }
        k -= gen_jobs;
        if (k < classes.size()) {
            const size_t i = classes[k][0];
            const Replay &r = replays[i];
            recordings[k] = recordPrivateHalf(
                cfgs[i], *groups[r.group].trace, r.warmup, r.measure,
                *r.plan);
            return;
        }
        const size_t i = direct[k - classes.size()];
        const Replay &r = replays[i];
        const BufferedTrace &trace = *groups[r.group].trace;
        SystemSimulator sim(cfgs[i]);
        results[i] = r.plan->enabled()
            ? sim.runPlanned(trace, *r.plan)
            : sim.run(trace, r.warmup, r.measure);
    });

    std::vector<std::pair<size_t, size_t>> passes; // (class, job)
    std::vector<std::atomic<size_t>> left(classes.size());
    for (size_t k = 0; k < classes.size(); ++k) {
        left[k].store(classes[k].size(), std::memory_order_relaxed);
        for (const size_t i : classes[k])
            passes.emplace_back(k, i);
    }
    runParallelJobs(passes.size(), control.threads, [&](size_t p) {
        const auto [k, i] = passes[p];
        results[i] =
            replaySharedHalf(cfgs[i], recordings[k], *replays[i].plan);
        if (left[k].fetch_sub(1, std::memory_order_acq_rel) == 1)
            recordings[k] = PrivateRecording{};
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
