#include "core/experiments.hh"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <tuple>

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

    // What each job replays: its group's buffer under a plan, one per
    // distinct (group, warmup, measure) and shared by every job with
    // that key. Exact jobs take the contiguous plan of their budget.
    // A representative plan covers the first warmup+measure records
    // whatever the split, so a planned job's budget counts as
    // {0, total}.
    const bool planned = control.planned();
    const bool clustered =
        planned && control.policy == SamplingPolicy::kClustered;
    using PlanKey = std::tuple<size_t, uint64_t, uint64_t>;
    std::map<PlanKey, size_t> plan_of;
    std::vector<PlanKey> plan_keys;
    std::vector<size_t> job_plan(options.size());
    for (size_t i = 0; i < options.size(); ++i) {
        const RecordBudget b = budgets[i];
        const PlanKey key{job_group[i], planned ? 0 : b.warmup,
                          planned ? b.total() : b.measure};
        auto [it, fresh] = plan_of.try_emplace(key, plan_keys.size());
        if (fresh)
            plan_keys.push_back(key);
        job_plan[i] = it->second;
    }
    std::vector<SystemConfig> cfgs;
    for (const RunOptions &opt : options)
        cfgs.push_back(makeSystemConfig(profile, platform, opt));

    // Classes: jobs with the same plan and the same private half.
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
                return job_plan[cls[0]] == job_plan[i] &&
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

    // A group's buffer is read by its classes' private passes and its
    // direct replays, and nothing else, so it recycles each chunk once
    // they have all passed it. Each group owns an independent
    // deterministic source, so generation is itself parallel across
    // groups. A synthetic source never runs dry: a group's buffer ends
    // up holding exactly `records` records.
    std::vector<uint32_t> readers(groups.size(), 0);
    for (const std::vector<size_t> &cls : classes)
        ++readers[job_group[cls[0]]];
    for (const size_t i : direct)
        ++readers[job_group[i]];
    for (size_t g = 0; g < groups.size(); ++g) {
        groups[g].trace = std::make_shared<BufferedTrace>(
            groups[g].records, BufferedTrace::kDefaultChunkRecords,
            readers[g]);
    }
    const auto generate = [&](size_t gi) {
        SyntheticSearchTrace src(profile, groups[gi].threads);
        groups[gi].trace->generate(src);
    };

    // A clustered plan reads the whole trace for its window
    // signatures, before any reader releases a chunk, so a clustered
    // sweep generates every group first and builds its plans in
    // parallel; the other plans need only the record counts.
    if (clustered)
        runParallelJobs(groups.size(), control.threads, generate);
    std::vector<SamplingPlan> plans(plan_keys.size());
    runParallelJobs(plan_keys.size(), clustered ? control.threads : 1,
                    [&](size_t pi) {
        const auto [g, warmup, measure] = plan_keys[pi];
        const uint64_t total = warmup + measure;
        if (!planned)
            plans[pi] = contiguousPlan(warmup, measure);
        else if (clustered)
            plans[pi] = buildSweepPlan(*groups[g].trace, total, control);
        else
            plans[pi] = buildUniformPlan(total, control.rep);
    });

    // Generation, then the private passes (a class's first job stands
    // for it) and direct replays, in parallel: each replay follows its
    // group's generation chunk by chunk, as one of the buffer's
    // Readers. runParallelJobs hands jobs out in index order, so every
    // generation job has started before any job that reads its buffer.
    // Generation waits for its readers only once all of them are
    // running, so no thread count can deadlock. Then, with the buffers
    // unmapped, every shared pass, each class's recording freed when
    // its last shared pass ends.
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
        const size_t i =
            k < classes.size() ? classes[k][0] : direct[k - classes.size()];
        const BufferedTrace &trace = *groups[job_group[i]].trace;
        const SamplingPlan &plan = plans[job_plan[i]];
        if (k < classes.size()) {
            recordings[k] = recordPrivateHalf(cfgs[i], trace, plan);
            return;
        }
        SystemSimulator sim(cfgs[i]);
        results[i] = sim.runPlanned(trace, plan);
    });
    groups.clear();

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
            replaySharedHalf(cfgs[i], recordings[k], plans[job_plan[i]]);
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
