/**
 * @file
 * The leaf serving half: the cache-missed leaf of paper Fig. 1. A
 * LeafWorkerPool (cache tier off) over a MaterializedIndex receives
 * Zipf query traffic from one open-loop generator thread at fixed
 * offered rates: a light one, a nominal one, and a ladder for the
 * max-rate estimate. The run is a sequence of rounds, each one short
 * step at every rate, and every figure is a median over the rounds, so
 * a host stall of a few seconds moves one round, not a whole rate.
 * After the timed steps every served top-k is checked against the
 * exhaustive sequential executor.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <future>
#include <memory>
#include <numeric>
#include <optional>
#include <unordered_map>

#include "bench.hh"
#include "openloop.hh"
#include "search/corpus.hh"
#include "search/executor.hh"
#include "search/index.hh"
#include "serve/worker_pool.hh"

namespace wsbench {

using namespace wsearch;

namespace {

constexpr uint32_t kDocs = 20000;
constexpr uint32_t kVocab = 20000;
constexpr uint32_t kWorkers = 2;
constexpr size_t kQueueCapacity = 1024;
/** Queries of the untimed closed-loop warm-up pass. */
constexpr uint64_t kWarmupQueries = 3000;
/** Requests per step: each step's p99 has at least 15 samples beyond
 *  it. The nominal rate, whose tail queues, gets more. */
constexpr uint64_t kStepRequests = 1500;
constexpr uint64_t kNominalStepRequests = 2000;
constexpr uint64_t kMinRounds = 3;
/** Queries of the traced run's single-threaded executor probe. */
constexpr uint64_t kProbeQueries = 5000;

/** One sent request; written by the completion, read after drain. */
struct Sent
{
    uint64_t due = 0;
    uint64_t sendStart = 0; ///< spin done, submitAsync called
    uint64_t admitEnd = 0;  ///< submitAsync returned
    uint64_t done = 0;
    uint64_t span = 0; ///< reserved id of the request span
    ServeOutcome outcome = ServeOutcome::Failed;
    Query query;
    std::vector<ScoredDoc> docs;
};

/** Generator-side samples of the nominal steps, for the layer metrics. */
struct GenDetail
{
    std::vector<double> admitUs; ///< time inside submitAsync
    std::vector<double> depth;   ///< queue depth sampled at each send
    std::vector<double> lateUs;  ///< generator lateness
};

} // namespace

struct LeafOpen::State
{
    Seeds seeds;
    Slo slo;
    double lightQps = 0, nominalQps = 0;
    std::vector<double> searchQps;
    /** On from the start of set-up to the end of the timed steps. */
    std::optional<CpuKeepAwake> awake{std::in_place};
    std::unique_ptr<CorpusGenerator> corpus;
    std::unique_ptr<MaterializedIndex> index;
    std::unique_ptr<QueryGenerator> queries;
    /** One pool per offered rate (light, nominal, then the ladder), kept
     *  across rounds so each rate's pool counters are its own. */
    std::vector<std::unique_ptr<LeafWorkerPool>> pools;
    uint64_t steps = 0;    ///< steps run (salts each step's arrivals)
    uint64_t requests = 0; ///< traced request ids handed out

    /**
     * search.*: QueryExecutor::execute on leaf_open's query stream,
     * single-threaded and without the pool.
     */
    void probeExecutor(Report &out);

    /**
     * One step of @p requests sends at @p rate on @p pool, drained at
     * the end. @p kept (optional) receives the requests for the output
     * check, @p detail the generator's samples.
     */
    StepStats step(LeafWorkerPool &pool, double rate, uint64_t requests,
                   std::vector<Sent> *kept, GenDetail *detail);
};

StepStats
LeafOpen::State::step(LeafWorkerPool &pool, double rate, uint64_t requests,
                      std::vector<Sent> *kept, GenDetail *detail)
{
    std::vector<Sent> sent(requests);
    std::atomic<uint64_t> completed{0};

    StepStats st;
    st.rate = rate;
    Schedule sched(wsearch::mix64(seeds.arrival ^ ++steps), rate,
                   clockNs() + 200'000);
    Spans &spans = Spans::get();
    uint64_t ready = 0; ///< when the generator could send again
    for (uint64_t n = 0; n < requests; ++n) {
        Sent &r = sent[n];
        r.due = sched.next();
        r.query = queries->next();
        r.span = spans.reserve();
        SearchRequest req;
        req.query = r.query;
        spinUntil(r.due);
        r.sendStart = clockNs();
        pool.submitAsync(req, /*block=*/false,
                         [&r, &completed](std::vector<ScoredDoc> &&docs,
                                          ServeOutcome outcome,
                                          uint64_t) {
                             r.docs = std::move(docs);
                             r.outcome = outcome;
                             r.done = clockNs();
                             completed.fetch_add(
                                 1, std::memory_order_release);
                         });
        r.admitEnd = clockNs();
        st.lateUs.push_back(
            static_cast<double>(r.sendStart - std::max(r.due, ready)) / 1e3);
        ready = r.admitEnd;
        st.backlog.push_back(static_cast<double>(
            n + 1 - completed.load(std::memory_order_acquire)));
        if (detail) {
            detail->admitUs.push_back(
                static_cast<double>(r.admitEnd - r.sendStart) / 1e3);
            detail->depth.push_back(static_cast<double>(pool.queueDepth()));
        }
    }
    pool.drain();

    st.sent = requests;
    if (detail)
        detail->lateUs.insert(detail->lateUs.end(), st.lateUs.begin(),
                              st.lateUs.end());
    for (const Sent &r : sent) {
        if (r.outcome != ServeOutcome::Ok) {
            ++st.failed;
            continue;
        }
        st.latUs.push_back(static_cast<double>(r.done - r.due) / 1e3);
        if (r.span) {
            // One request id across its spans: due -> completion, the
            // generator's send (lateness included) and the admit call.
            const uint64_t id = ++requests;
            spans.add("serve.request", r.due, r.done, 0, id, r.span);
            const uint64_t send =
                spans.add("loadgen.send", r.due, r.admitEnd, r.span, id);
            spans.add("serve.submitAsync", r.sendStart, r.admitEnd, send,
                      id);
        }
    }
    if (kept)
        kept->insert(kept->end(), std::make_move_iterator(sent.begin()),
                     std::make_move_iterator(sent.end()));
    return st;
}

void
LeafOpen::State::probeExecutor(Report &out)
{
    NullTouchSink sink;
    QueryExecutor exec(*index, 0, &sink);
    QueryGenerator gen(queryTraffic(index->numTerms(), seeds.query),
                       seeds.draw);
    ExecStats total;
    std::vector<double> us;
    for (uint64_t i = 0; i < kProbeQueries; ++i) {
        SearchRequest req;
        req.query = gen.next();
        const uint64_t t0 = clockNs();
        const SearchResponse resp = exec.execute(req);
        const uint64_t t1 = clockNs();
        Spans::get().add("search.QueryExecutor.execute", t0, t1);
        us.push_back(static_cast<double>(t1 - t0) / 1e3);
        total.merge(resp.stats);
    }
    const double n = static_cast<double>(us.size());
    out.metric("search.exec_us_p50", quantile(us, 0.5), "us");
    out.metric("search.exec_us_p99", quantile(us, 0.99), "us");
    out.metric("search.postings_per_query",
               static_cast<double>(total.postingsDecoded) / n, "postings");
    out.metric("search.scored_per_decoded",
               static_cast<double>(total.candidatesScored) /
                   static_cast<double>(total.postingsDecoded),
               "ratio");
    out.metric("search.blocks_skipped_frac",
               static_cast<double>(total.blocksSkipped) /
                   static_cast<double>(total.blocksSkipped +
                                       total.blocksDecoded),
               "ratio");
}

LeafOpen::LeafOpen(const Options &o, const Seeds &s)
    : st_(std::make_unique<State>())
{
    State &st = *st_;
    st.seeds = s;
    st.slo = Slo{o.sloP99Us, o.sloMaxFailFrac};
    st.lightQps = o.lightQps;
    st.nominalQps = o.nominalQps;
    st.searchQps = o.searchQps;

    CorpusConfig cc;
    cc.numDocs = kDocs;
    cc.vocabSize = kVocab;
    cc.seed = s.corpus;
    st.corpus = std::make_unique<CorpusGenerator>(cc);
    {
        Scope span("search.MaterializedIndex.build");
        st.index = std::make_unique<MaterializedIndex>(
            *st.corpus, o.leafCodec == "packed" ? PostingCodec::kPacked
                                                : PostingCodec::kVarint);
    }
    st.queries = std::make_unique<QueryGenerator>(
        queryTraffic(kVocab, s.query), s.draw);

    LeafWorkerPool::Config pc;
    pc.numWorkers = kWorkers;
    pc.queueCapacity = kQueueCapacity;
    pc.cacheCapacity = 0; // the leaf sees cache-missed traffic
    for (size_t i = 0; i < 2 + st.searchQps.size(); ++i)
        st.pools.push_back(std::make_unique<LeafWorkerPool>(*st.index, pc));

    // One untimed warm-up pass of a fixed number of queries, closed
    // loop with one outstanding (so its length is the work it does),
    // so index pages, executor code and the allocator are warm before
    // the first timed step. It runs on a pool of its own, leaving the
    // timed pools' counters to the timed steps, and on a query stream
    // of its own, leaving the timed stream intact.
    LeafWorkerPool warm_pool(*st.index, pc);
    QueryGenerator warm(queryTraffic(kVocab, s.query), ~s.draw);
    for (uint64_t i = 0; i < kWarmupQueries; ++i) {
        SearchRequest req;
        req.query = warm.next();
        auto reply =
            std::make_shared<std::promise<std::vector<ScoredDoc>>>();
        std::future<std::vector<ScoredDoc>> answer = reply->get_future();
        warm_pool.submit(req, /*block=*/true, reply);
        answer.get();
    }
}

LeafOpen::~LeafOpen() = default;

void
LeafOpen::run(bool traced, double seconds, Report &out, Checks &checks)
{
    State &st = *st_;
    std::printf("leaf_open: %u docs, %u workers, SLO p99 <= %.0f us\n",
                kDocs, kWorkers, st.slo.p99Us);

    // Rounds of one step per rate until the time is up. Only the two
    // fixed-rate steps count toward attempted/failed, and only their
    // answers are kept for the check; the ladder holds overload probes.
    RateSteps light{st.lightQps, {}}, nominal{st.nominalQps, {}};
    std::vector<RateSteps> ladder;
    for (double rate : st.searchQps)
        ladder.push_back(RateSteps{rate, {}});
    std::vector<Sent> kept;
    GenDetail nd;
    const uint64_t t_end =
        clockNs() + static_cast<uint64_t>(seconds * 1e9);
    for (uint64_t round = 0; round < kMinRounds || clockNs() < t_end;
         ++round) {
        light.steps.push_back(st.step(*st.pools[0], light.rate,
                                      kStepRequests, &kept, nullptr));
        nominal.steps.push_back(st.step(*st.pools[1], nominal.rate,
                                        kNominalStepRequests, &kept, &nd));
        for (size_t i = 0; i < ladder.size(); ++i)
            ladder[i].steps.push_back(st.step(*st.pools[2 + i],
                                              ladder[i].rate, kStepRequests,
                                              nullptr, nullptr));
    }
    st.awake.reset();
    for (const RateSteps *r : {&light, &nominal})
        for (const StepStats &s : r->steps)
            out.ops(s.sent, s.failed);

    light.print("light", st.slo);
    nominal.print("nominal", st.slo);
    for (const RateSteps &r : ladder)
        r.print("ladder", st.slo);
    const double max_qps = maxRateAtSlo(ladder, st.slo);
    std::printf("leaf_open: %zu rounds, max rate at SLO %.0f/s\n",
                light.steps.size(), max_qps);

    out.metric("p50_us_light", light.p50Us(), "us");
    // The same latency, from due time, at the percentiles and rates
    // that host preemption on a shared 4-vCPU VM moved by more than any
    // end-to-end bound between runs (IQR/median up to 0.34 over ten
    // seeds; 0.31 for the max rate): reported per layer instead.
    out.metric("serve.max_qps_at_slo", max_qps, "queries/s");
    out.metric("serve.latency_p99_us_light", light.p99Us(), "us");
    out.metric("serve.latency_p50_us", nominal.p50Us(), "us");
    out.metric("serve.latency_p99_us", nominal.p99Us(), "us");

    // Per-layer numbers of the nominal rate.
    out.metric("loadgen.late_us_p99", quantile(nd.lateUs, 0.99), "us");
    out.metric("serve.admit_us_p99", quantile(nd.admitUs, 0.99), "us");
    const ServeSnapshot snap = st.pools[1]->snapshot();
    const LatencyHistogram &svc = snap.serviceNs;
    const LatencyHistogram &soj = snap.sojournNs;
    out.metric("serve.service_us_p50", svc.quantile(0.5) / 1e3, "us");
    out.metric("serve.service_us_p99", svc.quantile(0.99) / 1e3, "us");
    out.metric("serve.sojourn_us_p50", soj.quantile(0.5) / 1e3, "us");
    out.metric("serve.sojourn_us_p99", soj.quantile(0.99) / 1e3, "us");
    // Busy share of the nominal steps' send time (the pool idles
    // between its steps, while the other rates run).
    uint64_t busy = 0;
    for (const WorkerCounters &w : snap.workers)
        busy += w.busyNs;
    const double send_s = static_cast<double>(nominal.steps.size()) *
        static_cast<double>(kNominalStepRequests) / nominal.rate;
    out.metric("serve.busy_frac",
               static_cast<double>(busy) / 1e9 /
                   (static_cast<double>(snap.workers.size()) * send_s),
               "ratio");
    out.metric("serve.queue_depth_mean",
               std::accumulate(nd.depth.begin(), nd.depth.end(), 0.0) /
                   static_cast<double>(std::max<size_t>(1, nd.depth.size())),
               "requests");
    if (traced)
        st.probeExecutor(out);

    // Output check: every served top-k of the fixed-rate steps equals
    // the exhaustive sequential executor's answer for that query.
    checks.push_back([&index = *st.index,
                      kept = std::move(kept)](Report &r) {
        Scope span("check.sequential_topk");
        NullTouchSink sink;
        QueryExecutor seq(index, 0, &sink);
        std::unordered_map<uint64_t, std::vector<ScoredDoc>> expect;
        uint64_t wrong = 0;
        for (const Sent &sent : kept) {
            if (sent.outcome != ServeOutcome::Ok)
                continue;
            auto it = expect.find(sent.query.id);
            if (it == expect.end()) {
                SearchRequest req;
                req.query = sent.query;
                req.algo = ExecAlgo::kSequential;
                it = expect.emplace(sent.query.id, seq.execute(req).docs)
                         .first;
            }
            const std::vector<ScoredDoc> &e = it->second;
            bool same = e.size() == sent.docs.size();
            for (size_t j = 0; same && j < e.size(); ++j)
                same = e[j].doc == sent.docs[j].doc &&
                    e[j].score == sent.docs[j].score;
            wrong += same ? 0 : 1;
        }
        std::printf("leaf_open: checked %zu distinct queries, %llu wrong "
                    "top-k\n",
                    expect.size(), static_cast<unsigned long long>(wrong));
        if (wrong) {
            r.ops(0, wrong);
            r.checkFailed("leaf_open: " + std::to_string(wrong) +
                          " top-k differ from the sequential executor");
        }
    });
}

} // namespace wsbench
