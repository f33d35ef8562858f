/**
 * @file
 * live_mixed, the search/live layer of the traced run: writes beside
 * reads on a LiveIndex. Set-up pre-loads the index, runs the writer's
 * hot-set updates for a while (so tombstones, widened per-segment
 * top-k and small segments are all present) and merges. The timed step
 * then runs the fixed-rate writer (commit every batch), the background
 * MergeWorker and one query thread sending open-loop searches through
 * snapshot() + SnapshotSearcher::search.
 *
 * Its numbers are per-layer only: with one synchronous query thread,
 * due-time latency follows the heavy tail of single searches, and on a
 * shared host it swings far more between runs than any end-to-end
 * bound allows.
 *
 * Output check: every query searched a snapshot version at least that
 * of the last commit acknowledged before the query was due.
 */

#include <algorithm>
#include <cstdio>
#include <thread>

#include "bench.hh"
#include "openloop.hh"
#include "search/corpus.hh"
#include "search/live/live_index.hh"
#include "search/live/merge_worker.hh"
#include "search/live/snapshot_search.hh"
#include "serve/clock.hh"

namespace wsbench {

using namespace wsearch;

namespace {

constexpr uint32_t kDocs = 20000;
constexpr uint32_t kVocab = 20000;
constexpr uint32_t kDocLen = 20;
/** The writer commits every kCommitBatch writes (the ack point). */
constexpr uint64_t kCommitBatch = 100;
/** Writes re-index docs among the first kHotDocs. */
constexpr uint64_t kHotDocs = 1000;
constexpr uint64_t kWarmupWrites = 3000;
constexpr uint64_t kWarmupQueries = 2000;
constexpr double kWriteRate = 500; ///< docs/s
constexpr double kQueryRate = 1000; ///< queries/s
constexpr uint64_t kMergePeriodNs = 2'000'000;

/** A commit as the writer saw it return. */
struct Ack
{
    uint64_t at = 0;      ///< ns, after commit() returned
    uint64_t version = 0; ///< the ack version it returned
};

/** One query of the query thread. */
struct Searched
{
    uint64_t due = 0;
    uint64_t version = 0; ///< snapshot version searched
};

} // namespace

struct LiveMixed::State
{
    Seeds seeds;
    std::unique_ptr<CorpusGenerator> corpus;
    std::unique_ptr<LiveIndex> index;
    std::unique_ptr<QueryGenerator> queries;
    SnapshotSearcher searcher{0};
    uint64_t steps = 0;    ///< steps run (salts each step's arrivals)
    uint64_t requests = 0; ///< traced request ids handed out

    // Per-layer samples of the mixed step.
    std::vector<double> searchUs, snapshotUs, segments;
    std::vector<Searched> checked;

    /**
     * One write of the writer's stream: re-index a doc of the hot set
     * (updates concentrate on recent, popular docs) with the content of
     * a never-loaded corpus doc, and commit every batch. Returns the ack
     * version when this write committed, else 0.
     */
    uint64_t
    write(Rng &rng)
    {
        const DocId doc = static_cast<DocId>(rng.nextRange(kHotDocs));
        index->add(doc, corpus->document(nextSource++).terms);
        return ++writes % kCommitBatch == 0 ? index->commit() : 0;
    }

    uint64_t writes = 0;
    DocId nextSource = 0; ///< corpus doc whose content the next write uses

    /** A fixed-rate step of the query thread (this thread). */
    StepStats step(double rate, double seconds);
};

StepStats
LiveMixed::State::step(double rate, double seconds)
{
    StepStats st;
    st.rate = rate;
    const uint64_t start = clockNs() + 1'000'000;
    const uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
    Schedule sched(wsearch::mix64(seeds.arrival ^ ++steps), rate, start);
    Spans &spans = Spans::get();
    for (uint64_t due = sched.next(); due < end; due = sched.next()) {
        SearchRequest req;
        req.query = queries->next();
        spinUntil(due);
        const uint64_t t0 = clockNs();
        const std::shared_ptr<const IndexSnapshot> snap = index->snapshot();
        const uint64_t t1 = clockNs();
        const SearchResponse resp = searcher.search(*snap, req);
        const uint64_t t2 = clockNs();
        ++st.sent;
        st.lateUs.push_back(static_cast<double>(t0 - due) / 1e3);
        // Backlog in requests: how far behind schedule the thread is.
        st.backlog.push_back(static_cast<double>(t0 - due) /
                             sched.gapNs());
        if (!resp.ok) {
            ++st.failed;
            continue;
        }
        st.latUs.push_back(static_cast<double>(t2 - due) / 1e3);
        if (spans.enabled()) {
            const uint64_t req_id = ++requests;
            const uint64_t id = spans.add("live.request", due, t2, 0,
                                          req_id);
            spans.add("live.snapshot", t0, t1, id, req_id);
            spans.add("live.search", t1, t2, id, req_id);
        }
        snapshotUs.push_back(static_cast<double>(t1 - t0) / 1e3);
        searchUs.push_back(static_cast<double>(t2 - t1) / 1e3);
        checked.push_back(Searched{due, snap->version});
        segments.push_back(static_cast<double>(snap->segments.size()));
    }
    return st;
}

LiveMixed::LiveMixed(const Seeds &s) : st_(std::make_unique<State>())
{
    st_->seeds = s;
    CorpusConfig cc;
    cc.numDocs = kDocs;
    cc.vocabSize = kVocab;
    cc.avgDocLen = kDocLen;
    cc.seed = s.corpus;
    st_->corpus = std::make_unique<CorpusGenerator>(cc);
    st_->queries = std::make_unique<QueryGenerator>(
        queryTraffic(kVocab, s.query), s.draw);

    // Pre-load in commit batches, then run the writer's stream for a
    // while and merge, so the timed steps start from the steady state
    // of hot-set updates (tombstones and small segments already there).
    Scope span("live.preload");
    st_->index = std::make_unique<LiveIndex>(LiveConfig());
    for (DocId d = 0; d < kDocs; ++d) {
        st_->index->add(d, st_->corpus->document(d).terms);
        if ((d + 1) % kCommitBatch == 0)
            st_->index->commit();
    }
    st_->index->commit();
    st_->nextSource = kDocs;
    Rng rng(~s.writer);
    for (uint64_t i = 0; i < kWarmupWrites; ++i)
        st_->write(rng);
    st_->index->commit();
    while (st_->index->mergePending())
        st_->index->mergeOnce();

    // Untimed warm-up pass over the merged snapshot.
    QueryGenerator warm(queryTraffic(kVocab, s.query), ~s.draw);
    const auto snap = st_->index->snapshot();
    for (uint64_t i = 0; i < kWarmupQueries; ++i) {
        SearchRequest req;
        req.query = warm.next();
        st_->searcher.search(*snap, req);
    }
}

LiveMixed::~LiveMixed() = default;

void
LiveMixed::run(double seconds, Report &out, Checks &checks)
{
    State &st = *st_;

    // The writer re-indexes hot docs at a fixed rate and commits every
    // batch (commit() is the ack point) while the MergeWorker compacts
    // and the query thread keeps sending at a fixed rate.
    const LiveStats before = st.index->stats();
    std::vector<Ack> acks;
    std::vector<double> commit_us;
    std::jthread writer([&](std::stop_token stop) {
        Rng rng(st.seeds.writer);
        uint64_t next = clockNs();
        while (!stop.stop_requested()) {
            next += static_cast<uint64_t>(1e9 / kWriteRate);
            sleepUntilNs(next);
            const uint64_t t0 = clockNs();
            const uint64_t version = st.write(rng);
            if (version) {
                const uint64_t t1 = clockNs();
                Spans::get().add("live.commit", t0, t1);
                commit_us.push_back(static_cast<double>(t1 - t0) / 1e3);
                acks.push_back(Ack{t1, version});
            }
        }
    });
    MergeWorker::Config mc;
    mc.periodNs = kMergePeriodNs;
    MergeWorker merger(*st.index, mc);
    const StepStats mixed = st.step(kQueryRate, seconds);
    writer.request_stop();
    writer.join();
    merger.stop();
    const LiveStats after = st.index->stats();
    out.ops(mixed.sent + acks.size(), mixed.failed);
    std::printf("live_mixed: %llu queries, p50 %.1f us p99 %.1f us, "
                "%zu commits, %llu merges\n",
                static_cast<unsigned long long>(mixed.sent), mixed.p50Us(),
                mixed.p99Us(), acks.size(),
                static_cast<unsigned long long>(after.merges -
                                                before.merges));

    std::vector<double> late = mixed.lateUs;
    out.metric("live.late_us_p99", quantile(late, 0.99), "us");
    out.metric("live.p99_us", mixed.p99Us(), "us");
    out.metric("live.search_us_p50", quantile(st.searchUs, 0.5), "us");
    out.metric("live.search_us_p999", quantile(st.searchUs, 0.999), "us");
    out.metric("live.snapshot_us_p99", quantile(st.snapshotUs, 0.99),
               "us");
    out.metric("live.commit_us_p50", quantile(commit_us, 0.5), "us");
    out.metric("live.commit_us_p99", quantile(commit_us, 0.99), "us");
    out.metric("live.merges",
               static_cast<double>(after.merges - before.merges), "count");
    double seg_sum = 0;
    for (double x : st.segments)
        seg_sum += x;
    out.metric("live.segments_mean",
               st.segments.empty() ? 0.0 : seg_sum / st.segments.size(),
               "segments");
    out.metric("live.deleted_frac",
               static_cast<double>(after.deletedDocs) /
                   static_cast<double>(after.liveDocs + after.deletedDocs),
               "ratio");

    // Output check: read-your-acked-writes across threads.
    checks.push_back([checked = std::move(st.checked),
                      acks = std::move(acks)](Report &r) {
        Scope span("check.ack_visibility");
        uint64_t stale = 0;
        for (const Searched &q : checked) {
            const auto it = std::lower_bound(
                acks.begin(), acks.end(), q.due,
                [](const Ack &a, uint64_t due) { return a.at < due; });
            if (it != acks.begin() && q.version < std::prev(it)->version)
                ++stale;
        }
        std::printf("live_mixed: checked %zu queries against %zu acks, "
                    "%llu stale\n",
                    checked.size(), acks.size(),
                    static_cast<unsigned long long>(stale));
        if (stale) {
            r.ops(0, stale);
            r.checkFailed("live_mixed: " + std::to_string(stale) +
                          " queries saw a version older than an acked "
                          "commit");
        }
    });
}

} // namespace wsbench
