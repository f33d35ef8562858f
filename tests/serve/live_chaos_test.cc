/**
 * Chaos suite for the live index under the serving stack. Seeded by
 * WSEARCH_CHAOS_SEED (CI pins several seeds and adds a fresh one per
 * run); every probabilistic decision comes from the FaultPlan's
 * stateless hashes, so a seed reproduces a failure exactly.
 *
 * The invariants enforced, per ISSUE 6's acceptance bar:
 *
 *  - exactly-once visibility: every acknowledged add/remove is
 *    visible in every snapshot whose version >= its commit (ack)
 *    version, and never before it -- checked both through the serving
 *    path (per-shard page versions against a committed model) and
 *    directly against every pinned historical snapshot;
 *  - no torn index versions: a query's per-shard answer version is
 *    always a version that was actually published and rolled out to
 *    that shard, even while rollouts, corrupted handoffs, and merge
 *    crashes race live traffic;
 *  - coverage accounting balances: answered/missed counts add up and
 *    every pool's ServeSnapshot stays consistent() throughout.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "search/live/live_index.hh"
#include "search/live/merge_worker.hh"
#include "search/live/snapshot_search.hh"
#include "serve/cluster.hh"
#include "util/rng.hh"

namespace wsearch {
namespace {

constexpr TermId kAllDocs = 7; ///< marker term carried by every doc

uint64_t
chaosBaseSeed()
{
    if (const char *s = std::getenv("WSEARCH_CHAOS_SEED"))
        return std::strtoull(s, nullptr, 0);
    return 0x5eedc4a05ull;
}

SearchRequest
probe(uint32_t topk = 4096)
{
    SearchRequest req;
    req.query.id = 42;
    req.query.terms = {kAllDocs};
    req.query.conjunctive = false;
    req.query.topK = topk;
    return req;
}

std::set<DocId>
docsOf(const std::vector<ScoredDoc> &docs)
{
    std::set<DocId> out;
    for (const ScoredDoc &d : docs)
        out.insert(d.doc);
    return out;
}

void
expectValidPage(const MergedPage &page, uint32_t shards_total)
{
    EXPECT_EQ(page.shardsTotal, shards_total);
    EXPECT_LE(page.shardsAnswered, page.shardsTotal);
    std::set<DocId> seen;
    for (size_t i = 0; i < page.docs.size(); ++i) {
        EXPECT_TRUE(seen.insert(page.docs[i].doc).second)
            << "duplicate doc " << page.docs[i].doc;
        if (i > 0) {
            EXPECT_FALSE(page.docs[i - 1] < page.docs[i]);
        }
    }
}

/** Doc ids of shard @p s live in [base, base + 100000). */
constexpr DocId
shardBase(uint32_t s)
{
    return 100'000u * s;
}

/**
 * Deterministic end-to-end chaos: serial rounds of ingest -> commit
 * -> (possibly crashed) merge -> rolling rollout with injected torn
 * handoffs, a full-visibility query after every round, and a final
 * sweep over every pinned snapshot proving exactly-once visibility at
 * every published version.
 */
void
runSeededLiveChaos(uint64_t seed)
{
    SCOPED_TRACE(::testing::Message() << "chaos seed 0x" << std::hex
                                      << seed);
    constexpr uint32_t kShards = 2;
    constexpr uint32_t kReplicas = 2;
    constexpr int kRounds = 12;

    Rng rng(seed);
    FaultPlan plan(seed);
    for (uint32_t s = 0; s < kShards; ++s) {
        // crashMerge draws on replica 0's spec (shard-wide).
        plan.replicaSpec(s, 0).mergeCrashProb = 0.5;
        for (uint32_t r = 0; r < kReplicas; ++r)
            plan.replicaSpec(s, r).handoffCorruptProb = 0.35;
    }

    struct ShardModel
    {
        std::set<DocId> live; ///< acked docs right now
        /** Committed state at every published version. */
        std::map<uint64_t, std::set<DocId>> atVersion;
        /** Pinned (version, snapshot) pairs for the final sweep. */
        std::vector<std::pair<uint64_t,
                              std::shared_ptr<const IndexSnapshot>>>
            pinned;
        DocId next = 0;
        uint64_t mergeSeq = 0;
    };
    std::vector<std::unique_ptr<LiveIndex>> indexes;
    std::vector<ShardModel> model(kShards);

    LiveConfig lc;
    lc.mergeTriggerSegments = 2;
    for (uint32_t s = 0; s < kShards; ++s) {
        indexes.push_back(std::make_unique<LiveIndex>(lc));
        model[s].next = shardBase(s) + 1;
    }

    ClusterConfig cc;
    cc.replicasPerShard = kReplicas;
    cc.pool.numWorkers = 2;
    cc.deadlineNs = 0; // wait for every shard
    cc.faults = &plan;
    std::vector<LiveIndex *> ptrs;
    for (auto &ix : indexes)
        ptrs.push_back(ix.get());
    ClusterServer cluster(ptrs, cc);

    RolloutResult totals;
    uint64_t merges_completed = 0;
    uint64_t merges_crashed = 0;

    for (int round = 0; round < kRounds; ++round) {
        for (uint32_t s = 0; s < kShards; ++s) {
            LiveIndex &idx = *indexes[s];
            ShardModel &m = model[s];

            // A few adds; occasionally delete a random live doc.
            for (int i = 0; i < 3; ++i) {
                const DocId d = m.next++;
                idx.add(d, {kAllDocs,
                            static_cast<TermId>(100 + d % 5)});
                m.live.insert(d);
            }
            if (!m.live.empty() && rng.nextRange(3) == 0) {
                const DocId victim = *std::next(
                    m.live.begin(), rng.nextRange(m.live.size()));
                EXPECT_TRUE(idx.remove(victim));
                m.live.erase(victim);
            }

            const uint64_t v = idx.commit();
            m.atVersion[v] = m.live;
            m.pinned.emplace_back(v, idx.snapshot());

            // Merge until quiescent or crashed; a crashed merge must
            // leave version and visibility untouched.
            while (idx.mergePending()) {
                const bool crash =
                    plan.crashMerge(s, m.mergeSeq++, /*now_ns=*/0);
                const uint64_t v_before = idx.version();
                const bool merged =
                    idx.mergeOnce([crash] { return crash; });
                if (crash) {
                    EXPECT_FALSE(merged);
                    EXPECT_EQ(idx.version(), v_before);
                    ++merges_crashed;
                    break;
                }
                ASSERT_TRUE(merged);
                ++merges_completed;
                // A merge re-homes visibility, never changes it.
                m.atVersion[idx.version()] = m.live;
                m.pinned.emplace_back(idx.version(), idx.snapshot());
            }

            const RolloutResult rr =
                cluster.rolloutShard(s, idx.snapshot());
            EXPECT_EQ(rr.version, idx.version());
            EXPECT_EQ(rr.replicasUpdated, kReplicas);
            totals.merge(rr);
        }

        // Every round: full-coverage query; each shard's answer must
        // carry the exact version just rolled out and the exact acked
        // doc set at that version.
        const ClusterResult res = cluster.handle(probe());
        expectValidPage(res.page, kShards);
        ASSERT_EQ(res.page.shardsAnswered, kShards);
        ASSERT_EQ(res.page.shardVersions.size(), kShards);
        std::set<DocId> want;
        for (uint32_t s = 0; s < kShards; ++s) {
            EXPECT_EQ(res.page.shardVersions[s],
                      indexes[s]->version())
                << "shard " << s << " round " << round;
            want.insert(model[s].live.begin(), model[s].live.end());
        }
        EXPECT_EQ(docsOf(res.page.docs), want) << "round " << round;
    }

    // The chaos actually happened: merges crashed mid-build AND
    // completed, and at least one snapshot handoff arrived torn (and
    // was refused + resent).
    EXPECT_GE(merges_crashed, 1u);
    EXPECT_GE(merges_completed, 1u);
    EXPECT_GE(totals.handoffsRejected, 1u);

    // Coverage accounting balances and every pool stayed consistent.
    const ClusterSnapshot snap = cluster.snapshot();
    EXPECT_EQ(snap.queries, static_cast<uint64_t>(kRounds));
    EXPECT_EQ(snap.shardAnswers,
              static_cast<uint64_t>(kRounds) * kShards);
    EXPECT_EQ(snap.shardMisses, 0u);
    EXPECT_DOUBLE_EQ(snap.meanCoverage(), 1.0);
    uint64_t rejected = 0;
    for (uint32_t s = 0; s < kShards; ++s) {
        const ShardSnapshot &ss = snap.shards[s];
        EXPECT_TRUE(ss.pool.consistent()) << "shard " << s;
        EXPECT_EQ(ss.rollouts, static_cast<uint64_t>(kRounds));
        EXPECT_EQ(ss.replicasDraining, 0u);
        // One successful adoption per replica per rollout.
        EXPECT_EQ(ss.pool.snapshotsAdopted,
                  static_cast<uint64_t>(kRounds) * kReplicas);
        EXPECT_EQ(ss.pool.indexVersionLow, indexes[s]->version());
        EXPECT_EQ(ss.pool.indexVersionHigh, indexes[s]->version());
        rejected += ss.pool.handoffsRejected;
    }
    EXPECT_EQ(rejected, totals.handoffsRejected);

    // Exactly-once visibility, directly against history: every pinned
    // snapshot still validates and answers precisely the set of docs
    // acked at or before its version.
    SnapshotSearcher searcher(0);
    for (uint32_t s = 0; s < kShards; ++s) {
        for (const auto &pin : model[s].pinned) {
            ASSERT_TRUE(pin.second->validate());
            EXPECT_EQ(pin.second->version, pin.first);
            const SearchResponse r =
                searcher.search(*pin.second, probe());
            EXPECT_EQ(docsOf(r.docs), model[s].atVersion[pin.first])
                << "shard " << s << " version " << pin.first;
        }
    }
}

TEST(LiveChaos, SeededCrashMidMergeAndTornHandoffs)
{
    runSeededLiveChaos(chaosBaseSeed());
    runSeededLiveChaos(chaosBaseSeed() * 0x9e3779b97f4a7c15ull + 1);
}

/**
 * Concurrent chaos: per-shard writer threads ingest/commit/roll out
 * while background MergeWorkers compact (crashing per the plan),
 * handoffs arrive torn per the plan, and client threads hammer the
 * cluster. Clients check, per response and per shard, that the answer
 * version is one that was actually rolled out (never torn, never
 * invented) and that the doc set matches the committed model at
 * exactly that version.
 */
TEST(LiveChaos, ConcurrentIngestMergeQueryRollout)
{
    const uint64_t seed = chaosBaseSeed() ^ 0xc0cc0ull;
    SCOPED_TRACE(::testing::Message() << "chaos seed 0x" << std::hex
                                      << seed);
    constexpr uint32_t kShards = 2;
    constexpr uint32_t kReplicas = 2;
    constexpr int kRounds = 12;

    FaultPlan plan(seed);
    for (uint32_t s = 0; s < kShards; ++s) {
        plan.replicaSpec(s, 0).mergeCrashProb = 0.3;
        for (uint32_t r = 0; r < kReplicas; ++r)
            plan.replicaSpec(s, r).handoffCorruptProb = 0.25;
    }

    struct ShardModel
    {
        std::mutex mu;
        std::set<DocId> live;
        std::map<uint64_t, std::set<DocId>> atVersion;
        std::set<uint64_t> rolledOut; ///< versions delivered to leaves
    };
    std::vector<std::unique_ptr<LiveIndex>> indexes;
    std::vector<std::unique_ptr<ShardModel>> model;

    LiveConfig lc;
    lc.mergeTriggerSegments = 2;
    for (uint32_t s = 0; s < kShards; ++s) {
        indexes.push_back(std::make_unique<LiveIndex>(lc));
        model.push_back(std::make_unique<ShardModel>());
        for (DocId d = shardBase(s) + 1; d <= shardBase(s) + 4; ++d) {
            indexes[s]->add(d, {kAllDocs});
            model[s]->live.insert(d);
        }
        const uint64_t v0 = indexes[s]->commit();
        model[s]->atVersion[v0] = model[s]->live;
        model[s]->rolledOut.insert(v0);
    }

    ClusterConfig cc;
    cc.replicasPerShard = kReplicas;
    cc.pool.numWorkers = 2;
    cc.deadlineNs = 0;
    cc.faults = &plan;
    std::vector<LiveIndex *> ptrs;
    for (auto &ix : indexes)
        ptrs.push_back(ix.get());
    ClusterServer cluster(ptrs, cc);

    std::vector<std::unique_ptr<MergeWorker>> workers;
    for (uint32_t s = 0; s < kShards; ++s) {
        MergeWorker::Config mc;
        mc.periodNs = 200'000; // 200 us
        mc.shardId = s;
        mc.faults = &plan;
        workers.push_back(
            std::make_unique<MergeWorker>(*indexes[s], mc));
    }

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> queries{0};

    std::vector<std::thread> clients;
    for (int t = 0; t < 2; ++t) {
        clients.emplace_back([&] {
            while (!stop.load(std::memory_order_acquire)) {
                const ClusterResult res = cluster.handle(probe());
                expectValidPage(res.page, kShards);
                ASSERT_EQ(res.page.shardsAnswered, kShards);
                ASSERT_EQ(res.page.shardVersions.size(), kShards);
                for (uint32_t s = 0; s < kShards; ++s) {
                    const uint64_t v = res.page.shardVersions[s];
                    std::set<DocId> got;
                    for (const ScoredDoc &d : res.page.docs)
                        if (d.doc > shardBase(s) &&
                            d.doc <= shardBase(s) + 99'999)
                            got.insert(d.doc);
                    std::lock_guard<std::mutex> lk(model[s]->mu);
                    // No torn version: the answer came from a
                    // snapshot that was really rolled out.
                    EXPECT_TRUE(model[s]->rolledOut.count(v))
                        << "shard " << s << " version " << v;
                    // Exactly the docs acked at that version (merges
                    // in between never change the answer).
                    auto it = model[s]->atVersion.upper_bound(v);
                    ASSERT_NE(it, model[s]->atVersion.begin());
                    --it;
                    EXPECT_EQ(got, it->second)
                        << "shard " << s << " version " << v;
                }
                ++queries;
            }
        });
    }

    std::vector<std::thread> writers;
    for (uint32_t s = 0; s < kShards; ++s) {
        writers.emplace_back([&, s] {
            LiveIndex &idx = *indexes[s];
            ShardModel &m = *model[s];
            Rng wrng(seed ^ (0x133full + s));
            DocId next = shardBase(s) + 100;
            for (int round = 0; round < kRounds; ++round) {
                {
                    std::lock_guard<std::mutex> lk(m.mu);
                    for (int i = 0; i < 2; ++i) {
                        idx.add(next, {kAllDocs});
                        m.live.insert(next);
                        ++next;
                    }
                    if (wrng.nextRange(3) == 0) {
                        const DocId victim = *std::next(
                            m.live.begin(),
                            wrng.nextRange(m.live.size()));
                        EXPECT_TRUE(idx.remove(victim));
                        m.live.erase(victim);
                    }
                    const uint64_t v = idx.commit();
                    m.atVersion[v] = m.live;
                }
                // The rollout may deliver a later (merge-bumped)
                // version than the commit; record exactly what ships.
                const auto snap = idx.snapshot();
                {
                    std::lock_guard<std::mutex> lk(m.mu);
                    m.rolledOut.insert(snap->version);
                }
                cluster.rolloutShard(s, snap);
                std::this_thread::sleep_for(
                    std::chrono::microseconds(500));
            }
        });
    }

    for (std::thread &t : writers)
        t.join();
    // Let the clients observe the final state a little longer.
    while (queries.load() < 30)
        std::this_thread::yield();
    stop.store(true, std::memory_order_release);
    for (std::thread &t : clients)
        t.join();
    for (auto &w : workers)
        w->stop();

    const ClusterSnapshot snap = cluster.snapshot();
    EXPECT_EQ(snap.shardMisses, 0u);
    uint64_t rejected = 0;
    uint64_t adopted = 0;
    for (const ShardSnapshot &ss : snap.shards) {
        EXPECT_TRUE(ss.pool.consistent());
        EXPECT_EQ(ss.rollouts, static_cast<uint64_t>(kRounds));
        rejected += ss.pool.handoffsRejected;
        adopted += ss.pool.snapshotsAdopted;
    }
    // ~96 seeded corruption draws at p=0.25: statistically certain.
    EXPECT_GE(rejected, 1u);
    EXPECT_GE(adopted, static_cast<uint64_t>(kRounds) * kShards);
}

/**
 * A permanently crashed replica while merges run and rollouts cycle:
 * traffic fails over (retry/ejection machinery from PR 4), rollouts
 * still converge every replica -- including the dead one, whose
 * handoff path is control-plane, not query admission -- and no query
 * ever sees a torn version or a stale doc set.
 */
TEST(LiveChaos, ReplicaCrashDuringMergesAndRollouts)
{
    const uint64_t seed = chaosBaseSeed() ^ 0xdeadull;
    SCOPED_TRACE(::testing::Message() << "chaos seed 0x" << std::hex
                                      << seed);
    FaultPlan plan(seed);
    plan.replicaSpec(0, 0).crashAtNs = 1; // dead from the start
    plan.replicaSpec(0, 0).mergeCrashProb = 0.5;

    LiveConfig lc;
    lc.mergeTriggerSegments = 2;
    LiveIndex idx(lc);
    std::set<DocId> live;
    DocId next = 1;
    for (int i = 0; i < 4; ++i, ++next) {
        idx.add(next, {kAllDocs});
        live.insert(next);
    }
    idx.commit();

    ClusterConfig cc;
    cc.replicasPerShard = 2;
    cc.pool.numWorkers = 2;
    cc.deadlineNs = 0;
    cc.maxRetriesPerShard = 2;
    cc.faults = &plan;
    ClusterServer cluster({&idx}, cc);

    uint64_t merge_seq = 0;
    for (int round = 0; round < 8; ++round) {
        for (int i = 0; i < 2; ++i, ++next) {
            idx.add(next, {kAllDocs});
            live.insert(next);
        }
        idx.commit();
        while (idx.mergePending()) {
            const bool crash = plan.crashMerge(0, merge_seq++, 0);
            if (!idx.mergeOnce([crash] { return crash; }))
                break;
        }
        const RolloutResult rr = cluster.rolloutShard(0, idx.snapshot());
        EXPECT_EQ(rr.replicasUpdated, 2u);

        // Per-query: valid full page at the just-rolled version, even
        // though every primary-pick of the dead replica must fail
        // over. Distinct query ids spread the replica hash so some
        // primaries do land on the dead replica.
        for (uint64_t qi = 0; qi < 3; ++qi) {
            SearchRequest req = probe();
            req.query.id = static_cast<uint64_t>(round) * 16 + qi;
            const ClusterResult res = cluster.handle(req);
            expectValidPage(res.page, 1);
            ASSERT_EQ(res.page.shardsAnswered, 1u);
            EXPECT_EQ(res.page.shardVersions[0], idx.version());
            EXPECT_EQ(docsOf(res.page.docs), live);
        }
    }

    const ClusterSnapshot snap = cluster.snapshot();
    EXPECT_EQ(snap.shardMisses, 0u);
    EXPECT_TRUE(snap.shards[0].pool.consistent());
    // The dead replica refused whatever was aimed at it.
    EXPECT_GT(snap.shards[0].pool.refused, 0u);
    EXPECT_EQ(snap.shards[0].pool.indexVersionLow, idx.version());
    EXPECT_EQ(snap.shards[0].pool.indexVersionHigh, idx.version());
}

} // namespace
} // namespace wsearch
