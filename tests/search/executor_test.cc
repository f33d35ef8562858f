#include <gtest/gtest.h>

#include <map>
#include <set>

#include "recording_sink.hh"
#include "search/executor.hh"

namespace wsearch {
namespace {

/** Run @p q through the SearchRequest API, returning just the docs. */
std::vector<ScoredDoc>
run(QueryExecutor &ex, const Query &q)
{
    SearchRequest req;
    req.query = q;
    return ex.execute(req).docs;
}

struct Fixture
{
    Fixture()
        : corpus(makeConfig()), index(corpus)
    {
    }

    static CorpusConfig
    makeConfig()
    {
        CorpusConfig c;
        c.numDocs = 400;
        c.vocabSize = 300;
        c.avgDocLen = 60;
        return c;
    }

    /** Naive reference evaluation. */
    std::vector<ScoredDoc>
    naive(const Query &q) const
    {
        Bm25Scorer scorer(index.numDocs(), index.avgDocLen());
        TopK topk(q.topK);
        for (DocId d = 0; d < index.numDocs(); ++d) {
            const Document doc = corpus.document(d);
            std::map<TermId, uint32_t> tf;
            for (const TermId t : doc.terms)
                ++tf[t];
            double score = 0;
            bool all = true;
            bool any = false;
            for (const TermId t : q.terms) {
                auto it = tf.find(t);
                if (it == tf.end()) {
                    all = false;
                    continue;
                }
                any = true;
                score += scorer.contribution(
                    scorer.idf(index.termInfo(t).docFreq), it->second,
                    scorer.lengthNorm(index.docLen(d)));
            }
            const bool match =
                q.conjunctive && q.terms.size() > 1 ? all : any;
            if (match)
                topk.offer({d, static_cast<float>(score)});
        }
        return topk.results();
    }

    CorpusGenerator corpus;
    MaterializedIndex index;
    NullTouchSink nullSink;
};

TEST(Executor, ConjunctiveMatchesNaive)
{
    Fixture f;
    QueryExecutor ex(f.index, 0, &f.nullSink);
    for (TermId a = 0; a < 12; ++a) {
        for (TermId b = a + 1; b < 12; b += 3) {
            Query q;
            q.terms = {a, b};
            q.conjunctive = true;
            q.topK = 10;
            const auto got = run(ex, q);
            const auto want = f.naive(q);
            ASSERT_EQ(got.size(), want.size())
                << "terms " << a << "," << b;
            for (size_t i = 0; i < got.size(); ++i) {
                ASSERT_EQ(got[i].doc, want[i].doc);
                ASSERT_NEAR(got[i].score, want[i].score, 1e-4);
            }
        }
    }
}

TEST(Executor, DisjunctiveMatchesNaive)
{
    Fixture f;
    QueryExecutor ex(f.index, 0, &f.nullSink);
    for (TermId a = 0; a < 10; a += 2) {
        Query q;
        q.terms = {a, a + 1, a + 5};
        q.conjunctive = false;
        q.topK = 8;
        const auto got = run(ex, q);
        const auto want = f.naive(q);
        ASSERT_EQ(got.size(), want.size()) << "term " << a;
        for (size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i].doc, want[i].doc) << i;
            ASSERT_NEAR(got[i].score, want[i].score, 1e-4);
        }
    }
}

TEST(Executor, SingleTermQuery)
{
    Fixture f;
    QueryExecutor ex(f.index, 0, &f.nullSink);
    Query q;
    q.terms = {2};
    q.conjunctive = true; // single term falls back to disjunctive
    q.topK = 5;
    const auto got = run(ex, q);
    const auto want = f.naive(q);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i].doc, want[i].doc);
}

TEST(Executor, EmptyQueryReturnsNothing)
{
    Fixture f;
    QueryExecutor ex(f.index, 0, &f.nullSink);
    Query q;
    EXPECT_TRUE(run(ex, q).empty());
}

TEST(Executor, ResultsSortedBestFirst)
{
    Fixture f;
    QueryExecutor ex(f.index, 0, &f.nullSink);
    Query q;
    q.terms = {0, 1};
    q.conjunctive = false;
    q.topK = 20;
    const auto got = run(ex, q);
    for (size_t i = 1; i < got.size(); ++i)
        EXPECT_FALSE(got[i - 1] < got[i]);
}

TEST(Executor, TouchesCoverAllSegments)
{
    Fixture f;
    RecordingSink sink;
    QueryExecutor ex(f.index, 3, &sink);
    Query q;
    q.terms = {0, 1};
    q.conjunctive = false;
    q.topK = 10;
    run(ex, q);
    std::set<AccessKind> kinds;
    for (const auto &t : sink.touches)
        kinds.insert(t.kind);
    EXPECT_TRUE(kinds.count(AccessKind::Shard));
    EXPECT_TRUE(kinds.count(AccessKind::Heap));
    EXPECT_TRUE(kinds.count(AccessKind::Stack));
}

TEST(Executor, ShardTouchesWithinTermExtent)
{
    Fixture f;
    RecordingSink sink;
    QueryExecutor ex(f.index, 0, &sink);
    Query q;
    q.terms = {4};
    q.conjunctive = false;
    run(ex, q);
    const TermInfo info = f.index.termInfo(4);
    const uint64_t lo = engine_vaddr::shardAddr(info.shardOffset);
    const uint64_t hi = lo + info.byteLength;
    for (const auto &t : sink.touches) {
        if (t.kind != AccessKind::Shard)
            continue;
        EXPECT_GE(t.addr, lo);
        EXPECT_LE(t.addr + t.bytes, hi);
    }
}

TEST(Executor, ScratchTouchesArePerThread)
{
    Fixture f;
    RecordingSink s0, s5;
    QueryExecutor e0(f.index, 0, &s0), e5(f.index, 5, &s5);
    Query q;
    q.terms = {0};
    q.conjunctive = false;
    run(e0, q);
    run(e5, q);
    auto scratch_addrs = [](const RecordingSink &s) {
        std::set<uint64_t> out;
        for (const auto &t : s.touches)
            if (t.kind == AccessKind::Heap &&
                t.addr >= engine_vaddr::kScratchBase)
                out.insert(t.addr);
        return out;
    };
    const auto a0 = scratch_addrs(s0);
    const auto a5 = scratch_addrs(s5);
    ASSERT_FALSE(a0.empty());
    for (const auto a : a0)
        EXPECT_EQ(a5.count(a), 0u);
}

TEST(Executor, StatsPopulated)
{
    Fixture f;
    QueryExecutor ex(f.index, 0, &f.nullSink);
    Query q;
    q.terms = {0, 1};
    q.conjunctive = false;
    run(ex, q);
    EXPECT_GT(ex.lastStats().postingsDecoded, 0u);
    EXPECT_GT(ex.lastStats().candidatesScored, 0u);
    EXPECT_GT(ex.lastStats().shardBytesRead, 0u);
    EXPECT_GT(ex.scratchHighWater(), 0u);
}

TEST(Executor, WorksOnProceduralIndex)
{
    ProceduralIndex::Config c;
    c.numDocs = 50000;
    c.numTerms = 1000;
    c.maxDocFreq = 2000;
    c.minDocFreq = 8;
    c.payloadBytes = 8;
    ProceduralIndex idx(c);
    NullTouchSink sink;
    QueryExecutor ex(idx, 0, &sink);
    Query q;
    q.terms = {1, 7};
    q.conjunctive = false;
    q.topK = 10;
    const auto r = run(ex, q);
    EXPECT_FALSE(r.empty());
    for (size_t i = 1; i < r.size(); ++i)
        EXPECT_FALSE(r[i - 1] < r[i]);
}

} // namespace
} // namespace wsearch
