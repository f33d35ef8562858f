/**
 * Equivalence suite: the pruned fast path (block cursors, skip-driven
 * AND, MaxScore OR) must return byte-identical top-k -- same doc ids,
 * bit-equal float scores, same order -- as the exhaustive sequential
 * reference executor (ExecAlgo::kSequential), across corpus seeds,
 * AND/OR, and k in {1, 10, 100}. This is the contract that lets
 * bench_leaf's speedup claim stand for the same result set.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <memory>
#include <string>

#include "recording_sink.hh"
#include "search/executor.hh"
#include "serve/clock.hh"

namespace wsearch {
namespace {

MaterializedIndex
makeIndex(uint64_t seed, uint32_t num_docs = 600,
          uint32_t vocab = 300)
{
    CorpusConfig c;
    c.numDocs = num_docs;
    c.vocabSize = vocab;
    c.avgDocLen = 60;
    c.seed = seed;
    CorpusGenerator corpus(c);
    return MaterializedIndex(corpus);
}

SearchResponse
run(QueryExecutor &ex, const Query &q, ExecAlgo algo)
{
    SearchRequest req;
    req.query = q;
    req.algo = algo;
    return ex.execute(req);
}

/** Assert bit-identical result lists (doc ids, scores, order). */
void
expectIdentical(const SearchResponse &pruned,
                const SearchResponse &seq, const Query &q)
{
    ASSERT_TRUE(pruned.ok);
    ASSERT_TRUE(seq.ok);
    EXPECT_FALSE(pruned.degraded);
    ASSERT_EQ(pruned.docs.size(), seq.docs.size())
        << "k=" << q.topK << " and=" << q.conjunctive;
    for (size_t i = 0; i < pruned.docs.size(); ++i) {
        EXPECT_EQ(pruned.docs[i].doc, seq.docs[i].doc) << "rank " << i;
        // Byte-identical, not approximately equal: both engines
        // accumulate contributions in the same canonical order.
        EXPECT_EQ(pruned.docs[i].score, seq.docs[i].score)
            << "rank " << i << " doc " << pruned.docs[i].doc;
    }
}

TEST(ExecutorEquiv, PrunedMatchesSequentialAcrossSeeds)
{
    for (const uint64_t seed : {0xc0de5ull, 0x1234ull, 0xbeefull}) {
        MaterializedIndex index = makeIndex(seed);
        NullTouchSink sink;
        QueryExecutor ex(index, 0, &sink);
        QueryGenerator::Config qc;
        qc.vocabSize = index.numTerms();
        qc.distinctQueries = 4096;
        qc.seed = seed ^ 0x5eedull;
        QueryGenerator gen(qc);
        for (uint32_t n = 0; n < 60; ++n) {
            Query q = gen.materialize(n);
            for (const uint32_t k : {1u, 10u, 100u}) {
                q.topK = k;
                const auto pruned = run(ex, q, ExecAlgo::kAuto);
                const auto seq = run(ex, q, ExecAlgo::kSequential);
                expectIdentical(pruned, seq, q);
            }
        }
    }
}

TEST(ExecutorEquiv, ForcedAndOrOverridesMatchSequential)
{
    MaterializedIndex index = makeIndex(0xc0de5ull);
    NullTouchSink sink;
    QueryExecutor ex(index, 0, &sink);
    for (TermId a = 0; a < 8; ++a) {
        Query q;
        q.terms = {a, static_cast<TermId>(a + 3),
                   static_cast<TermId>(a + 40)};
        q.topK = 10;
        for (const ExecAlgo algo : {ExecAlgo::kAnd, ExecAlgo::kOr}) {
            q.conjunctive = algo == ExecAlgo::kAnd;
            const auto pruned = run(ex, q, algo);
            const auto seq = run(ex, q, ExecAlgo::kSequential);
            expectIdentical(pruned, seq, q);
        }
    }
}

TEST(ExecutorEquiv, DuplicateAndMissingTerms)
{
    MaterializedIndex index = makeIndex(0xc0de5ull);
    NullTouchSink sink;
    QueryExecutor ex(index, 0, &sink);
    // Duplicate terms (each occurrence contributes) and a term with
    // the smallest df in the vocabulary tail.
    const std::vector<std::vector<TermId>> cases = {
        {0, 0},
        {5, 5, 5},
        {0, 299},
        {299, 298, 0},
    };
    for (const auto &terms : cases) {
        for (const bool conj : {true, false}) {
            Query q;
            q.terms = terms;
            q.conjunctive = conj;
            q.topK = 10;
            const auto pruned = run(ex, q, ExecAlgo::kAuto);
            const auto seq = run(ex, q, ExecAlgo::kSequential);
            expectIdentical(pruned, seq, q);
        }
    }
}

TEST(ExecutorEquiv, ProceduralShardMatchesSequential)
{
    ProceduralIndex::Config c;
    c.numDocs = 50000;
    c.numTerms = 2000;
    c.maxDocFreq = 3000;
    c.minDocFreq = 8;
    c.payloadBytes = 8;
    ProceduralIndex index(c);
    NullTouchSink sink;
    QueryExecutor ex(index, 0, &sink);
    for (TermId a = 0; a < 12; a += 3) {
        Query q;
        q.terms = {a, static_cast<TermId>(a + 1),
                   static_cast<TermId>(a + 50)};
        for (const bool conj : {true, false}) {
            q.conjunctive = conj;
            for (const uint32_t k : {1u, 10u, 100u}) {
                q.topK = k;
                const auto pruned = run(ex, q, ExecAlgo::kAuto);
                const auto seq = run(ex, q, ExecAlgo::kSequential);
                expectIdentical(pruned, seq, q);
            }
        }
    }
}

TEST(ExecutorEquiv, PruningDoesNotScoreMoreThanSequential)
{
    MaterializedIndex index = makeIndex(0xc0de5ull, 3000, 400);
    NullTouchSink sink;
    QueryExecutor ex(index, 0, &sink);
    Query q;
    q.terms = {0, 1, 7}; // common terms: pruning has work to do
    q.conjunctive = false;
    q.topK = 10;
    const auto pruned = run(ex, q, ExecAlgo::kOr);
    const ExecStats ps = ex.lastStats();
    const auto seq = run(ex, q, ExecAlgo::kSequential);
    const ExecStats ss = ex.lastStats();
    expectIdentical(pruned, seq, q);
    EXPECT_LT(ps.candidatesScored, ss.candidatesScored);
    EXPECT_LE(ps.postingsDecoded, ss.postingsDecoded);
}

/** Two-term shard with full control over posting placement. */
class TinyShard : public IndexShard
{
  public:
    TinyShard(uint32_t num_docs,
              const std::vector<std::vector<DocId>> &lists)
        : numDocs_(num_docs)
    {
        uint64_t offset = 0;
        for (const auto &docs : lists) {
            TermData td;
            PostingListBuilder b;
            for (const DocId d : docs)
                b.add(d, 2);
            td.skips = b.releaseSkips(); // must precede release()
            td.bytes = b.release();
            td.info.docFreq = b.count();
            td.info.maxTf = 2;
            td.info.byteLength = td.bytes.size();
            td.info.shardOffset = offset;
            offset += td.info.byteLength;
            terms_.push_back(std::move(td));
        }
        shardBytes_ = offset;
    }

    uint32_t numDocs() const override { return numDocs_; }
    uint32_t
    numTerms() const override
    {
        return static_cast<uint32_t>(terms_.size());
    }
    double avgDocLen() const override { return 60.0; }
    TermInfo
    termInfo(TermId t) const override
    {
        return terms_[t].info;
    }
    uint32_t docLen(DocId) const override { return 60; }
    void
    postingBytes(TermId t, std::vector<uint8_t> &out) const override
    {
        out = terms_[t].bytes;
    }
    bool
    postingView(TermId t, PostingView &out) const override
    {
        const TermData &td = terms_[t];
        out.bytes = td.bytes.data();
        out.size = td.bytes.size();
        out.skips = td.skips.data();
        out.numSkips = static_cast<uint32_t>(td.skips.size());
        out.count = td.info.docFreq;
        return true;
    }
    uint64_t shardBytes() const override { return shardBytes_; }

  private:
    struct TermData
    {
        TermInfo info;
        std::vector<uint8_t> bytes;
        std::vector<SkipEntry> skips;
    };
    uint32_t numDocs_;
    std::vector<TermData> terms_;
    uint64_t shardBytes_ = 0;
};

TEST(ExecutorEquiv, ConjunctiveSkipsBlocks)
{
    // Term 0: every doc (79 blocks). Term 1: two docs far apart.
    // Driving the rare list must land in only a handful of term-0
    // blocks; the sequential engine decodes thousands of postings.
    std::vector<DocId> dense(10000);
    for (DocId d = 0; d < 10000; ++d)
        dense[d] = d;
    TinyShard index(10000, {dense, {5000, 9000}});
    NullTouchSink sink;
    QueryExecutor ex(index, 0, &sink);
    Query q;
    q.terms = {0, 1};
    q.conjunctive = true;
    q.topK = 10;
    const auto pruned = run(ex, q, ExecAlgo::kAnd);
    const ExecStats ps = ex.lastStats();
    const auto seq = run(ex, q, ExecAlgo::kSequential);
    const ExecStats ss = ex.lastStats();
    expectIdentical(pruned, seq, q);
    ASSERT_EQ(pruned.docs.size(), 2u);
    EXPECT_GT(ps.blocksSkipped, 60u);
    EXPECT_LT(ps.postingsDecoded, 1000u);
    EXPECT_LT(ps.postingsDecoded, ss.postingsDecoded);
    EXPECT_LT(ps.shardBytesRead, ss.shardBytesRead);
}

/** @p inner without its length-norm table: the executor then
 *  computes every norm from docLen(). */
class NormlessShard : public IndexShard
{
  public:
    explicit NormlessShard(const IndexShard &inner) : inner_(inner) {}

    uint32_t numDocs() const override { return inner_.numDocs(); }
    uint32_t numTerms() const override { return inner_.numTerms(); }
    double avgDocLen() const override { return inner_.avgDocLen(); }
    TermInfo
    termInfo(TermId t) const override
    {
        return inner_.termInfo(t);
    }
    uint32_t docLen(DocId d) const override { return inner_.docLen(d); }
    void
    postingBytes(TermId t, std::vector<uint8_t> &out) const override
    {
        inner_.postingBytes(t, out);
    }
    bool
    postingView(TermId t, PostingView &out) const override
    {
        return inner_.postingView(t, out);
    }
    uint64_t shardBytes() const override { return inner_.shardBytes(); }
    uint32_t payloadBytes() const override { return inner_.payloadBytes(); }
    PostingCodec codec() const override { return inner_.codec(); }

  private:
    const IndexShard &inner_;
};

TEST(ExecutorEquiv, NormTableMatchesNormsFromDocLen)
{
    // Same shard, with and without the table: every score bit, every
    // ExecStats count and every touch must agree, since MaxScore's
    // pruning decisions and the engine trace both follow the scores.
    CorpusConfig c;
    c.numDocs = 3000;
    c.vocabSize = 400;
    c.avgDocLen = 60;
    const CorpusGenerator corpus(c);
    for (const PostingCodec codec :
         {PostingCodec::kVarint, PostingCodec::kPacked}) {
        SCOPED_TRACE(codec == PostingCodec::kPacked ? "packed" : "varint");
        const MaterializedIndex index(corpus, codec);
        const NormlessShard normless(index);
        ASSERT_NE(index.lengthNorms(), nullptr);
        ASSERT_EQ(normless.lengthNorms(), nullptr);
        RecordingSink with_sink, without_sink;
        QueryExecutor with(index, 0, &with_sink);
        QueryExecutor without(normless, 0, &without_sink);
        QueryGenerator::Config qc;
        qc.vocabSize = index.numTerms();
        qc.seed = 0x7ab1e;
        QueryGenerator gen(qc);
        uint64_t scored = 0;
        for (uint32_t n = 0; n < 40; ++n) {
            Query q = gen.materialize(n);
            // Pruned and sequential engines, each AND and OR.
            for (const ExecAlgo algo :
                 {ExecAlgo::kAuto, ExecAlgo::kSequential}) {
                for (const bool conj : {true, false}) {
                    q.conjunctive = conj;
                    for (const uint32_t k : {1u, 10u, 100u}) {
                        SCOPED_TRACE("query " + std::to_string(n) +
                                     " k=" + std::to_string(k));
                        q.topK = k;
                        const SearchResponse a = run(with, q, algo);
                        const SearchResponse b = run(without, q, algo);
                        ASSERT_EQ(a.docs.size(), b.docs.size());
                        for (size_t i = 0; i < a.docs.size(); ++i) {
                            ASSERT_EQ(a.docs[i].doc, b.docs[i].doc);
                            ASSERT_EQ(
                                std::bit_cast<uint32_t>(a.docs[i].score),
                                std::bit_cast<uint32_t>(b.docs[i].score));
                        }
                        ASSERT_TRUE(a.stats == b.stats);
                        ASSERT_FALSE(with_sink.touches.empty());
                        ASSERT_TRUE(with_sink.touches ==
                                    without_sink.touches);
                        with_sink.touches.clear();
                        without_sink.touches.clear();
                        scored += a.stats.candidatesScored;
                    }
                }
            }
        }
        EXPECT_GT(scored, 10000u);
    }
}

TEST(ExecutorEquiv, CancelledRequestIsDegraded)
{
    MaterializedIndex index = makeIndex(0xc0de5ull);
    NullTouchSink sink;
    QueryExecutor ex(index, 0, &sink);
    SearchRequest req;
    req.query.terms = {0, 1};
    req.query.conjunctive = false;
    req.cancel = std::make_shared<std::atomic<bool>>(true);
    const SearchResponse resp = ex.execute(req);
    EXPECT_FALSE(resp.ok);
    EXPECT_TRUE(resp.degraded);
    EXPECT_TRUE(resp.docs.empty());
}

TEST(ExecutorEquiv, ExpiredDeadlineIsDegraded)
{
    MaterializedIndex index = makeIndex(0xc0de5ull);
    NullTouchSink sink;
    QueryExecutor ex(index, 0, &sink);
    SearchRequest req;
    req.query.terms = {0, 1};
    req.query.conjunctive = false;
    req.deadlineNs = 1; // epoch + 1ns: long past
    const SearchResponse resp = ex.execute(req);
    EXPECT_TRUE(resp.degraded);
}

/** Flips a cancel flag after the executor's Nth posting-block decode
 *  -- i.e. between blocks, mid-query, from "another thread"'s point
 *  of view. */
class CancelAfterBlocksSink : public TouchSink
{
  public:
    CancelAfterBlocksSink(std::shared_ptr<std::atomic<bool>> cancel,
                          uint32_t after_blocks)
        : cancel_(std::move(cancel)), remaining_(after_blocks)
    {
    }

    void
    touch(uint64_t, uint32_t, AccessKind kind, bool) override
    {
        if (kind == AccessKind::Shard && remaining_ > 0 &&
            --remaining_ == 0)
            cancel_->store(true, std::memory_order_release);
    }

  private:
    std::shared_ptr<std::atomic<bool>> cancel_;
    uint32_t remaining_;
};

TEST(ExecutorEquiv, CancelRaisedBetweenBlocksAbandonsMidQuery)
{
    // One dense list: a full scan scores all 10000 postings across
    // ~79 blocks, with a stop-flag poll every 1024 candidates.
    std::vector<DocId> dense(10000);
    for (DocId d = 0; d < 10000; ++d)
        dense[d] = d;
    TinyShard index(10000, {dense});

    SearchRequest req;
    req.query.terms = {0};
    req.query.conjunctive = false;
    req.query.topK = 10;
    req.algo = ExecAlgo::kOr;

    // Control: without cancellation every candidate is scored.
    NullTouchSink null_sink;
    QueryExecutor control(index, 0, &null_sink);
    const SearchResponse full = control.execute(req);
    ASSERT_TRUE(full.ok);
    EXPECT_FALSE(full.degraded);
    const uint64_t all = control.lastStats().candidatesScored;
    EXPECT_EQ(all, 10000u);

    // Cancel raised after the 3rd block decode: the executor started
    // clean (ok), must notice at the next poll and abandon the rest.
    auto cancel = std::make_shared<std::atomic<bool>>(false);
    CancelAfterBlocksSink sink(cancel, 3);
    QueryExecutor ex(index, 0, &sink);
    req.cancel = cancel;
    const SearchResponse resp = ex.execute(req);
    EXPECT_TRUE(resp.ok);
    EXPECT_TRUE(resp.degraded);
    const uint64_t scored = ex.lastStats().candidatesScored;
    EXPECT_GT(scored, 0u);
    EXPECT_LT(scored, all);
}

TEST(ExecutorEquiv, DeadlineExactlyAtStartStillExecutes)
{
    MaterializedIndex index = makeIndex(0xc0de5ull);
    NullTouchSink sink;
    SimClock sim; // frozen: virtual time never advances mid-query
    QueryExecutor ex(index, 0, &sink, &sim);
    SearchRequest req;
    req.query.terms = {0, 1};
    req.query.conjunctive = false;

    // Expiry is strict (now > deadline): a deadline equal to the
    // start instant is still alive and the query runs to completion.
    req.deadlineNs = sim.now();
    const SearchResponse at = ex.execute(req);
    EXPECT_TRUE(at.ok);
    EXPECT_FALSE(at.degraded);
    EXPECT_FALSE(at.docs.empty());

    // One nanosecond earlier is already past at the pre-execution
    // check: degraded, nothing executed.
    req.deadlineNs = sim.now() - 1;
    const SearchResponse past = ex.execute(req);
    EXPECT_FALSE(past.ok);
    EXPECT_TRUE(past.degraded);
    EXPECT_TRUE(past.docs.empty());
}

} // namespace
} // namespace wsearch
