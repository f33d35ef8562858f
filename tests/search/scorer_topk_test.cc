#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "search/index.hh"
#include "search/scorer.hh"
#include "search/topk.hh"
#include "util/rng.hh"

namespace wsearch {
namespace {

constexpr double kK1 = 1.2, kB = 0.75; // Bm25Scorer's defaults

/**
 * The per-pair evaluation the hoisted scorer must reproduce: idf and
 * length norm recomputed for every (term, doc) pair, exactly as
 * Bm25Scorer::score(tf, doc_len, doc_freq) computed them before the
 * executor took both out of its per-posting path.
 */
double
referenceIdf(uint32_t num_docs, uint32_t doc_freq)
{
    const double n = static_cast<double>(num_docs);
    const double df = static_cast<double>(doc_freq);
    return std::log(1.0 + (n - df + 0.5) / (df + 0.5));
}

double
referenceScore(uint32_t num_docs, double avg_doc_len, uint32_t tf,
               uint32_t doc_len, uint32_t doc_freq)
{
    const double tfd = static_cast<double>(tf);
    const double norm = kK1 * (1.0 - kB +
        kB * static_cast<double>(doc_len) / avg_doc_len);
    return referenceIdf(num_docs, doc_freq) * tfd * (kK1 + 1.0) /
        (tfd + norm);
}

/** referenceScore()'s MaxScore bound: doc_len -> 0. */
double
referenceMaxScore(uint32_t num_docs, uint32_t max_tf, uint32_t doc_freq)
{
    const double tfd = static_cast<double>(max_tf);
    const double norm = kK1 * (1.0 - kB);
    return referenceIdf(num_docs, doc_freq) * tfd * (kK1 + 1.0) /
        (tfd + norm);
}

/** Contribution of one pair, through the hoisted parts. */
double
pairScore(const Bm25Scorer &s, uint32_t tf, uint32_t doc_len,
          uint32_t doc_freq)
{
    return s.contribution(s.idf(doc_freq), tf, s.lengthNorm(doc_len));
}

TEST(Bm25, IdfDecreasesWithDocFreq)
{
    Bm25Scorer s(100000, 100.0);
    EXPECT_GT(s.idf(10), s.idf(100));
    EXPECT_GT(s.idf(100), s.idf(10000));
    EXPECT_GT(s.idf(99999), 0.0); // smoothed: never negative
}

TEST(Bm25, ScoreIncreasesWithTfSaturating)
{
    Bm25Scorer s(100000, 100.0);
    const double s1 = pairScore(s, 1, 100, 50);
    const double s2 = pairScore(s, 2, 100, 50);
    const double s10 = pairScore(s, 10, 100, 50);
    const double s20 = pairScore(s, 20, 100, 50);
    EXPECT_GT(s2, s1);
    EXPECT_GT(s10, s2);
    // Saturation: the marginal gain shrinks.
    EXPECT_LT(s20 - s10, s2 - s1);
}

TEST(Bm25, LongDocumentsPenalized)
{
    Bm25Scorer s(100000, 100.0);
    EXPECT_GT(pairScore(s, 3, 50, 50), pairScore(s, 3, 400, 50));
}

TEST(Bm25, RareTermsWorthMore)
{
    Bm25Scorer s(100000, 100.0);
    EXPECT_GT(pairScore(s, 3, 100, 10), pairScore(s, 3, 100, 10000));
}

TEST(Bm25, HoistedIdfAndNormTableMatchPerPairScoreBitForBit)
{
    CorpusConfig c;
    c.numDocs = 2000;
    c.vocabSize = 1500;
    c.avgDocLen = 60;
    const CorpusGenerator corpus(c);
    for (const PostingCodec codec :
         {PostingCodec::kVarint, PostingCodec::kPacked}) {
        SCOPED_TRACE(codec == PostingCodec::kPacked ? "packed" : "varint");
        const MaterializedIndex index(corpus, codec);
        const Bm25Scorer s(index.numDocs(), index.avgDocLen());
        const double *norms = index.lengthNorms();
        ASSERT_NE(norms, nullptr);
        uint64_t pairs = 0;
        for (TermId t = 0; t < index.numTerms(); ++t) {
            const TermInfo info = index.termInfo(t);
            const double idf = s.idf(info.docFreq);
            ASSERT_EQ(std::bit_cast<uint64_t>(s.maxScore(info.maxTf, idf)),
                      std::bit_cast<uint64_t>(referenceMaxScore(
                          index.numDocs(), info.maxTf, info.docFreq)))
                << "term " << t;
            PostingView v;
            ASSERT_TRUE(index.postingView(t, v));
            for (PostingCursor cur(v.bytes, v.bytes + v.size, v.count,
                                   index.payloadBytes(), v.codec);
                 cur.valid(); cur.next(), ++pairs) {
                const double got =
                    s.contribution(idf, cur.tf(), norms[cur.doc()]);
                const double want = referenceScore(
                    index.numDocs(), index.avgDocLen(), cur.tf(),
                    index.docLen(cur.doc()), info.docFreq);
                ASSERT_EQ(std::bit_cast<uint64_t>(got),
                          std::bit_cast<uint64_t>(want))
                    << "term " << t << " doc " << cur.doc();
            }
        }
        EXPECT_GT(pairs, 50000u);
    }
}

TEST(TopK, KeepsBestK)
{
    TopK t(3);
    for (float score : {1.f, 5.f, 3.f, 4.f, 2.f})
        t.offer({static_cast<DocId>(score), score});
    const auto r = t.results();
    ASSERT_EQ(r.size(), 3u);
    EXPECT_EQ(r[0].score, 5.f);
    EXPECT_EQ(r[1].score, 4.f);
    EXPECT_EQ(r[2].score, 3.f);
}

TEST(TopK, ThresholdTracksMin)
{
    TopK t(2);
    EXPECT_EQ(t.threshold(), 0.0f);
    t.offer({1, 5.f});
    EXPECT_EQ(t.threshold(), 0.0f); // not full
    t.offer({2, 3.f});
    EXPECT_EQ(t.threshold(), 3.0f);
    t.offer({3, 4.f});
    EXPECT_EQ(t.threshold(), 4.0f);
}

TEST(TopK, RejectsBelowThreshold)
{
    TopK t(2);
    t.offer({1, 5.f});
    t.offer({2, 4.f});
    EXPECT_FALSE(t.offer({3, 1.f}));
    EXPECT_TRUE(t.offer({4, 6.f}));
}

TEST(TopK, DeterministicTieBreakByDocId)
{
    TopK t(2);
    t.offer({9, 1.f});
    t.offer({3, 1.f});
    t.offer({7, 1.f});
    const auto r = t.results();
    // Lower doc id wins ties.
    EXPECT_EQ(r[0].doc, 3u);
    EXPECT_EQ(r[1].doc, 7u);
}

TEST(TopK, MatchesFullSort)
{
    Rng rng(3);
    TopK t(16);
    std::vector<ScoredDoc> all;
    for (int i = 0; i < 5000; ++i) {
        const ScoredDoc sd{static_cast<DocId>(i),
                           static_cast<float>(rng.nextDouble())};
        all.push_back(sd);
        t.offer(sd);
    }
    std::sort(all.begin(), all.end(),
              [](const ScoredDoc &a, const ScoredDoc &b) {
                  return b < a;
              });
    const auto r = t.results();
    ASSERT_EQ(r.size(), 16u);
    for (size_t i = 0; i < r.size(); ++i) {
        EXPECT_EQ(r[i].doc, all[i].doc);
        EXPECT_EQ(r[i].score, all[i].score);
    }
}

} // namespace
} // namespace wsearch
