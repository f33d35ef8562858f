/**
 * @file
 * Okapi BM25 relevance scoring, the standard ranking function for the
 * retrieval stage of the leaf server.
 */

#ifndef WSEARCH_SEARCH_SCORER_HH
#define WSEARCH_SEARCH_SCORER_HH

#include <cmath>
#include <cstdint>

namespace wsearch {

/** BM25 scorer with the usual k1/b parameters. */
class Bm25Scorer
{
  public:
    /**
     * @param num_docs     documents in the shard
     * @param avg_doc_len  mean document length in terms
     */
    Bm25Scorer(uint32_t num_docs, double avg_doc_len, double k1 = 1.2,
               double b = 0.75)
        : numDocs_(num_docs), avgDocLen_(avg_doc_len), k1_(k1), b_(b)
    {
    }

    /** Robertson-Sparck-Jones IDF with the +1 smoothing. */
    double
    idf(uint32_t doc_freq) const
    {
        const double n = static_cast<double>(numDocs_);
        const double df = static_cast<double>(doc_freq);
        return std::log(1.0 + (n - df + 0.5) / (df + 0.5));
    }

    /**
     * Length normalisation k1 * (1 - b + b * doc_len / avg_doc_len):
     * constant per document, so a MaterializedIndex tabulates it once
     * at build (IndexShard::lengthNorms()).
     */
    double
    lengthNorm(uint32_t doc_len) const
    {
        return k1_ * (1.0 - b_ +
            b_ * static_cast<double>(doc_len) / avgDocLen_);
    }

    /**
     * Per-(term, doc) contribution from the term's idf() and the
     * document's lengthNorm(). The executor computes each idf once per
     * query term, so no logarithm runs per scored posting; the
     * expression and its evaluation order are the ranking's bits.
     */
    double
    contribution(double idf, uint32_t tf, double norm) const
    {
        const double tfd = static_cast<double>(tf);
        return idf * tfd * (k1_ + 1.0) / (tfd + norm);
    }

    /**
     * Upper bound of any per-(term, doc) contribution for a term of
     * idf @p idf whose largest tf is @p max_tf: the score is
     * increasing in tf and decreasing in doc_len, so doc_len -> 0
     * (norm = k1 * (1 - b)) bounds it. This is the list-wide MaxScore
     * used for dynamic pruning; per-block max tf gives tighter
     * per-block bounds.
     */
    double
    maxScore(uint32_t max_tf, double idf) const
    {
        return contribution(idf, max_tf, k1_ * (1.0 - b_));
    }

    double k1() const { return k1_; }
    double b() const { return b_; }

  private:
    uint32_t numDocs_;
    double avgDocLen_;
    double k1_;
    double b_;
};

} // namespace wsearch

#endif // WSEARCH_SEARCH_SCORER_HH
