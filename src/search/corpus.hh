/**
 * @file
 * Synthetic corpus generator: documents whose term occurrences follow
 * a Zipf distribution over the vocabulary, with log-normal-ish
 * document lengths. Deterministic from a seed, so indexes built from
 * it are reproducible.
 */

#ifndef WSEARCH_SEARCH_CORPUS_HH
#define WSEARCH_SEARCH_CORPUS_HH

#include <cstdint>
#include <vector>

#include "search/types.hh"
#include "util/rng.hh"
#include "util/zipf.hh"

namespace wsearch {

/** Corpus shape parameters. */
struct CorpusConfig
{
    uint32_t numDocs = 10000;
    uint32_t vocabSize = 20000;
    uint32_t avgDocLen = 120;    ///< mean terms per document
    uint64_t seed = 0xc0de5ull;
};

/** One generated document: term occurrences (with repetition). */
struct Document
{
    DocId id = 0;
    std::vector<TermId> terms;
};

/** Deterministic document generator. */
class CorpusGenerator
{
  public:
    /** Zipf skew of term frequency. */
    static constexpr double kTermTheta = 1.0;

    explicit CorpusGenerator(const CorpusConfig &cfg)
        : cfg_(cfg), zipf_(cfg.vocabSize, kTermTheta)
    {
    }

    const CorpusConfig &config() const { return cfg_; }

    /** Generate document @p id (idempotent: same id, same content). */
    Document
    document(DocId id) const
    {
        uint64_t sm = cfg_.seed ^ (0x9e3779b97f4a7c15ull * (id + 1));
        Rng rng(splitmix64(sm));
        Document d;
        d.id = id;
        // Length in [avg/2, 3*avg/2).
        const uint32_t len = cfg_.avgDocLen / 2 +
            static_cast<uint32_t>(rng.nextRange(cfg_.avgDocLen));
        d.terms.reserve(len);
        for (uint32_t i = 0; i < len; ++i)
            d.terms.push_back(static_cast<TermId>(zipf_.sample(rng)));
        return d;
    }

  private:
    CorpusConfig cfg_;
    ZipfSampler zipf_;
};

} // namespace wsearch

#endif // WSEARCH_SEARCH_CORPUS_HH
