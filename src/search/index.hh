/**
 * @file
 * The index shard. Two implementations behind one interface:
 *
 *  - MaterializedIndex: a real inverted index built from a corpus
 *    (term -> encoded posting list), with document metadata. Exact
 *    and fully functional; used by correctness tests and the small
 *    examples.
 *
 *  - ProceduralIndex: posting content is a deterministic function of
 *    (term, position), generated on demand. Physically tiny, but its
 *    *nominal* shard layout spans many GiB, so the instrumented
 *    engine produces shard access streams with production-scale
 *    footprints -- the substitution for the paper's proprietary
 *    shards (DESIGN.md §1).
 *
 * Both report nominal shard byte offsets for every posting-list read
 * so the memory-touch instrumentation can emit canonical shard
 * addresses.
 */

#ifndef WSEARCH_SEARCH_INDEX_HH
#define WSEARCH_SEARCH_INDEX_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "search/corpus.hh"
#include "search/postings.hh"
#include "search/types.hh"
#include "util/scramble.hh"

namespace wsearch {

/** Per-term shard placement and statistics. */
struct TermInfo
{
    uint64_t shardOffset = 0; ///< nominal byte offset in the shard
    uint64_t byteLength = 0;  ///< encoded length
    uint32_t docFreq = 0;     ///< number of documents containing it
    /** Upper bound of any tf in the list (exact for materialized
     *  shards, a distribution bound for procedural ones); feeds the
     *  executor's MaxScore pruning bound. */
    uint32_t maxTf = 0;
};

/** Abstract shard interface used by the query executor. */
class IndexShard
{
  public:
    virtual ~IndexShard() = default;

    virtual uint32_t numDocs() const = 0;
    virtual uint32_t numTerms() const = 0;
    virtual double avgDocLen() const = 0;

    /** Term placement/stats (nominal offsets). */
    virtual TermInfo termInfo(TermId term) const = 0;

    /** Document length in terms (for BM25). */
    virtual uint32_t docLen(DocId doc) const = 0;

    /**
     * Every document's BM25 length norm, indexed by doc id and valid
     * while the shard lives: entry d is
     * Bm25Scorer(numDocs(), avgDocLen()).lengthNorm(docLen(d)), with
     * the scorer's default k1 and b. Null when the shard keeps no such
     * table (a sparse doc-id space, or too many documents to tabulate);
     * the executor then computes each norm from docLen().
     */
    virtual const double *lengthNorms() const { return nullptr; }

    /**
     * Materialize the encoded posting bytes for @p term into @p out.
     * For the procedural index this *generates* them; the bytes are
     * identical on every call.
     */
    virtual void postingBytes(TermId term,
                              std::vector<uint8_t> &out) const = 0;

    /**
     * Borrow a zero-copy view of @p term's encoded postings and skip
     * table, valid while the shard lives. Returns false when the
     * backend cannot lend storage (e.g. ProceduralIndex, which
     * generates bytes on demand); callers then fall back to
     * postingBytes() + buildSkipEntries() into their own scratch.
     */
    virtual bool
    postingView(TermId, PostingView &) const
    {
        return false;
    }

    /** Total nominal shard size in bytes. */
    virtual uint64_t shardBytes() const = 0;

    /** Fixed per-posting payload bytes (0 for plain (gap, tf)). */
    virtual uint32_t payloadBytes() const { return 0; }

    /** Posting block codec of this shard's byte stream. */
    virtual PostingCodec
    codec() const
    {
        return PostingCodec::kVarint;
    }
};

/** Real inverted index built from a corpus. */
class MaterializedIndex : public IndexShard
{
  public:
    /** Build from @p corpus (generates all numDocs documents). */
    explicit MaterializedIndex(
        const CorpusGenerator &corpus,
        PostingCodec codec = PostingCodec::kVarint);

    /**
     * Build a shard holding the strided partition of @p corpus:
     * global documents take_offset, take_offset + take_stride, ...
     * become local docs 0, 1, ... -- the inverse of LeafServer's
     * docIdStride/docIdOffset mapping, so a leaf configured with the
     * same (stride, offset) returns global ids. BM25 statistics
     * (docFreq, avgDocLen) are shard-local, as in a real partitioned
     * fleet.
     */
    MaterializedIndex(const CorpusGenerator &corpus,
                      uint32_t take_stride, uint32_t take_offset,
                      PostingCodec codec = PostingCodec::kVarint);

    uint32_t numDocs() const override { return numDocs_; }
    uint32_t
    numTerms() const override
    {
        return static_cast<uint32_t>(terms_.size());
    }
    double avgDocLen() const override { return avgDocLen_; }
    TermInfo termInfo(TermId term) const override;
    uint32_t docLen(DocId doc) const override { return docLen_[doc]; }
    /** Filled once at build and shared by every executor over the
     *  shard: 8 B per document. */
    const double *
    lengthNorms() const override
    {
        return lengthNorms_.data();
    }
    void postingBytes(TermId term,
                      std::vector<uint8_t> &out) const override;
    bool postingView(TermId term, PostingView &out) const override;
    uint64_t shardBytes() const override { return shardBytes_; }
    PostingCodec codec() const override { return codec_; }

  private:
    void build(const CorpusGenerator &corpus, uint32_t take_stride,
               uint32_t take_offset);

    struct TermData
    {
        TermInfo info;
        std::vector<uint8_t> bytes;
        std::vector<SkipEntry> skips; ///< block metadata (heap)
    };
    std::vector<TermData> terms_;
    std::vector<uint32_t> docLen_;
    std::vector<double> lengthNorms_;
    PostingCodec codec_ = PostingCodec::kVarint;
    uint32_t numDocs_ = 0;
    double avgDocLen_ = 0;
    uint64_t shardBytes_ = 0;
};

/** Procedurally backed shard with production-scale nominal layout. */
class ProceduralIndex : public IndexShard
{
  public:
    struct Config
    {
        uint32_t numDocs = 1u << 24;  ///< 16M docs
        uint32_t numTerms = 1u << 23; ///< 8M terms
        uint32_t maxDocFreq = 32768;
        uint32_t minDocFreq = 16;
        /** Per-posting payload (positions/features); part of the
         *  shard layout, skipped on decode. The default makes the
         *  nominal shard GiB-scale. */
        uint32_t payloadBytes = 8;
        uint64_t seed = 0x54a4dull;
    };

    explicit ProceduralIndex(const Config &cfg);

    uint32_t numDocs() const override { return cfg_.numDocs; }
    uint32_t numTerms() const override { return cfg_.numTerms; }
    double avgDocLen() const override { return 120.0; }
    TermInfo termInfo(TermId term) const override;
    uint32_t
    docLen(DocId doc) const override
    {
        return 60 + static_cast<uint32_t>(mix64(doc ^ cfg_.seed) % 120);
    }
    void postingBytes(TermId term,
                      std::vector<uint8_t> &out) const override;
    uint64_t shardBytes() const override { return shardBytes_; }
    uint32_t payloadBytes() const override { return cfg_.payloadBytes; }

  private:
    uint32_t docFreqOf(TermId term) const;

    Config cfg_;
    uint64_t shardBytes_ = 0;
    std::vector<uint64_t> offsets_; ///< per-term shard offsets
};

} // namespace wsearch

#endif // WSEARCH_SEARCH_INDEX_HH
