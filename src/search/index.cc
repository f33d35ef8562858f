#include "search/index.hh"

#include <algorithm>
#include <cmath>

#include "search/scorer.hh"
#include "util/logging.hh"

namespace wsearch {

// ---------------------------------------------------------------------
// MaterializedIndex
// ---------------------------------------------------------------------

MaterializedIndex::MaterializedIndex(const CorpusGenerator &corpus,
                                     PostingCodec codec)
    : codec_(codec)
{
    build(corpus, 1, 0);
}

MaterializedIndex::MaterializedIndex(const CorpusGenerator &corpus,
                                     uint32_t take_stride,
                                     uint32_t take_offset,
                                     PostingCodec codec)
    : codec_(codec)
{
    build(corpus, take_stride, take_offset);
}

void
MaterializedIndex::build(const CorpusGenerator &corpus,
                         uint32_t take_stride, uint32_t take_offset)
{
    wsearch_assert(take_stride >= 1);
    wsearch_assert(take_offset < take_stride);
    const CorpusConfig &cc = corpus.config();
    // Local doc d maps to global doc d * stride + offset.
    numDocs_ = take_offset < cc.numDocs
        ? (cc.numDocs - take_offset + take_stride - 1) / take_stride
        : 0;
    docLen_.resize(numDocs_);

    // term -> the local doc of each of its occurrences, built doc by
    // doc. Documents arrive in ascending id order, so each list comes
    // out sorted and a document's repeats of the term are adjacent.
    std::vector<std::vector<DocId>> acc(cc.vocabSize);
    uint64_t total_len = 0;
    for (DocId d = 0; d < numDocs_; ++d) {
        const Document doc =
            corpus.document(d * take_stride + take_offset);
        docLen_[d] = static_cast<uint32_t>(doc.terms.size());
        total_len += doc.terms.size();
        for (const TermId t : doc.terms)
            acc[t].push_back(d);
    }
    avgDocLen_ = numDocs_
        ? static_cast<double>(total_len) / numDocs_ : 0.0;
    const Bm25Scorer scorer(numDocs_, avgDocLen_);
    lengthNorms_.resize(numDocs_);
    for (DocId d = 0; d < numDocs_; ++d)
        lengthNorms_[d] = scorer.lengthNorm(docLen_[d]);

    terms_.resize(cc.vocabSize);
    uint64_t offset = 0;
    for (TermId t = 0; t < cc.vocabSize; ++t) {
        PostingListBuilder b(codec_);
        const std::vector<DocId> &docs = acc[t];
        // Each run of one doc is a posting; its length is the tf.
        for (auto run = docs.begin(); run != docs.end();) {
            const DocId doc = *run;
            const auto next = std::find_if(
                run, docs.end(), [doc](DocId x) { return x != doc; });
            b.add(doc, static_cast<uint32_t>(next - run));
            run = next;
        }
        // Encoded lists reuse the freed occurrences as the walk goes.
        std::vector<DocId>().swap(acc[t]);
        TermData &td = terms_[t];
        td.info.docFreq = b.count();
        td.skips = b.releaseSkips(); // must precede release()
        td.bytes = b.release();
        for (const SkipEntry &e : td.skips)
            td.info.maxTf = std::max(td.info.maxTf, e.maxTf);
        td.info.byteLength = td.bytes.size();
        td.info.shardOffset = offset;
        offset += td.info.byteLength;
    }
    shardBytes_ = offset;
}

TermInfo
MaterializedIndex::termInfo(TermId term) const
{
    wsearch_assert(term < terms_.size());
    return terms_[term].info;
}

void
MaterializedIndex::postingBytes(TermId term,
                                std::vector<uint8_t> &out) const
{
    wsearch_assert(term < terms_.size());
    out = terms_[term].bytes;
}

bool
MaterializedIndex::postingView(TermId term, PostingView &out) const
{
    wsearch_assert(term < terms_.size());
    const TermData &td = terms_[term];
    out.bytes = td.bytes.data();
    out.size = td.bytes.size();
    out.skips = td.skips.data();
    out.numSkips = static_cast<uint32_t>(td.skips.size());
    out.count = td.info.docFreq;
    out.codec = codec_;
    return true;
}

// ---------------------------------------------------------------------
// ProceduralIndex
// ---------------------------------------------------------------------

namespace {

/** Per-entry layout parameters for one procedural term. */
struct ProcTermLayout
{
    uint32_t df;
    uint32_t gapBytes;  ///< exact varint size of every gap
    uint64_t gapLo;     ///< inclusive gap range
    uint64_t gapHi;
};

ProcTermLayout
layoutFor(uint32_t df, uint32_t num_docs, uint32_t payload_bytes)
{
    (void)payload_bytes;
    ProcTermLayout l;
    l.df = df;
    const uint64_t avg_gap =
        std::max<uint64_t>(1, num_docs / std::max<uint32_t>(1, df));
    // Pin every gap to one exact varint size so posting byte lengths
    // are a closed-form function of df (O(1) termInfo on a shard that
    // is never materialized).
    uint32_t gb = varintSize(avg_gap);
    const uint64_t lo_bound = gb == 1 ? 1 : (1ull << (7 * (gb - 1)));
    const uint64_t hi_bound = (1ull << (7 * gb)) - 1;
    uint64_t lo = std::max<uint64_t>(lo_bound, avg_gap / 2);
    uint64_t hi = std::min<uint64_t>(hi_bound, avg_gap * 2);
    if (lo > hi)
        lo = hi;
    l.gapBytes = gb;
    l.gapLo = lo;
    l.gapHi = hi;
    return l;
}

} // namespace

ProceduralIndex::ProceduralIndex(const Config &cfg) : cfg_(cfg)
{
    wsearch_assert(cfg.numTerms >= 1);
    // Shard layout is a closed form; compute the total size.
    // df(rank) = clamp(maxDf / (rank+1)^kDfTheta, minDf, maxDf).
    uint64_t offset = 0;
    // Full per-term offset table: 8 bytes per term, built once.
    offsets_.reserve(cfg.numTerms + 1);
    for (TermId t = 0; t < cfg.numTerms; ++t) {
        offsets_.push_back(offset);
        const ProcTermLayout l =
            layoutFor(docFreqOf(t), cfg.numDocs, cfg.payloadBytes);
        offset += static_cast<uint64_t>(l.df) *
            (l.gapBytes + 1 + cfg.payloadBytes);
    }
    offsets_.push_back(offset);
    shardBytes_ = offset;
}

uint32_t
ProceduralIndex::docFreqOf(TermId term) const
{
    constexpr double kDfTheta = 0.80; // skew of df over term rank
    const double df = static_cast<double>(cfg_.maxDocFreq) /
        std::pow(static_cast<double>(term) + 1.0, kDfTheta);
    if (df < cfg_.minDocFreq)
        return cfg_.minDocFreq;
    if (df > cfg_.maxDocFreq)
        return cfg_.maxDocFreq;
    return static_cast<uint32_t>(df);
}

TermInfo
ProceduralIndex::termInfo(TermId term) const
{
    wsearch_assert(term < cfg_.numTerms);
    TermInfo info;
    const ProcTermLayout l =
        layoutFor(docFreqOf(term), cfg_.numDocs, cfg_.payloadBytes);
    info.docFreq = l.df;
    info.byteLength = static_cast<uint64_t>(l.df) *
        (l.gapBytes + 1 + cfg_.payloadBytes);
    info.shardOffset = offsets_[term];
    // Generated tf is 1 + mix64 % 6: bound without materializing.
    info.maxTf = 6;
    return info;
}

void
ProceduralIndex::postingBytes(TermId term,
                              std::vector<uint8_t> &out) const
{
    out.clear();
    const ProcTermLayout l =
        layoutFor(docFreqOf(term), cfg_.numDocs, cfg_.payloadBytes);
    out.reserve(static_cast<size_t>(l.df) *
                (l.gapBytes + 1 + cfg_.payloadBytes));
    const uint64_t salt = cfg_.seed ^
        (static_cast<uint64_t>(term) * 0x9e3779b97f4a7c15ull);
    const uint64_t span = l.gapHi - l.gapLo + 1;
    for (uint32_t i = 0; i < l.df; ++i) {
        const uint64_t gap = l.gapLo + mix64(salt + i) % span;
        const uint32_t tf = 1 + static_cast<uint32_t>(
            mix64(salt ^ (i + 0x7f0ull)) % 6);
        const uint32_t gap_size = varintEncode(gap, out);
        wsearch_assert(gap_size == l.gapBytes);
        varintEncode(tf, out);
        // Fixed-size payload (positions / static features).
        for (uint32_t b = 0; b < cfg_.payloadBytes; ++b)
            out.push_back(static_cast<uint8_t>(mix64(salt + i) >>
                                               (8 * (b % 8))));
    }
}

} // namespace wsearch
