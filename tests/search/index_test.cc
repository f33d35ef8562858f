#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "search/index.hh"
#include "search/sharding.hh"

namespace wsearch {
namespace {

CorpusConfig
tinyCorpus()
{
    CorpusConfig c;
    c.numDocs = 500;
    c.vocabSize = 800;
    c.avgDocLen = 40;
    return c;
}

TEST(Corpus, Deterministic)
{
    CorpusGenerator g(tinyCorpus());
    const Document a = g.document(42);
    const Document b = g.document(42);
    EXPECT_EQ(a.terms, b.terms);
    EXPECT_NE(g.document(43).terms, a.terms);
}

TEST(Corpus, LengthsInRange)
{
    CorpusGenerator g(tinyCorpus());
    for (DocId d = 0; d < 100; ++d) {
        const Document doc = g.document(d);
        EXPECT_GE(doc.terms.size(), 20u);
        EXPECT_LT(doc.terms.size(), 60u);
        for (const TermId t : doc.terms)
            EXPECT_LT(t, 800u);
    }
}

TEST(MaterializedIndex, MatchesCorpusExactly)
{
    CorpusGenerator g(tinyCorpus());
    MaterializedIndex idx(g);
    // Recount term frequencies independently.
    std::map<TermId, std::map<DocId, uint32_t>> ref;
    for (DocId d = 0; d < 500; ++d)
        for (const TermId t : g.document(d).terms)
            ++ref[t][d];
    for (const auto &[term, docs] : ref) {
        const TermInfo info = idx.termInfo(term);
        ASSERT_EQ(info.docFreq, docs.size()) << "term " << term;
        std::vector<uint8_t> bytes;
        idx.postingBytes(term, bytes);
        PostingCursor c(bytes.data(), bytes.data() + bytes.size(),
                        info.docFreq);
        for (const auto &[doc, tf] : docs) {
            ASSERT_TRUE(c.valid());
            ASSERT_EQ(c.doc(), doc);
            ASSERT_EQ(c.tf(), tf);
            c.next();
        }
        ASSERT_FALSE(c.valid());
    }
}

TEST(MaterializedIndex, OffsetsAreContiguous)
{
    CorpusGenerator g(tinyCorpus());
    MaterializedIndex idx(g);
    uint64_t expected = 0;
    for (TermId t = 0; t < idx.numTerms(); ++t) {
        const TermInfo info = idx.termInfo(t);
        EXPECT_EQ(info.shardOffset, expected);
        expected += info.byteLength;
    }
    EXPECT_EQ(idx.shardBytes(), expected);
}

TEST(MaterializedIndex, DocLenMatchesCorpus)
{
    CorpusGenerator g(tinyCorpus());
    MaterializedIndex idx(g);
    for (DocId d = 0; d < 100; ++d)
        EXPECT_EQ(idx.docLen(d), g.document(d).terms.size());
    EXPECT_GT(idx.avgDocLen(), 20.0);
    EXPECT_LT(idx.avgDocLen(), 60.0);
}

/**
 * The std::map-per-term inversion that MaterializedIndex::build used
 * before the flat one, kept as its reference: every term's encoded
 * bytes, skip table and TermInfo, plus the document statistics.
 */
struct ReferenceIndex
{
    std::vector<std::vector<uint8_t>> bytes;
    std::vector<std::vector<SkipEntry>> skips;
    std::vector<TermInfo> info;
    std::vector<uint32_t> docLen;
    double avgDocLen = 0;
    uint64_t shardBytes = 0;
};

ReferenceIndex
mapInversion(const CorpusGenerator &corpus, uint32_t stride,
             uint32_t offset, PostingCodec codec)
{
    const CorpusConfig &cc = corpus.config();
    const uint32_t num_docs = offset < cc.numDocs
        ? (cc.numDocs - offset + stride - 1) / stride
        : 0;
    ReferenceIndex ref;
    std::vector<std::map<DocId, uint32_t>> acc(cc.vocabSize);
    uint64_t total_len = 0;
    for (DocId d = 0; d < num_docs; ++d) {
        const Document doc = corpus.document(d * stride + offset);
        ref.docLen.push_back(static_cast<uint32_t>(doc.terms.size()));
        total_len += doc.terms.size();
        for (const TermId t : doc.terms)
            ++acc[t][d];
    }
    ref.avgDocLen = num_docs
        ? static_cast<double>(total_len) / num_docs : 0.0;
    for (TermId t = 0; t < cc.vocabSize; ++t) {
        PostingListBuilder b(codec);
        for (const auto &[doc, tf] : acc[t])
            b.add(doc, tf);
        TermInfo info;
        info.docFreq = b.count();
        ref.skips.push_back(b.releaseSkips());
        ref.bytes.push_back(b.release());
        for (const SkipEntry &e : ref.skips.back())
            info.maxTf = std::max(info.maxTf, e.maxTf);
        info.byteLength = ref.bytes.back().size();
        info.shardOffset = ref.shardBytes;
        ref.shardBytes += info.byteLength;
        ref.info.push_back(info);
    }
    return ref;
}

/** @p idx equals @p ref byte for byte, in every field it serves. */
void
expectSameIndex(const MaterializedIndex &idx, const ReferenceIndex &ref,
                PostingCodec codec, const std::string &what)
{
    SCOPED_TRACE(what);
    ASSERT_EQ(idx.numDocs(), ref.docLen.size());
    ASSERT_EQ(idx.numTerms(), ref.info.size());
    for (DocId d = 0; d < idx.numDocs(); ++d)
        ASSERT_EQ(idx.docLen(d), ref.docLen[d]) << "doc " << d;
    EXPECT_EQ(idx.avgDocLen(), ref.avgDocLen);
    EXPECT_EQ(idx.shardBytes(), ref.shardBytes);
    EXPECT_EQ(idx.codec(), codec);
    std::vector<uint8_t> bytes;
    for (TermId t = 0; t < idx.numTerms(); ++t) {
        const TermInfo info = idx.termInfo(t);
        const TermInfo &want = ref.info[t];
        ASSERT_EQ(info.shardOffset, want.shardOffset) << "term " << t;
        ASSERT_EQ(info.byteLength, want.byteLength) << "term " << t;
        ASSERT_EQ(info.docFreq, want.docFreq) << "term " << t;
        ASSERT_EQ(info.maxTf, want.maxTf) << "term " << t;
        idx.postingBytes(t, bytes);
        ASSERT_EQ(bytes, ref.bytes[t]) << "term " << t;
        PostingView v;
        ASSERT_TRUE(idx.postingView(t, v));
        ASSERT_EQ(std::vector<uint8_t>(v.bytes, v.bytes + v.size),
                  ref.bytes[t])
            << "term " << t;
        ASSERT_EQ(v.count, want.docFreq) << "term " << t;
        ASSERT_EQ(v.codec, codec) << "term " << t;
        ASSERT_EQ(v.numSkips, ref.skips[t].size()) << "term " << t;
        for (uint32_t i = 0; i < v.numSkips; ++i) {
            const SkipEntry &got = v.skips[i], &skip = ref.skips[t][i];
            ASSERT_EQ(got.lastDoc, skip.lastDoc) << "term " << t;
            ASSERT_EQ(got.endByte, skip.endByte) << "term " << t;
            ASSERT_EQ(got.count, skip.count) << "term " << t;
            ASSERT_EQ(got.maxTf, skip.maxTf) << "term " << t;
        }
    }
}

const char *
codecName(PostingCodec codec)
{
    return codec == PostingCodec::kVarint ? "varint" : "packed";
}

TEST(MaterializedIndex, FlatBuildMatchesMapReference)
{
    // Lists long enough for several 128-posting blocks, and a
    // vocabulary tail that the corpus never draws.
    CorpusConfig cc;
    cc.numDocs = 1000;
    cc.vocabSize = 4000;
    cc.avgDocLen = 40;
    const CorpusGenerator corpus(cc);
    for (const PostingCodec codec :
         {PostingCodec::kVarint, PostingCodec::kPacked}) {
        const ReferenceIndex full = mapInversion(corpus, 1, 0, codec);
        uint32_t absent = 0, multi_block = 0;
        for (const TermInfo &info : full.info) {
            absent += info.docFreq == 0;
            multi_block += info.docFreq > 128;
        }
        ASSERT_GT(absent, 0u);
        ASSERT_GT(multi_block, 0u);
        expectSameIndex(MaterializedIndex(corpus, codec), full, codec,
                        std::string(codecName(codec)) + " full");

        const ShardedIndex sharded = buildShardedIndex(corpus, 3, codec);
        for (uint32_t s = 0; s < 3; ++s)
            expectSameIndex(*sharded.shards[s],
                            mapInversion(corpus, 3, s, codec), codec,
                            std::string(codecName(codec)) + " shard " +
                                std::to_string(s) + " of 3");
    }
}

TEST(MaterializedIndex, FlatBuildMatchesMapReferenceOnTinyVocabulary)
{
    // Four terms over 40-term documents: nearly every posting has a
    // tf above 1, so every repeat of (term, doc) is folded.
    CorpusConfig cc;
    cc.numDocs = 600;
    cc.vocabSize = 4;
    cc.avgDocLen = 40;
    const CorpusGenerator corpus(cc);
    for (const PostingCodec codec :
         {PostingCodec::kVarint, PostingCodec::kPacked}) {
        const ReferenceIndex ref = mapInversion(corpus, 1, 0, codec);
        ASSERT_GT(ref.info[0].maxTf, 5u);
        expectSameIndex(MaterializedIndex(corpus, codec), ref, codec,
                        codecName(codec));
        expectSameIndex(MaterializedIndex(corpus, 2, 1, codec),
                        mapInversion(corpus, 2, 1, codec), codec,
                        std::string(codecName(codec)) + " shard 1 of 2");
    }
}

TEST(MaterializedIndex, ShardAtOrPastTheLastDocIsEmpty)
{
    // Five documents, stride 8: offsets 5 and 7 take no document, and
    // every term of those shards is absent.
    CorpusConfig cc;
    cc.numDocs = 5;
    cc.vocabSize = 50;
    cc.avgDocLen = 10;
    const CorpusGenerator corpus(cc);
    for (const PostingCodec codec :
         {PostingCodec::kVarint, PostingCodec::kPacked}) {
        for (const uint32_t offset : {4u, 5u, 7u}) {
            const MaterializedIndex idx(corpus, 8, offset, codec);
            EXPECT_EQ(idx.numDocs(), offset < 5 ? 1u : 0u);
            expectSameIndex(idx, mapInversion(corpus, 8, offset, codec),
                            codec,
                            std::string(codecName(codec)) + " offset " +
                                std::to_string(offset));
        }
    }
}

ProceduralIndex::Config
smallProc()
{
    ProceduralIndex::Config c;
    c.numDocs = 100000;
    c.numTerms = 2000;
    c.maxDocFreq = 5000;
    c.minDocFreq = 4;
    c.payloadBytes = 0;
    return c;
}

TEST(ProceduralIndex, ByteLengthMatchesGeneratedBytes)
{
    ProceduralIndex idx(smallProc());
    std::vector<uint8_t> bytes;
    for (TermId t = 0; t < 2000; t += 97) {
        const TermInfo info = idx.termInfo(t);
        idx.postingBytes(t, bytes);
        ASSERT_EQ(bytes.size(), info.byteLength) << "term " << t;
    }
}

TEST(ProceduralIndex, OffsetsAreContiguous)
{
    ProceduralIndex idx(smallProc());
    uint64_t expected = 0;
    for (TermId t = 0; t < idx.numTerms(); ++t) {
        const TermInfo info = idx.termInfo(t);
        ASSERT_EQ(info.shardOffset, expected);
        expected += info.byteLength;
    }
    EXPECT_EQ(idx.shardBytes(), expected);
}

TEST(ProceduralIndex, PostingsAscendAndDecode)
{
    ProceduralIndex idx(smallProc());
    std::vector<uint8_t> bytes;
    for (TermId t : {0u, 1u, 50u, 1999u}) {
        const TermInfo info = idx.termInfo(t);
        idx.postingBytes(t, bytes);
        PostingCursor c(bytes.data(), bytes.data() + bytes.size(),
                        info.docFreq);
        DocId prev = 0;
        uint32_t count = 0;
        bool first = true;
        while (c.valid()) {
            if (!first) {
                ASSERT_GT(c.doc(), prev);
            }
            ASSERT_GE(c.tf(), 1u);
            prev = c.doc();
            first = false;
            ++count;
            c.next();
        }
        ASSERT_EQ(count, info.docFreq);
    }
}

TEST(ProceduralIndex, Deterministic)
{
    ProceduralIndex a(smallProc()), b(smallProc());
    std::vector<uint8_t> ba, bb;
    a.postingBytes(123, ba);
    b.postingBytes(123, bb);
    EXPECT_EQ(ba, bb);
}

TEST(ProceduralIndex, DocFreqDecreasesWithRank)
{
    ProceduralIndex idx(smallProc());
    EXPECT_GE(idx.termInfo(0).docFreq, idx.termInfo(10).docFreq);
    EXPECT_GE(idx.termInfo(10).docFreq, idx.termInfo(100).docFreq);
    EXPECT_GE(idx.termInfo(1999).docFreq, 4u); // never below the floor
    EXPECT_EQ(idx.termInfo(0).docFreq, 5000u); // cap
}

TEST(ProceduralIndex, PayloadBytesAreSkippedByCursor)
{
    ProceduralIndex::Config c = smallProc();
    c.payloadBytes = 8;
    ProceduralIndex idx(c);
    std::vector<uint8_t> bytes;
    const TermInfo info = idx.termInfo(7);
    idx.postingBytes(7, bytes);
    ASSERT_EQ(bytes.size(), info.byteLength);
    PostingCursor cur(bytes.data(), bytes.data() + bytes.size(),
                      info.docFreq, 8);
    DocId prev = 0;
    uint32_t count = 0;
    while (cur.valid()) {
        if (count) {
            ASSERT_GT(cur.doc(), prev);
        }
        prev = cur.doc();
        ++count;
        cur.next();
    }
    ASSERT_EQ(count, info.docFreq);
}

TEST(ProceduralIndex, DefaultShardIsProductionScale)
{
    // The default configuration must give a GiB-scale nominal shard
    // (the paper's leaves hold 100s of GiB; we need at least enough
    // to dwarf any cache under study).
    ProceduralIndex idx(ProceduralIndex::Config{});
    EXPECT_GT(idx.shardBytes(), 1ull << 30);
}

} // namespace
} // namespace wsearch
