/**
 * @file
 * Leaf query-execution microbenchmark: the pruned fast path (block
 * postings + skip-driven AND / MaxScore OR) against the sequential
 * reference executor (ExecAlgo::kSequential), same corpus, same
 * queries, single thread -- for BOTH posting codecs (delta+varint and
 * the SIMD bit-packed frame-of-reference blocks). Reports QPS,
 * postings decoded, candidates scored, and the scored/decoded ratio,
 * plus the packed-vs-varint QPS ratio that motivates the codec and
 * each codec's index build time (informational, never gated).
 *
 * Every query is executed on every engine x codec combination and the
 * result lists are compared bit-identically (doc ids, float scores,
 * order) against the varint sequential reference; the mismatches are
 * a check of BENCH_leaf.json, so any one fails the run and both the
 * pruning speedup and the packed-codec speedup always stand for the
 * same answers. Each row's topk_digest counter pins those answers'
 * score bits against the previous run.
 *
 * Flags:
 *   --smoke        tiny corpus + few queries; the CI equivalence gate
 */

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "common.hh"
#include "search/executor.hh"
#include "util/logging.hh"
#include "util/table.hh"

namespace wsearch {
namespace {

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

struct EngineRun
{
    double qps = 0;
    ExecStats stats;
    std::vector<SearchResponse> responses;
};

EngineRun
runEngine(QueryExecutor &ex, const std::vector<Query> &queries,
          ExecAlgo algo)
{
    EngineRun r;
    r.responses.reserve(queries.size());
    const uint64_t t0 = nowNs();
    for (const Query &q : queries) {
        SearchRequest req;
        req.query = q;
        req.algo = algo;
        r.responses.push_back(ex.execute(req));
        r.stats.merge(ex.lastStats());
    }
    const uint64_t dt = nowNs() - t0;
    r.qps = queries.size() / (static_cast<double>(dt) * 1e-9);
    return r;
}

/** The queries whose results in @p run differ from @p ref's. */
uint64_t
mismatches(const std::vector<Query> &queries, const EngineRun &run,
           const EngineRun &ref, const char *what)
{
    uint64_t n = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
        const auto &p = run.responses[i].docs;
        const auto &s = ref.responses[i].docs;
        bool same = p.size() == s.size();
        for (size_t j = 0; same && j < p.size(); ++j)
            same = p[j].doc == s[j].doc && p[j].score == s[j].score;
        if (!same && n++ == 0)
            std::fprintf(stderr,
                         "bench_leaf: %s query %zu: result differs "
                         "from the varint sequential reference\n",
                         what, i);
    }
    return n;
}

/**
 * FNV-1a over every returned doc id and the bit pattern of its float
 * score, query by query in result order. The engines share the
 * scoring code, so the cross-engine comparison cannot see a change
 * to the score bits; this gated counter does.
 */
uint64_t
topkDigest(const EngineRun &run)
{
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](uint32_t v) {
        for (int i = 0; i < 4; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    for (const SearchResponse &r : run.responses) {
        for (const ScoredDoc &d : r.docs) {
            mix(d.doc);
            mix(std::bit_cast<uint32_t>(d.score));
        }
    }
    return h;
}

double
scoredPerDecoded(const ExecStats &s)
{
    return s.postingsDecoded
        ? static_cast<double>(s.candidatesScored) /
            static_cast<double>(s.postingsDecoded)
        : 0.0;
}

/** All four engine runs of one workload on one codec's shard. */
struct CodecRuns
{
    EngineRun seq;
    EngineRun pruned;
};

int
runBenchLeaf(bool smoke)
{
    bench::Artifact art("leaf", smoke);
    CorpusConfig cc;
    cc.numDocs = smoke ? 20000 : 80000;
    cc.vocabSize = 20000;
    cc.avgDocLen = 120;
    std::printf("# bench_leaf: %u docs, %u terms%s, simd %s\n",
                cc.numDocs, cc.vocabSize, smoke ? " (smoke)" : "",
                packed_simd::levelName(packed_simd::activeLevel()));
    std::fflush(stdout);
    const CorpusGenerator corpus(cc);
    // Same corpus, two layouts: every comparison below is the same
    // logical index in a different byte encoding.
    const uint64_t t_varint = nowNs();
    const MaterializedIndex varint(corpus, PostingCodec::kVarint);
    const uint64_t t_packed = nowNs();
    const MaterializedIndex packed(corpus, PostingCodec::kPacked);
    const double varint_build_sec =
        static_cast<double>(t_packed - t_varint) * 1e-9;
    const double packed_build_sec =
        static_cast<double>(nowNs() - t_packed) * 1e-9;
    std::printf("index build: varint %.3f s, packed %.3f s\n",
                varint_build_sec, packed_build_sec);

    QueryGenerator::Config qc;
    qc.vocabSize = cc.vocabSize;
    qc.distinctQueries = 1u << 16;
    qc.maxTerms = 4;
    QueryGenerator gen(qc);
    const uint64_t num_queries = smoke ? 200 : 2000;
    std::vector<Query> or_q, and_q;
    for (uint64_t i = 0; i < num_queries; ++i) {
        Query q = gen.materialize(i);
        q.topK = 10;
        q.conjunctive = false;
        or_q.push_back(q);
        q.conjunctive = true;
        and_q.push_back(q);
    }

    NullTouchSink sink;
    QueryExecutor exv(varint, 0, &sink);
    QueryExecutor exp(packed, 0, &sink);
    // Warm the arenas so steady-state has no allocation on any side.
    runEngine(exv, {or_q[0], and_q[0]}, ExecAlgo::kAuto);
    runEngine(exp, {or_q[0], and_q[0]}, ExecAlgo::kAuto);

    Table t({"Workload", "Codec", "Engine", "QPS", "Postings decoded",
             "Candidates scored", "Scored/decoded", "Speedup"});
    art.config("docs", cc.numDocs)
        .config("queries_per_workload", num_queries)
        .add("simd_level",
             packed_simd::levelName(packed_simd::activeLevel()))
        .add("index_build_sec", bench::JsonFields()
                                    .add("varint", varint_build_sec)
                                    .add("packed", packed_build_sec));

    uint64_t mismatched = 0, packed_blocks = 0;
    double packed_vs_varint_min = 1e300;
    const struct
    {
        const char *name;
        const std::vector<Query> *queries;
        ExecAlgo prunedAlgo;
    } workloads[] = {{"OR", &or_q, ExecAlgo::kOr},
                     {"AND", &and_q, ExecAlgo::kAnd}};
    for (const auto &w : workloads) {
        CodecRuns vr, pr;
        vr.seq = runEngine(exv, *w.queries, ExecAlgo::kSequential);
        vr.pruned = runEngine(exv, *w.queries, w.prunedAlgo);
        pr.seq = runEngine(exp, *w.queries, ExecAlgo::kSequential);
        pr.pruned = runEngine(exp, *w.queries, w.prunedAlgo);

        // One reference, three challengers: varint pruned, packed
        // sequential, packed pruned must all match bit-identically.
        mismatched += mismatches(*w.queries, vr.pruned, vr.seq, w.name) +
            mismatches(*w.queries, pr.seq, vr.seq, w.name) +
            mismatches(*w.queries, pr.pruned, vr.seq, w.name);
        packed_blocks += pr.pruned.stats.packedBlocksDecoded;

        const struct
        {
            const char *codec;
            const CodecRuns *runs;
        } sides[] = {{"varint", &vr}, {"packed", &pr}};
        for (const auto &side : sides) {
            const EngineRun &seq = side.runs->seq;
            const EngineRun &pruned = side.runs->pruned;
            t.addRow({w.name, side.codec, "sequential",
                      Table::fmt(seq.qps, 0),
                      Table::fmtInt(seq.stats.postingsDecoded),
                      Table::fmtInt(seq.stats.candidatesScored),
                      Table::fmt(scoredPerDecoded(seq.stats), 3),
                      Table::fmt(seq.qps / vr.seq.qps, 2)});
            t.addRow({w.name, side.codec, "pruned",
                      Table::fmt(pruned.qps, 0),
                      Table::fmtInt(pruned.stats.postingsDecoded),
                      Table::fmtInt(pruned.stats.candidatesScored),
                      Table::fmt(scoredPerDecoded(pruned.stats), 3),
                      Table::fmt(pruned.qps / vr.seq.qps, 2)});
            art.row()
                .key("workload", w.name)
                .key("codec", side.codec)
                .add("sequential_qps", seq.qps)
                .add("pruned_qps", pruned.qps)
                .add("speedup_vs_varint_seq", pruned.qps / vr.seq.qps)
                .counter("postings_decoded", pruned.stats.postingsDecoded)
                .counter("candidates_scored",
                         pruned.stats.candidatesScored)
                .counter("blocks_decoded", pruned.stats.blocksDecoded)
                .counter("blocks_skipped", pruned.stats.blocksSkipped)
                .counter("packed_blocks_decoded",
                         pruned.stats.packedBlocksDecoded)
                .counter("topk_digest", topkDigest(pruned));
        }
        packed_vs_varint_min = std::min(
            packed_vs_varint_min, pr.pruned.qps / vr.pruned.qps);
        std::printf("%s: packed/varint pruned QPS ratio %.2f\n",
                    w.name, pr.pruned.qps / vr.pruned.qps);
        std::fflush(stdout);
    }
    t.print();

    const uint64_t expected = 6 * num_queries;
    std::printf("\nequivalence: %llu of %llu comparisons bit-identical "
                "to the varint sequential reference; %llu packed "
                "blocks decoded\n",
                static_cast<unsigned long long>(expected - mismatched),
                static_cast<unsigned long long>(expected),
                static_cast<unsigned long long>(packed_blocks));

    art.counter("equivalent_queries", expected - mismatched)
        .counter("expected_equivalent_queries", expected)
        .check("mismatched_queries", mismatched)
        .add("packed_vs_varint_pruned_qps_min", packed_vs_varint_min);
    return art.finish();
}

} // namespace
} // namespace wsearch

int
main(int argc, char **argv)
{
    return wsearch::runBenchLeaf(
        wsearch::bench::parseArgs(argc, argv).smoke);
}
