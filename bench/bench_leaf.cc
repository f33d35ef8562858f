/**
 * @file
 * Leaf query-execution microbenchmark: the pruned fast path (block
 * postings + skip-driven AND / MaxScore OR) against the sequential
 * reference executor (ExecAlgo::kSequential), same corpus, same
 * queries, single thread -- for BOTH posting codecs (delta+varint and
 * the SIMD bit-packed frame-of-reference blocks). Reports QPS,
 * postings decoded, candidates scored, and the scored/decoded ratio,
 * plus the packed-vs-varint QPS ratio that motivates the codec.
 *
 * Every query is executed on every engine x codec combination and the
 * result lists are compared bit-identically (doc ids, float scores,
 * order) against the varint sequential reference; any mismatch is
 * fatal, so both the pruning speedup and the packed-codec speedup
 * always stand for the same answers.
 *
 * Flags:
 *   --smoke        tiny corpus + few queries; the CI equivalence gate
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
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

void
checkEquivalent(const std::vector<Query> &queries,
                const EngineRun &run, const EngineRun &ref,
                const char *what)
{
    for (size_t i = 0; i < queries.size(); ++i) {
        const auto &p = run.responses[i].docs;
        const auto &s = ref.responses[i].docs;
        bool same = p.size() == s.size();
        for (size_t j = 0; same && j < p.size(); ++j)
            same = p[j].doc == s[j].doc && p[j].score == s[j].score;
        if (!same) {
            std::fprintf(stderr,
                         "bench_leaf: %s query %zu: result differs "
                         "from the varint sequential reference\n",
                         what, i);
            std::exit(1);
        }
    }
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
    const double t0 = bench::nowSec();
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
    const MaterializedIndex varint(corpus, PostingCodec::kVarint);
    const MaterializedIndex packed(corpus, PostingCodec::kPacked);

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
    bench::JsonWriter json;
    bench::beginStandardJson(json, "leaf", smoke);
    json.add("docs", static_cast<uint64_t>(cc.numDocs));
    json.add("queries_per_workload", num_queries);
    json.add("simd_level",
             std::string(packed_simd::levelName(
                 packed_simd::activeLevel())));
    json.beginArray("rows");

    uint64_t equivalent = 0, packed_blocks = 0;
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
        checkEquivalent(*w.queries, vr.pruned, vr.seq, w.name);
        checkEquivalent(*w.queries, pr.seq, vr.seq, w.name);
        checkEquivalent(*w.queries, pr.pruned, vr.seq, w.name);
        equivalent += 3 * w.queries->size();
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
            json.beginObject();
            json.add("workload", std::string(w.name));
            json.add("codec", std::string(side.codec));
            json.add("sequential_qps", seq.qps);
            json.add("pruned_qps", pruned.qps);
            json.add("speedup_vs_varint_seq", pruned.qps / vr.seq.qps);
            json.add("postings_decoded", pruned.stats.postingsDecoded);
            json.add("candidates_scored",
                     pruned.stats.candidatesScored);
            json.add("blocks_decoded", pruned.stats.blocksDecoded);
            json.add("blocks_skipped", pruned.stats.blocksSkipped);
            json.add("packed_blocks_decoded",
                     pruned.stats.packedBlocksDecoded);
            json.endObject();
        }
        packed_vs_varint_min = std::min(
            packed_vs_varint_min, pr.pruned.qps / vr.pruned.qps);
        std::printf("%s: packed/varint pruned QPS ratio %.2f\n",
                    w.name, pr.pruned.qps / vr.pruned.qps);
        std::fflush(stdout);
    }
    t.print();

    std::printf("\nequivalence: %llu comparisons bit-identical to the "
                "varint sequential reference; %llu packed blocks "
                "decoded\n",
                static_cast<unsigned long long>(equivalent),
                static_cast<unsigned long long>(packed_blocks));

    json.endArray();
    // Measured vs expected: bench_diff.py fails the run when these
    // disagree (the in-process gate already exits 1, but the pair
    // also catches a crashed/truncated run at diff time).
    json.add("equivalent_queries", equivalent);
    json.add("expected_equivalent_queries",
             static_cast<uint64_t>(6 * num_queries));
    json.add("packed_vs_varint_pruned_qps_min", packed_vs_varint_min);
    bench::finishStandardJson(json, "leaf", t0);
    return 0;
}

} // namespace
} // namespace wsearch

int
main(int argc, char **argv)
{
    return wsearch::runBenchLeaf(
        wsearch::bench::parseArgs(argc, argv).smoke);
}
