#include "search/executor.hh"

#include <algorithm>
#include <chrono>
#include <numeric>

#include "util/rng.hh"
#include "util/units.hh"

namespace wsearch {

namespace {

/** Scratch layout offsets within a thread's per-query region. */
constexpr uint64_t kTopKOffset = 0;
constexpr uint64_t kAccumOffset = 64 * KiB;
constexpr uint32_t kAccumEntryBytes = 16;
constexpr uint64_t kAccumSlots = (8ull << 20) / kAccumEntryBytes;

/** Deadline/cancel poll period (candidate evaluations). */
constexpr uint64_t kStopCheckMask = 0x3FF;

/**
 * Conservative pruning margin. A document is pruned only when its
 * score upper bound falls below the top-k threshold by more than this
 * slack, which covers (a) double summation rounding in the bound and
 * (b) the final double -> float cast rounding *up* to exactly the
 * threshold (floats can enter on a score tie with a lower doc id).
 * The analytic MaxScore slack (doc_len -> 0) dwarfs it, so it costs
 * nothing in pruning power.
 */
double
pruneEps(double bound)
{
    return 1e-6 * (bound < 0 ? -bound : bound) + 1e-9;
}

} // namespace

QueryExecutor::QueryExecutor(const IndexShard &shard, uint32_t tid,
                             TouchSink *sink, const Clock *clock)
    : shard_(shard), scorer_(shard.numDocs(), shard.avgDocLen()),
      norms_(shard.lengthNorms()), tid_(tid), sink_(sink), clock_(clock)
{
    wsearch_assert(sink != nullptr);
}

void
QueryExecutor::loadTerm(TermId term, TermCursorData &out)
{
    out.term = term;
    out.info = shard_.termInfo(term);
    out.consumed = 0;
    out.seqDecoded = 0;
    out.blocksDecoded = 0;
    // Dictionary lookup: term stats, shard placement, and the
    // precomputed list max-score all live in the lexicon entry.
    sink_->touch(engine_vaddr::lexiconAddr(term),
                 engine_vaddr::kLexiconEntryBytes, AccessKind::Heap,
                 false);
    if (!shard_.postingView(term, out.view)) {
        // Decode-on-demand backend (ProceduralIndex): generate the
        // bytes into executor-owned scratch and build the skip
        // sidecar in one pass. The scratch is reused across queries.
        shard_.postingBytes(term, out.ownedBytes);
        buildSkipEntries(out.ownedBytes.data(),
                         out.ownedBytes.data() + out.ownedBytes.size(),
                         out.info.docFreq, shard_.payloadBytes(),
                         out.ownedSkips);
        out.view.bytes = out.ownedBytes.data();
        out.view.size = out.ownedBytes.size();
        out.view.skips = out.ownedSkips.data();
        out.view.numSkips =
            static_cast<uint32_t>(out.ownedSkips.size());
        out.view.count = out.info.docFreq;
        out.view.codec = shard_.codec();
    }
    out.idf = scorer_.idf(out.info.docFreq);
    out.maxScore = scorer_.maxScore(out.info.maxTf, out.idf);
}

double
QueryExecutor::scoreCandidate(DocId doc, uint32_t tf, double idf)
{
    // Document metadata read (length + static rank).
    sink_->touch(engine_vaddr::docMetaAddr(doc), 8, AccessKind::Heap,
                 false);
    ++lastStats_.candidatesScored;
    // A shard without a norm table (sparse or procedural doc ids)
    // yields the same double from the document's length.
    const double norm =
        norms_ ? norms_[doc] : scorer_.lengthNorm(shard_.docLen(doc));
    return scorer_.contribution(idf, tf, norm);
}

bool
QueryExecutor::shouldStop(const SearchRequest &policy)
{
    if (degraded_)
        return true;
    if (!policy.cancel && policy.deadlineNs == 0)
        return false;
    if ((++checkTick_ & kStopCheckMask) != 0)
        return false;
    if (policy.cancel &&
        policy.cancel->load(std::memory_order_acquire)) {
        degraded_ = true;
        return true;
    }
    if (policy.deadlineNs != 0 && timeNowNs() > policy.deadlineNs) {
        degraded_ = true;
        return true;
    }
    return false;
}

void
QueryExecutor::drainCursor(TermCursorData &t)
{
    uint32_t first = 0, count = 0;
    if (t.cursor.takeSkipScan(first, count)) {
        // Skip-table scan: block metadata reads (heap, not shard).
        sink_->touch(engine_vaddr::skipAddr(t.info.shardOffset, first),
                     count * engine_vaddr::kSkipEntryBytes,
                     AccessKind::Heap, false);
        lastStats_.skipEntriesScanned += count;
    }
    uint64_t bb = 0, be = 0;
    uint32_t postings = 0;
    if (t.cursor.takeDecodedBlock(bb, be, postings)) {
        // One logical touch per decoded posting region.
        touchShard(t, bb, static_cast<uint32_t>(be - bb));
        lastStats_.shardBytesRead += be - bb;
        lastStats_.postingsDecoded += postings;
        ++lastStats_.blocksDecoded;
        if (t.view.codec == PostingCodec::kPacked)
            ++lastStats_.packedBlocksDecoded;
        ++t.blocksDecoded;
    }
}

// ---------------------------------------------------------------------
// Pruned fast path
// ---------------------------------------------------------------------

void
QueryExecutor::executeConjunctive(const Query &q,
                                  const SearchRequest &policy,
                                  TopK &topk)
{
    const size_t n = q.terms.size();
    // Drive the rarest list; gallop the others. Deterministic order
    // (docFreq, term, slot) -- also the canonical scoring order.
    std::sort(order_.begin(), order_.end(),
              [this](uint32_t a, uint32_t b) {
                  const TermCursorData &ta = terms_[a];
                  const TermCursorData &tb = terms_[b];
                  if (ta.info.docFreq != tb.info.docFreq)
                      return ta.info.docFreq < tb.info.docFreq;
                  if (ta.term != tb.term)
                      return ta.term < tb.term;
                  return a < b;
              });
    for (size_t i = 0; i < n; ++i) {
        TermCursorData &t = terms_[order_[i]];
        t.cursor.reset(t.view, shard_.payloadBytes());
        drainCursor(t);
    }

    TermCursorData &drv = terms_[order_[0]];
    while (drv.cursor.valid() && !shouldStop(policy)) {
        const DocId cand = drv.cursor.doc();
        bool all = true;
        bool exhausted = false;
        DocId resume = cand;
        for (size_t i = 1; i < n; ++i) {
            TermCursorData &t = terms_[order_[i]];
            t.cursor.seek(cand);
            drainCursor(t);
            if (!t.cursor.valid()) {
                exhausted = true; // no further matches possible
                all = false;
                break;
            }
            if (t.cursor.doc() != cand) {
                all = false;
                resume = t.cursor.doc(); // gallop the driver here
                break;
            }
        }
        if (exhausted)
            break;
        if (all) {
            double score = 0;
            for (size_t i = 0; i < n; ++i) {
                TermCursorData &t = terms_[order_[i]];
                score += scoreCandidate(cand, t.cursor.tf(), t.idf);
            }
            // Top-k heap update in scratch.
            sink_->touch(engine_vaddr::scratchAddr(tid_, kTopKOffset +
                             (topk.size() % 64) * 16),
                         16, AccessKind::Heap, true);
            topk.offer({cand, static_cast<float>(score)});
            drv.cursor.next();
        } else {
            drv.cursor.seek(resume);
        }
        drainCursor(drv);
    }
    for (size_t i = 0; i < n; ++i) {
        const TermCursorData &t = terms_[order_[i]];
        lastStats_.blocksSkipped += t.view.numSkips - t.blocksDecoded;
    }
    scratchHighWater_ = std::max(scratchHighWater_,
                                 kTopKOffset + topk.capacity() * 16);
}

void
QueryExecutor::executeDisjunctive(const Query &q,
                                  const SearchRequest &policy,
                                  TopK &topk)
{
    const size_t n = q.terms.size();
    // Canonical order for MaxScore: ascending score upper bound.
    // This is also the per-document accumulation order, so the fully
    // scored sum is bit-identical to the sequential engine's.
    std::sort(order_.begin(), order_.end(),
              [this](uint32_t a, uint32_t b) {
                  const TermCursorData &ta = terms_[a];
                  const TermCursorData &tb = terms_[b];
                  if (ta.maxScore != tb.maxScore)
                      return ta.maxScore < tb.maxScore;
                  if (ta.term != tb.term)
                      return ta.term < tb.term;
                  return a < b;
              });
    for (size_t i = 0; i < n; ++i) {
        TermCursorData &t = terms_[order_[i]];
        t.cursor.reset(t.view, shard_.payloadBytes());
        drainCursor(t);
    }
    suffixUb_.resize(n + 1);
    suffixUb_[n] = 0.0;
    for (size_t i = n; i-- > 0;)
        suffixUb_[i] = suffixUb_[i + 1] + terms_[order_[i]].maxScore;

    while (!shouldStop(policy)) {
        // No pruning until the heap is full: anything can enter.
        const bool full = topk.size() == topk.capacity();
        const double theta =
            full ? static_cast<double>(topk.threshold()) : -1.0;

        // Lists [0, pivot) are non-essential: a document appearing
        // only in them is bounded by their upper-bound prefix sum and
        // can never enter the heap, so they are only ever seeked into.
        size_t pivot = 0;
        if (full) {
            double prefix = 0.0;
            while (pivot < n) {
                const double with =
                    prefix + terms_[order_[pivot]].maxScore;
                if (with + pruneEps(with) >= theta)
                    break;
                prefix = with;
                ++pivot;
            }
        }
        if (pivot == n)
            break; // even all lists together cannot beat the heap

        // Next candidate: min doc over the essential cursors.
        DocId cand = kInvalidDoc;
        for (size_t i = pivot; i < n; ++i) {
            const BlockPostingCursor &c = terms_[order_[i]].cursor;
            if (c.valid() && c.doc() < cand)
                cand = c.doc();
        }
        if (cand == kInvalidDoc)
            break; // essential lists exhausted

        // Score in canonical ascending order, abandoning as soon as
        // the remaining upper bound cannot reach the threshold.
        double score = 0.0;
        bool abandoned = false;
        for (size_t i = 0; i < n; ++i) {
            TermCursorData &t = terms_[order_[i]];
            if (i < pivot) {
                t.cursor.seek(cand);
                drainCursor(t);
            }
            if (t.cursor.valid() && t.cursor.doc() == cand)
                score += scoreCandidate(cand, t.cursor.tf(), t.idf);
            if (full) {
                const double bound = score + suffixUb_[i + 1];
                if (bound + pruneEps(bound) < theta) {
                    abandoned = true;
                    break;
                }
            }
        }
        // Consume the candidate from every essential list sitting on
        // it (also when abandoned, or it would repeat forever).
        for (size_t i = pivot; i < n; ++i) {
            TermCursorData &t = terms_[order_[i]];
            if (t.cursor.valid() && t.cursor.doc() == cand) {
                t.cursor.next();
                drainCursor(t);
            }
        }
        if (!abandoned) {
            sink_->touch(engine_vaddr::scratchAddr(tid_, kTopKOffset +
                             (topk.size() % 64) * 16),
                         16, AccessKind::Heap, true);
            topk.offer({cand, static_cast<float>(score)});
        }
    }
    for (size_t i = 0; i < n; ++i) {
        const TermCursorData &t = terms_[order_[i]];
        lastStats_.blocksSkipped += t.view.numSkips - t.blocksDecoded;
    }
    scratchHighWater_ = std::max(scratchHighWater_,
                                 kTopKOffset + topk.capacity() * 16);
}

// ---------------------------------------------------------------------
// Sequential reference engine (the pre-block executor, kept as the
// equivalence oracle and bench_leaf's "before" side)
// ---------------------------------------------------------------------

void
QueryExecutor::executeConjunctiveSeq(const Query &q,
                                     const SearchRequest &policy,
                                     TopK &topk)
{
    const size_t n = q.terms.size();
    std::sort(order_.begin(), order_.end(),
              [this](uint32_t a, uint32_t b) {
                  const TermCursorData &ta = terms_[a];
                  const TermCursorData &tb = terms_[b];
                  if (ta.info.docFreq != tb.info.docFreq)
                      return ta.info.docFreq < tb.info.docFreq;
                  if (ta.term != tb.term)
                      return ta.term < tb.term;
                  return a < b;
              });
    for (size_t i = 0; i < n; ++i) {
        TermCursorData &t = terms_[order_[i]];
        t.seq.reset(t.view.bytes, t.view.bytes + t.view.size,
                    t.info.docFreq, shard_.payloadBytes(),
                    t.view.codec);
    }
    auto account = [&](TermCursorData &t) {
        const size_t now = t.seq.bytesConsumed(t.view.bytes);
        if (now > t.consumed) {
            touchShard(t, t.consumed,
                       static_cast<uint32_t>(now - t.consumed));
            lastStats_.shardBytesRead += now - t.consumed;
            t.consumed = now;
        }
        // Byte deltas are block-granular for packed streams, so count
        // postings from the cursor's exact decode counter instead.
        const uint64_t dec = t.seq.postingsConsumed();
        lastStats_.postingsDecoded += dec - t.seqDecoded;
        t.seqDecoded = dec;
    };

    TermCursorData &drv = terms_[order_[0]];
    bool exhausted = false;
    while (drv.seq.valid() && !exhausted && !shouldStop(policy)) {
        const DocId cand = drv.seq.doc();
        bool all = true;
        for (size_t i = 1; i < n; ++i) {
            TermCursorData &t = terms_[order_[i]];
            t.seq.seek(cand);
            account(t);
            if (!t.seq.valid()) {
                exhausted = true; // no further matches possible
                all = false;
                break;
            }
            if (t.seq.doc() != cand) {
                all = false;
                break;
            }
        }
        if (all) {
            double score = 0;
            for (size_t i = 0; i < n; ++i) {
                TermCursorData &t = terms_[order_[i]];
                score += scoreCandidate(cand, t.seq.tf(), t.idf);
            }
            // Top-k heap update in scratch.
            sink_->touch(engine_vaddr::scratchAddr(tid_, kTopKOffset +
                             (topk.size() % 64) * 16),
                         16, AccessKind::Heap, true);
            topk.offer({cand, static_cast<float>(score)});
        }
        drv.seq.next();
        account(drv);
    }
}

void
QueryExecutor::executeDisjunctiveSeq(const Query &q,
                                     const SearchRequest &policy,
                                     TopK &topk)
{
    const size_t n = q.terms.size();
    accum_.clear();
    // Same canonical term order as the pruned engine so per-document
    // accumulation sums in the same sequence (bit-identical floats).
    std::sort(order_.begin(), order_.end(),
              [this](uint32_t a, uint32_t b) {
                  const TermCursorData &ta = terms_[a];
                  const TermCursorData &tb = terms_[b];
                  if (ta.maxScore != tb.maxScore)
                      return ta.maxScore < tb.maxScore;
                  if (ta.term != tb.term)
                      return ta.term < tb.term;
                  return a < b;
              });

    for (size_t i = 0; i < n && !shouldStop(policy); ++i) {
        TermCursorData &t = terms_[order_[i]];
        t.seq.reset(t.view.bytes, t.view.bytes + t.view.size,
                    t.info.docFreq, shard_.payloadBytes(),
                    t.view.codec);
        while (t.seq.valid() && !shouldStop(policy)) {
            const DocId doc = t.seq.doc();
            const double s = scoreCandidate(doc, t.seq.tf(), t.idf);
            // Accumulator update: hashed slot in scratch.
            const uint64_t slot =
                mix64(doc * 0x9e3779b97f4a7c15ull) % kAccumSlots;
            sink_->touch(engine_vaddr::scratchAddr(tid_, kAccumOffset +
                             slot * kAccumEntryBytes),
                         kAccumEntryBytes, AccessKind::Heap, true);
            accum_[doc] += s;
            t.seq.next();
            const size_t now = t.seq.bytesConsumed(t.view.bytes);
            // Packed streams consume whole blocks at a time, so most
            // steps advance zero bytes -- only touch real reads.
            if (now > t.consumed) {
                touchShard(t, t.consumed,
                           static_cast<uint32_t>(now - t.consumed));
                lastStats_.shardBytesRead += now - t.consumed;
                t.consumed = now;
            }
            ++lastStats_.postingsDecoded;
        }
    }
    const uint64_t scratch_bytes = kAccumOffset +
        std::min<uint64_t>(accum_.size(), kAccumSlots) *
            kAccumEntryBytes;
    scratchHighWater_ = std::max(scratchHighWater_, scratch_bytes);
    // Drain in doc order: unordered_map iteration order depends on
    // bucket history, which would make traces non-deterministic.
    drain_.assign(accum_.begin(), accum_.end());
    std::sort(drain_.begin(), drain_.end());
    for (const auto &[doc, score] : drain_) {
        sink_->touch(engine_vaddr::scratchAddr(tid_, kTopKOffset +
                         (doc % 64) * 16),
                     16, AccessKind::Heap, false);
        topk.offer({doc, static_cast<float>(score)});
    }
}

// ---------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------

SearchResponse
QueryExecutor::executeImpl(const Query &q, const SearchRequest &policy)
{
    lastStats_ = ExecStats{};
    degraded_ = false;
    checkTick_ = 0;
    SearchResponse resp;
    // Query parse / setup frames on the stack.
    for (uint64_t off = 0; off < 256; off += 64)
        sink_->touch(engine_vaddr::stackAddr(tid_, off), 64,
                     AccessKind::Stack, true);
    if (q.terms.empty() || q.topK == 0) {
        resp.stats = lastStats_;
        return resp;
    }
    // Cancelled/expired before starting: drop without executing.
    if ((policy.cancel &&
         policy.cancel->load(std::memory_order_acquire)) ||
        (policy.deadlineNs != 0 &&
         timeNowNs() > policy.deadlineNs)) {
        resp.ok = false;
        resp.degraded = true;
        resp.stats = lastStats_;
        return resp;
    }

    const size_t n = q.terms.size();
    if (terms_.size() < n)
        terms_.resize(n);
    for (size_t i = 0; i < n; ++i)
        loadTerm(q.terms[i], terms_[i]);
    order_.resize(n);
    std::iota(order_.begin(), order_.end(), 0u);
    topk_.reset(q.topK);

    bool conjunctive = q.conjunctive;
    if (policy.algo == ExecAlgo::kAnd)
        conjunctive = true;
    else if (policy.algo == ExecAlgo::kOr)
        conjunctive = false;
    const bool sequential = policy.algo == ExecAlgo::kSequential;

    if (conjunctive && n > 1) {
        if (sequential)
            executeConjunctiveSeq(q, policy, topk_);
        else
            executeConjunctive(q, policy, topk_);
    } else {
        if (sequential)
            executeDisjunctiveSeq(q, policy, topk_);
        else
            executeDisjunctive(q, policy, topk_);
    }
    resp.docs = topk_.results();
    resp.stats = lastStats_;
    resp.degraded = degraded_;
    return resp;
}

SearchResponse
QueryExecutor::execute(const SearchRequest &req)
{
    return executeImpl(req.query, req);
}

} // namespace wsearch
