/**
 * @file
 * Full-system trace simulation: cache hierarchy + branch predictors +
 * TLBs + Top-Down core model in one loop. This is the engine behind
 * Table I, Figures 2, 3, and 8: one pass produces MPKIs, branch
 * behaviour, TLB walks, the Top-Down breakdown, IPC, and AMAT.
 *
 * The per-record step has two halves, split at the L2->LLC boundary:
 * PrivateSystem (private caches, predictors, TLBs) and SharedSystem
 * (LLC, L4, core model). SystemSimulator runs them access by access;
 * recordPrivateHalf and replaySharedHalf run them as separate passes,
 * so configurations that differ only in the shared half replay the
 * private one once. Every replay, exact or sampled, walks a
 * SamplingPlan through replayPlan (memsim/sweep.hh); the exact one is
 * a contiguousPlan.
 */

#ifndef WSEARCH_CPU_SYSTEM_HH
#define WSEARCH_CPU_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "cpu/branch.hh"
#include "cpu/core_model.hh"
#include "cpu/tlb.hh"
#include "memsim/hierarchy.hh"
#include "memsim/simulator.hh"
#include "memsim/sweep.hh"
#include "trace/buffered_trace.hh"
#include "trace/record.hh"
#include "util/logging.hh"

namespace wsearch {

/**
 * Direction-predictor capacity per core; production cores have far
 * more predictor state than an academic 16K bimodal, which matters
 * against search's ~4 MiB code footprint.
 */
constexpr uint32_t kPredictorEntries = 128 * 1024;

/** Configuration of a full system simulation. */
struct SystemConfig
{
    HierarchySpec hierarchy;
    CoreModelParams core;
    bool modelTlb = false;
    TlbConfig dtlb;  ///< data-side TLB (also used for instruction side)
};

/**
 * Everything one system run produces: the cache counters and window
 * accounting of SimResult, plus branch, TLB and Top-Down counters and
 * the derived IPC and AMAT.
 */
struct SystemResult : SimResult
{
    uint64_t branches = 0;
    uint64_t mispredicts = 0;

    uint64_t dtlbAccesses = 0;
    uint64_t dtlbWalks = 0;
    uint64_t itlbWalks = 0;

    TopDown topdown;
    double ipcPerThread = 0;  ///< per-hardware-thread IPC
    double amatL3Ns = 0;      ///< hL3*tL3 + (1-hL3)*t_miss-path

    /**
     * Merge another result's raw counters (sampled-window
     * accumulation). Derived values (IPC, AMAT) are NOT merged; the
     * simulator recomputes them after the last window.
     */
    SystemResult &
    operator+=(const SystemResult &o)
    {
        SimResult::operator+=(o);
        branches += o.branches;
        mispredicts += o.mispredicts;
        dtlbAccesses += o.dtlbAccesses;
        dtlbWalks += o.dtlbWalks;
        itlbWalks += o.itlbWalks;
        topdown += o.topdown;
        return *this;
    }

    /**
     * Every field equal, the SimResult part included. For the doubles
     * value equality is bit equality: IPC and AMAT guard their
     * divisions, and the Top-Down sums and the band variance start at
     * +0.0 and only add non-negative terms, so none is NaN or -0.
     */
    bool operator==(const SystemResult &) const = default;

    double
    branchMpki() const
    {
        return instructions
            ? 1000.0 * static_cast<double>(mispredicts) /
                  static_cast<double>(instructions)
            : 0.0;
    }

    double
    l3LoadMpki() const
    {
        return l3.mpkiData(instructions);
    }

    double
    l2InstrMpki() const
    {
        return l2.mpki(AccessKind::Code, instructions);
    }

    /**
     * L3 hit rate over data accesses only -- what CAT-style
     * load-counter measurements (paper Figure 8a) observe, and the
     * input to the AMAT/Eq.1 models.
     */
    double
    l3DataHitRate() const
    {
        const uint64_t code_acc = l3.accessesOf(AccessKind::Code);
        const uint64_t code_miss = l3.missesOf(AccessKind::Code);
        const uint64_t acc = l3.totalAccesses() - code_acc;
        const uint64_t miss = l3.totalMisses() - code_miss;
        if (acc == 0)
            return 1.0;
        return 1.0 - static_cast<double>(miss) /
                     static_cast<double>(acc);
    }
};

/**
 * Bits of a record's one-byte private-half outcome. The low two bits
 * hold the fetch's HitLevel less one (L1, L2 or kPastL2 as 0, 1, 2),
 * the next two the data access's (0 also when the record has none);
 * the rest flag TLB walks. The byte is 0 exactly when the record
 * charges the core model nothing: an event record has a fetch past
 * the L1-I, a data access past the L1-D, or a walk.
 */
constexpr uint8_t kOutDataShift = 2;
constexpr uint8_t kOutItlbWalk = 1u << 4;
constexpr uint8_t kOutDtlbWalk = 1u << 5;

/** The outcome bits of an access serviced at @p level (L1..kPastL2). */
constexpr uint8_t
outcomeBits(HitLevel level)
{
    return static_cast<uint8_t>(static_cast<uint8_t>(level) - 1);
}

/** The level in the low two outcome bits of @p out. */
constexpr HitLevel
outcomeLevel(uint8_t out)
{
    return static_cast<HitLevel>((out & 3) + 1);
}

/**
 * The private half of the per-record system step: per-core caches
 * (PrivateLevels), branch predictors and TLBs. It counts
 * instructions, yields each record's outcome byte and hands every
 * access that left the L2 to the shared half.
 */
class PrivateSystem
{
  public:
    explicit PrivateSystem(const SystemConfig &cfg);

    /**
     * Step one record. Each access that leaves the L2 passes its
     * requests to @p toShared(const SharedRequests &) before the next
     * access starts, so a caller that serves them at once keeps the
     * original interleaving, inclusive back-invalidations included.
     * @return the record's outcome byte (0: no event).
     */
    template <class ToShared>
    uint8_t
    step(const TraceRecord &r, ToShared &&toShared)
    {
        const uint32_t c = levels_.coreOf(r.tid);
        ++instructions_;
        uint8_t out = 0;
        if (tlb_ && itlbs_[c].access(r.pc) == TlbLevel::Walk) {
            ++itlbWalks_;
            out |= kOutItlbWalk;
        }
        SharedRequests q;
        const HitLevel il = levels_.fetch(c, r.pc, q);
        if (il == kPastL2)
            toShared(q);
        out |= outcomeBits(il);

        if (r.isBranch()) {
            ++branches_;
            if (!predictors_[c].predictAndUpdate(r.pc, r.isTaken()))
                ++mispredicts_;
        }
        if (r.hasData()) {
            if (tlb_) {
                ++dtlbAccesses_;
                if (dtlbs_[c].access(r.addr) == TlbLevel::Walk) {
                    ++dtlbWalks_;
                    out |= kOutDtlbWalk;
                }
            }
            const HitLevel dl = levels_.data(c, r.pc, r.addr,
                                             r.isStore(), r.kind, q);
            if (dl == kPastL2)
                toShared(q);
            out |= outcomeBits(dl) << kOutDataShift;
        }
        return out;
    }

    PrivateLevels &levels() { return levels_; }
    void resetStats();
    /** Set this half's counters in @p res (writebacks: add). */
    void harvest(SystemResult &res) const;

  private:
    PrivateLevels levels_;
    bool tlb_;
    std::vector<TournamentPredictor> predictors_; ///< one per core
    std::vector<Tlb> dtlbs_;
    std::vector<Tlb> itlbs_;
    uint64_t instructions_ = 0;
    uint64_t branches_ = 0;
    uint64_t mispredicts_ = 0;
    uint64_t itlbWalks_ = 0;
    uint64_t dtlbWalks_ = 0;
    uint64_t dtlbAccesses_ = 0;
};

/**
 * The shared half of the per-record system step: the LLC and L4
 * (SharedLevels) and the core model, which it charges from the
 * outcome byte of each event record.
 */
class SharedSystem
{
  public:
    explicit SharedSystem(const SystemConfig &cfg);

    /**
     * Charge one event record's outcome @p out to the core model.
     * Each of its two ordered sums gets the record's walk, then its
     * access, as the fused step always charged them. @p next() serves
     * the record's next access that left the L2 and returns its level.
     */
    template <class Next>
    void
    charge(uint8_t out, Next &&next)
    {
        if (out & kOutItlbWalk)
            core_.onItlbWalk();
        HitLevel il = outcomeLevel(out);
        if (il == kPastL2)
            il = next();
        core_.onInstrFetch(il);
        if (out & kOutDtlbWalk)
            core_.onTlbWalk();
        HitLevel dl = outcomeLevel(out >> kOutDataShift);
        if (dl == kPastL2)
            dl = next();
        core_.onDataAccess(dl);
    }

    SharedLevels &levels() { return levels_; }
    void resetStats();
    /**
     * Set this half's counters in @p res (writebacks: add). The
     * Top-Down slots use the instruction and mispredict counts the
     * private half's harvest left in @p res, so that one comes first.
     */
    void harvest(SystemResult &res) const;

  private:
    SharedLevels levels_;
    CoreModel core_; ///< aggregated slot accounting across threads
};

/** The combined simulator: both halves, stepped access by access. */
class SystemSimulator
{
  public:
    explicit SystemSimulator(const SystemConfig &cfg);

    /**
     * Simulate @p warmup then @p measure records from @p src (the
     * contiguousPlan, pulled in order). Statistics cover the
     * measurement phase only.
     */
    SystemResult run(TraceSource &src, uint64_t warmup,
                     uint64_t measure);

    /**
     * Chunked-replay variant over a materialized trace: bit-identical
     * counters to run(TraceSource&) on a fresh source producing the
     * same records, with no generation cost or staging copies. Like
     * runPlanned, it is one of the buffer's Readers.
     */
    SystemResult run(const BufferedTrace &trace, uint64_t warmup,
                     uint64_t measure);

    /**
     * Replay @p trace under @p plan (see replayPlan): predictor and
     * cache state carried across gaps, per-window counters
     * weight-merged via operator+=. A sampled plan's result carries
     * the confidence band (l3MissVar) and window accounting; derived
     * metrics are recomputed over the merged counters. A plan that
     * selects every window with weight 1 replays every record in order,
     * so every integer counter equals the contiguous replay's. The
     * Top-Down sums are merged window by window, though, so with the
     * default charges their last bits, and IPC's with them, can differ
     * from the contiguous replay's; they match bit for bit only when
     * every charge is dyadic, as in
     * System.PlannedReplayWithEveryWindowEqualsContiguousRun. The
     * replay is one of @p trace's Readers: it releases each chunk as
     * it moves past it, and the rest when it returns.
     */
    SystemResult runPlanned(const BufferedTrace &trace,
                            const SamplingPlan &plan);

  private:
    /** The per-record loop, fed by both the pull and buffered paths. */
    void stepSpan(const TraceRecord *rec, size_t n);
    /**
     * Walk @p plan through replayPlan, replaying each range with
     * @p replay(begin, count), and derive IPC and AMAT.
     */
    template <class Replay>
    SystemResult walkPlan(const SamplingPlan &plan, Replay &&replay);
    void resetStats();

    SystemConfig cfg_;
    PrivateSystem priv_;
    SharedSystem shared_;
};

/**
 * True when @p a and @p b have the same private half: every setting
 * but the LLC, the L4, hasLlc and the core-model parameters is equal.
 */
bool samePrivateHalf(const SystemConfig &a, const SystemConfig &b);

/**
 * Append-only sequence kept in chunks of at most 1 MiB, read back in
 * order. Growing it never copies, so it never holds a grown buffer
 * and its copy at once, and freeing it returns 1 MiB blocks rather
 * than one block as large as the whole stream.
 */
template <class T>
class ChunkedLog
{
  public:
    static constexpr size_t kChunk = (size_t(1) << 20) / sizeof(T);

    void
    push(const T &v)
    {
        if (chunks_.empty() || chunks_.back().size() == kChunk) {
            chunks_.emplace_back();
            chunks_.back().reserve(kChunk);
        }
        chunks_.back().push_back(v);
    }

    /** Reads the elements back in push order. */
    class Reader
    {
      public:
        explicit Reader(const ChunkedLog &log) : chunks_(log.chunks_) {}

        const T &
        next()
        {
            if (p_ == end_) {
                wsearch_assert(chunk_ < chunks_.size());
                const std::vector<T> &c = chunks_[chunk_++];
                p_ = c.data();
                end_ = p_ + c.size();
            }
            return *p_++;
        }

        /** True once every element has been read. */
        bool
        done() const
        {
            return p_ == end_ && chunk_ == chunks_.size();
        }

      private:
        const std::vector<std::vector<T>> &chunks_;
        size_t chunk_ = 0; ///< next chunk to enter
        const T *p_ = nullptr;
        const T *end_ = nullptr;
    };

  private:
    std::vector<std::vector<T>> chunks_;
};

/**
 * One private pass over a buffer, kept for the shared passes of the
 * configurations that share its private half: the outcome of each
 * event record and each L2 miss left for the shared levels, plus the
 * private counters of every measured range. Records that are no
 * event leave nothing but their count.
 */
struct PrivateRecording
{
    ChunkedLog<uint8_t> events;         ///< one per event record
    ChunkedLog<SharedRequest> requests; ///< in issue order
    /** One replayed range: its records and its event records. */
    struct Range
    {
        uint64_t records = 0;
        uint64_t events = 0;
    };
    std::vector<Range> ranges;          ///< in replay order
    std::vector<SystemResult> counters; ///< per measured range
};

/**
 * Replay @p cfg's private half over @p trace once: @p plan's ranges
 * in replayPlan's order, as one of @p trace's Readers.
 */
PrivateRecording recordPrivateHalf(const SystemConfig &cfg,
                                   const BufferedTrace &trace,
                                   const SamplingPlan &plan);

/**
 * Finish @p rec, recorded under @p plan, on @p cfg's shared half.
 * Bit-identical to SystemSimulator::runPlanned of @p cfg under
 * @p plan, provided @p cfg has the recorded private half
 * (samePrivateHalf) and a non-inclusive LLC, whose evictions never
 * reach back into the private caches.
 */
SystemResult replaySharedHalf(const SystemConfig &cfg,
                              const PrivateRecording &rec,
                              const SamplingPlan &plan);

} // namespace wsearch

#endif // WSEARCH_CPU_SYSTEM_HH
