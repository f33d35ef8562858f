/**
 * @file
 * What a replay reports and how records reach it. SimResult holds the
 * cache counters and the sampling marks every replay returns
 * (cpu/system.hh's SystemResult extends it). pullSpans streams
 * a TraceSource through a fixed staging buffer and bufferedSpans hands
 * over a BufferedTrace's chunks through one of its Readers;
 * SystemSimulator, the one simulator, feeds its per-record loop from
 * both. runTrace is a cache-only replay kept for the benchmark
 * harness's layer ladder.
 */

#ifndef WSEARCH_MEMSIM_SIMULATOR_HH
#define WSEARCH_MEMSIM_SIMULATOR_HH

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "memsim/hierarchy.hh"
#include "trace/buffered_trace.hh"
#include "trace/record.hh"

namespace wsearch {

/** Result of a functional cache simulation. */
struct SimResult
{
    uint64_t instructions = 0; ///< measured instruction count
    CacheLevelStats l1i, l1d, l2, l3, l4;
    uint64_t l3Evictions = 0;
    uint64_t writebacks = 0;
    uint64_t backInvalidations = 0;
    /**
     * Always zero: the hierarchy models no coherence protocol. They
     * stay only because perfbench/sim_workloads.cc mixes them into its
     * pinned digests, and the benchmark harness is fixed; nothing
     * writes them.
     */
    uint64_t cohUpgrades = 0;
    uint64_t cohInvalidations = 0;
    uint64_t cohDirtyWritebacks = 0;
    /**
     * Number of sampled measurement windows merged into this result
     * (0 = exact, contiguous measurement). Nonzero results come from
     * a planned representative-window replay and must be reported as
     * sampled estimates.
     */
    uint64_t sampledWindows = 0;
    /**
     * Windows this estimate stands for (the sum of plan weights);
     * 0 for exact runs. When nonzero, counters are weighted totals
     * over representedWindows windows, of which only sampledWindows
     * were simulated.
     */
    uint64_t representedWindows = 0;
    /**
     * Estimated variance of the weighted LLC(l3)-total-miss estimate
     * (0 = exact). Variances of independently sampled results add
     * under operator+=. See the band accessors below and DESIGN.md
     * "Representative sampling" for the derivation.
     */
    double l3MissVar = 0;

    /** 95% confidence half-width on the l3 total-miss estimate. */
    double
    l3MissHalfWidth95() const
    {
        return 1.96 * std::sqrt(l3MissVar);
    }

    /** Lower/upper 95% band on the l3 total-miss estimate. */
    double
    l3MissBandLo() const
    {
        const double lo = static_cast<double>(l3.totalMisses()) -
            l3MissHalfWidth95();
        return lo > 0 ? lo : 0;
    }

    double
    l3MissBandHi() const
    {
        return static_cast<double>(l3.totalMisses()) +
            l3MissHalfWidth95();
    }

    /** Band half-width relative to the estimate (0 when exact). */
    double
    bandRelHalfWidth() const
    {
        const uint64_t m = l3.totalMisses();
        return m ? l3MissHalfWidth95() / static_cast<double>(m) : 0.0;
    }

    /** Combined L1 stats. */
    CacheLevelStats
    l1() const
    {
        CacheLevelStats s = l1i;
        s += l1d;
        return s;
    }

    /** Merge another result's counters (sampled-window accumulation). */
    SimResult &
    operator+=(const SimResult &o)
    {
        instructions += o.instructions;
        l1i += o.l1i;
        l1d += o.l1d;
        l2 += o.l2;
        l3 += o.l3;
        l4 += o.l4;
        l3Evictions += o.l3Evictions;
        writebacks += o.writebacks;
        backInvalidations += o.backInvalidations;
        sampledWindows += o.sampledWindows;
        representedWindows += o.representedWindows;
        l3MissVar += o.l3MissVar;
        return *this;
    }

    /** Every field equal (see SystemResult::operator==). */
    bool operator==(const SimResult &) const = default;
};

/**
 * Replay @p warmup records of @p trace (stats discarded), then
 * @p measure records, through @p hier alone: no predictors, TLBs or
 * core model, as one of the buffer's Readers. Its cache counters
 * equal SystemSimulator::run's on the same buffer. It stays only
 * because perfbench/layers.cc times it as the cache-only rungs of its
 * layer ladder, and the benchmark harness is fixed: everything else
 * replays through SystemSimulator.
 */
SimResult runTrace(const BufferedTrace &trace, CacheHierarchy &hier,
                   uint64_t warmup, uint64_t measure);

/** Records of the pull path's fixed staging buffer. */
constexpr size_t kStagingRecords = 8192;

/**
 * Pull up to @p count records from @p src through a fixed
 * kStagingRecords buffer, handing each filled span to
 * @p span(const TraceRecord *, size_t). Streams: memory stays bounded
 * however long the trace is.
 * @return records pulled (less when the source runs dry).
 */
template <class SpanFn>
uint64_t
pullSpans(TraceSource &src, uint64_t count, SpanFn &&span)
{
    TraceRecord buf[kStagingRecords];
    uint64_t done = 0;
    while (done < count) {
        const size_t got = src.fill(
            buf, static_cast<size_t>(
                     std::min<uint64_t>(kStagingRecords, count - done)));
        if (got == 0)
            break;
        span(buf, got);
        done += got;
    }
    return done;
}

/**
 * Hand records [@p begin, @p begin + @p count) of @p reader's buffer to
 * @p span(const TraceRecord *, size_t) one contiguous chunk at a time.
 * The reader releases each chunk it moves past (BufferedTrace::Reader),
 * so successive calls must not move back.
 * @return records handed over (less when the buffer ends).
 */
template <class SpanFn>
uint64_t
bufferedSpans(BufferedTrace::Reader &reader, uint64_t begin,
              uint64_t count, SpanFn &&span)
{
    uint64_t done = 0;
    while (done < count) {
        const BufferedTrace::Span s =
            reader.spanAt(begin + done, count - done);
        if (s.count == 0)
            break;
        span(s.data, s.count);
        done += s.count;
    }
    return done;
}

} // namespace wsearch

#endif // WSEARCH_MEMSIM_SIMULATOR_HH
