/**
 * @file
 * Lock-striped query-result cache tier: the contention-free front of
 * the serving hot path. The tier is a power-of-two array of
 * independent segments, each its own LRU QueryCacheServer behind its
 * own mutex with its own hit-latency histogram. A query id is hashed
 * (splitmix64 mix) to exactly one segment, so concurrent lookups of
 * different queries take different locks and never touch each
 * other's LRU list; totals for ServeSnapshot are summed over segments
 * at snapshot time.
 *
 * Capacity is distributed evenly (capacity / N per segment, the first
 * capacity % N segments take one extra). A total capacity below the
 * stripe count leaves some segments with zero entries; those inherit
 * QueryCacheServer's zero-capacity guard -- insert() is a no-op
 * before any mutation and every lookup is a counted miss -- so a
 * zero-capacity tier sheds to miss identically across ALL segments
 * instead of behaving differently on the segment an entry would have
 * hashed to.
 */

#ifndef WSEARCH_SERVE_STRIPED_CACHE_HH
#define WSEARCH_SERVE_STRIPED_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "search/cache_server.hh"
#include "serve/clock.hh"
#include "serve/latency_histogram.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace wsearch {

/** Hash-partitioned array of mutex-guarded LRU cache segments. */
class StripedQueryCache
{
  public:
    /** Summed per-segment counters (ServeSnapshot's cache fields). */
    struct Totals
    {
        uint64_t lookups = 0;
        uint64_t hits = 0;
        uint64_t evictions = 0;
        uint64_t size = 0;
    };

    /** @p stripes must be a power of two >= 1. */
    StripedQueryCache(size_t capacity, size_t stripes)
        : capacity_(capacity), mask_(stripes - 1)
    {
        wsearch_assert(stripes >= 1 &&
                       (stripes & (stripes - 1)) == 0);
        stripes_.reserve(stripes);
        const size_t base = capacity / stripes;
        const size_t extra = capacity % stripes;
        for (size_t i = 0; i < stripes; ++i)
            stripes_.push_back(std::make_unique<Stripe>(
                base + (i < extra ? 1 : 0)));
    }

    /** Which segment @p query_id lives in (for equivalence tests). */
    static size_t
    stripeFor(uint64_t query_id, size_t stripes)
    {
        uint64_t state = query_id;
        return static_cast<size_t>(splitmix64(state)) & (stripes - 1);
    }

    /**
     * Segment-local lookup; counts the lookup (and the hit, refreshing
     * that segment's LRU) exactly like the single-segment tier did.
     * On a hit, the lock-to-answer latency measured on @p clk is
     * recorded into the segment's hit-latency histogram (null clock:
     * a 0-ns sample, so the hit count still lands).
     */
    bool
    lookup(uint64_t query_id, std::vector<ScoredDoc> *out,
           Clock *clk = nullptr)
    {
        const uint64_t t0 = clk ? clk->now() : 0;
        Stripe &s = stripe(query_id);
        std::lock_guard<std::mutex> lk(s.mu);
        if (!s.cache.lookup(query_id, out))
            return false;
        s.hitNs.record(clk ? clk->now() - t0 : 0);
        return true;
    }

    /** Install results for a missed query (segment-local). */
    void
    insert(uint64_t query_id, std::vector<ScoredDoc> results)
    {
        Stripe &s = stripe(query_id);
        std::lock_guard<std::mutex> lk(s.mu);
        s.cache.insert(query_id, std::move(results));
    }

    /** Summed counters across every segment. */
    Totals
    totals() const
    {
        Totals t;
        for (const auto &s : stripes_) {
            std::lock_guard<std::mutex> lk(s->mu);
            t.lookups += s->cache.lookups();
            t.hits += s->cache.hits();
            t.evictions += s->cache.evictions();
            t.size += s->cache.size();
        }
        return t;
    }

    /** One segment's counters (tests / per-segment observability). */
    Totals
    stripeTotals(size_t i) const
    {
        const Stripe &s = *stripes_[i];
        std::lock_guard<std::mutex> lk(s.mu);
        return Totals{s.cache.lookups(), s.cache.hits(),
                      s.cache.evictions(), s.cache.size()};
    }

    /** Merged hit-latency histogram across segments. */
    LatencyHistogram
    hitHistogram() const
    {
        LatencyHistogram h;
        for (const auto &s : stripes_) {
            std::lock_guard<std::mutex> lk(s->mu);
            h.merge(s->hitNs);
        }
        return h;
    }

    size_t stripeCount() const { return stripes_.size(); }
    size_t capacity() const { return capacity_; }
    size_t
    stripeCapacity(size_t i) const
    {
        return stripes_[i]->cache.capacity();
    }

  private:
    /** Own cache line per segment: neighboring segments' locks and
     *  LRU heads must not false-share. */
    struct alignas(64) Stripe
    {
        explicit Stripe(size_t cap) : cache(cap) {}
        mutable std::mutex mu;
        QueryCacheServer cache;
        LatencyHistogram hitNs;
    };

    Stripe &
    stripe(uint64_t query_id)
    {
        return *stripes_[stripeFor(query_id, mask_ + 1)];
    }

    const size_t capacity_;
    const size_t mask_;
    std::vector<std::unique_ptr<Stripe>> stripes_;
};

} // namespace wsearch

#endif // WSEARCH_SERVE_STRIPED_CACHE_HH
