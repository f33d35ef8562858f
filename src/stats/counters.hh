/**
 * @file
 * Hit/miss counters broken down by AccessKind, plus MPKI and hit-rate
 * derivations. One CacheLevelStats object aggregates all caches at a
 * hierarchy level (e.g. the sum of all private L2s), matching how the
 * paper reports per-level MPKI.
 */

#ifndef WSEARCH_STATS_COUNTERS_HH
#define WSEARCH_STATS_COUNTERS_HH

#include <cstdint>

#include "stats/access_kind.hh"

namespace wsearch {

/** Accumulated accesses and misses for one cache level, per kind. */
struct CacheLevelStats
{
    uint64_t accesses[kNumAccessKinds] = {};
    uint64_t misses[kNumAccessKinds] = {};
    uint64_t prefetchIssued = 0;
    uint64_t prefetchUseful = 0;

    void
    record(AccessKind kind, bool miss)
    {
        const auto k = static_cast<uint32_t>(kind);
        ++accesses[k];
        if (miss)
            ++misses[k];
    }

    uint64_t
    totalAccesses() const
    {
        uint64_t t = 0;
        for (auto a : accesses)
            t += a;
        return t;
    }

    uint64_t
    totalMisses() const
    {
        uint64_t t = 0;
        for (auto m : misses)
            t += m;
        return t;
    }

    uint64_t
    missesOf(AccessKind kind) const
    {
        return misses[static_cast<uint32_t>(kind)];
    }

    uint64_t
    accessesOf(AccessKind kind) const
    {
        return accesses[static_cast<uint32_t>(kind)];
    }

    /** Misses per kilo-instruction for one kind. */
    double
    mpki(AccessKind kind, uint64_t instructions) const
    {
        if (instructions == 0)
            return 0.0;
        return 1000.0 * static_cast<double>(missesOf(kind)) /
               static_cast<double>(instructions);
    }

    /** Combined MPKI across all kinds. */
    double
    mpkiTotal(uint64_t instructions) const
    {
        if (instructions == 0)
            return 0.0;
        return 1000.0 * static_cast<double>(totalMisses()) /
               static_cast<double>(instructions);
    }

    /** Combined data (non-code) MPKI. */
    double
    mpkiData(uint64_t instructions) const
    {
        if (instructions == 0)
            return 0.0;
        const uint64_t data_misses = totalMisses() -
            missesOf(AccessKind::Code);
        return 1000.0 * static_cast<double>(data_misses) /
               static_cast<double>(instructions);
    }

    /** Hit rate for one kind (1.0 when no accesses). */
    double
    hitRate(AccessKind kind) const
    {
        const uint64_t a = accessesOf(kind);
        if (a == 0)
            return 1.0;
        return 1.0 - static_cast<double>(missesOf(kind)) /
                     static_cast<double>(a);
    }

    /** Overall hit rate (1.0 when no accesses). */
    double
    hitRateTotal() const
    {
        const uint64_t a = totalAccesses();
        if (a == 0)
            return 1.0;
        return 1.0 - static_cast<double>(totalMisses()) /
                     static_cast<double>(a);
    }

    void
    reset()
    {
        for (auto &a : accesses)
            a = 0;
        for (auto &m : misses)
            m = 0;
        prefetchIssued = 0;
        prefetchUseful = 0;
    }

    CacheLevelStats &
    operator+=(const CacheLevelStats &other)
    {
        for (uint32_t k = 0; k < kNumAccessKinds; ++k) {
            accesses[k] += other.accesses[k];
            misses[k] += other.misses[k];
        }
        prefetchIssued += other.prefetchIssued;
        prefetchUseful += other.prefetchUseful;
        return *this;
    }

    bool operator==(const CacheLevelStats &) const = default;
};

} // namespace wsearch

#endif // WSEARCH_STATS_COUNTERS_HH
