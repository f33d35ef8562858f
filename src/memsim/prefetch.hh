/**
 * @file
 * Hardware prefetcher models, matching the paper's PLT1 description of
 * four configurable prefetchers: two for L1-D (IP-stride and next-line)
 * and two for L2 (adjacent-line and streamer) [§II-E]. Prefetches are
 * functional inserts into the target cache, so both their benefit
 * (converted demand misses) and their cost (pollution) are emergent.
 */

#ifndef WSEARCH_MEMSIM_PREFETCH_HH
#define WSEARCH_MEMSIM_PREFETCH_HH

#include <cstdint>
#include <vector>

#include "util/rng.hh"

namespace wsearch {

/** Which prefetchers are enabled and how aggressive they are. */
struct PrefetchConfig
{
    bool l1Stride = false;    ///< IP-based stride prefetcher at L1-D
    bool l1NextLine = false;  ///< next-line prefetcher at L1-D
    bool l2Adjacent = false;  ///< adjacent-line (buddy) at L2
    bool l2Stream = false;    ///< miss-stream prefetcher at L2
    uint32_t streamDegree = 2;

    bool operator==(const PrefetchConfig &) const = default;

    bool
    any() const
    {
        return l1Stride || l1NextLine || l2Adjacent || l2Stream;
    }

    /** All four prefetchers on (the PLT1 default configuration). */
    static PrefetchConfig
    allOn()
    {
        PrefetchConfig p;
        p.l1Stride = p.l1NextLine = p.l2Adjacent = p.l2Stream = true;
        return p;
    }
};

/**
 * IP-indexed stride detector. Tracks the last address and stride per
 * (hashed) PC; after two confirmations it predicts addr + stride.
 */
class StridePrefetcher
{
  public:
    explicit StridePrefetcher(uint32_t table_size = 256)
        : entries_(table_size)
    {
    }

    /**
     * Train on a demand access and return a predicted block-aligned
     * prefetch address, or 0 when no confident prediction exists.
     */
    uint64_t
    train(uint64_t pc, uint64_t addr)
    {
        Entry &e = entries_[(mix64(pc) ^ pc) % entries_.size()];
        const uint64_t tag = pc;
        uint64_t predicted = 0;
        if (e.pcTag == tag) {
            const int64_t stride = static_cast<int64_t>(addr) -
                static_cast<int64_t>(e.lastAddr);
            if (stride == e.stride && stride != 0) {
                if (e.conf < 3)
                    ++e.conf;
            } else {
                e.stride = stride;
                e.conf = e.conf > 0 ? e.conf - 1 : 0;
            }
            if (e.conf >= 2 && e.stride != 0) {
                predicted = static_cast<uint64_t>(
                    static_cast<int64_t>(addr) + e.stride);
            }
        } else {
            e.pcTag = tag;
            e.stride = 0;
            e.conf = 0;
        }
        e.lastAddr = addr;
        return predicted;
    }

  private:
    struct Entry
    {
        uint64_t pcTag = ~0ull;
        uint64_t lastAddr = 0;
        int64_t stride = 0;
        uint8_t conf = 0;
    };
    std::vector<Entry> entries_;
};

/**
 * L2 miss-stream detector: on an ascending block-miss streak, prefetch
 * the next @p degree blocks.
 */
class StreamPrefetcher
{
  public:
    explicit StreamPrefetcher(uint32_t degree = 2) : degree_(degree) {}

    /**
     * Observe a demand miss on @p block; appends predicted blocks to
     * @p out (caller-sized scratch) and returns how many were produced.
     */
    uint32_t
    observeMiss(uint64_t block, uint64_t *out)
    {
        uint32_t n = 0;
        if (block == lastMissBlock_ + 1) {
            if (streak_ < 4)
                ++streak_;
            if (streak_ >= 1) {
                for (uint32_t i = 1; i <= degree_; ++i)
                    out[n++] = block + i;
            }
        } else if (block != lastMissBlock_) {
            streak_ = 0;
        }
        lastMissBlock_ = block;
        return n;
    }

    uint32_t degree() const { return degree_; }

  private:
    uint32_t degree_;
    uint32_t streak_ = 0;
    uint64_t lastMissBlock_ = ~0ull - 1;
};

} // namespace wsearch

#endif // WSEARCH_MEMSIM_PREFETCH_HH
