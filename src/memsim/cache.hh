/**
 * @file
 * Set-associative cache model with LRU/random replacement, optional
 * way-partitioning (Intel CAT-style), and victim extraction on
 * eviction. Functional only (hit/miss + contents); latency is applied
 * by the analytical models, mirroring the paper's methodology
 * (§III-A: "Our simulator provides miss rates and MPKI data, but not
 * timing information").
 *
 * The hot path (access) is header-inline: the bench sweeps push
 * hundreds of millions of references through it on a single core.
 */

#ifndef WSEARCH_MEMSIM_CACHE_HH
#define WSEARCH_MEMSIM_CACHE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/logging.hh"
#include "util/rng.hh"
#include "util/units.hh"

namespace wsearch {

/** Replacement policy of a set-associative cache. */
enum class ReplPolicy : uint8_t {
    LRU,
    Random,
    /** Static re-reference interval prediction (2-bit RRPV): scan-
     *  resistant, relevant to search's streaming shard (cf. the
     *  paper's PACMan citation [59]). */
    SRRIP,
    /** Dynamic RRIP: set-dueling between SRRIP and BRRIP insertion
     *  (Jaleel et al., ISCA'10). Deterministic here — leader sets by
     *  set index, the BRRIP 1/32 long-insertion by counter — so
     *  sweeps stay bit-reproducible. */
    DRRIP,
};

/** Static configuration of one cache. */
struct CacheConfig
{
    uint64_t sizeBytes = 32 * KiB;
    uint32_t blockBytes = 64;
    uint32_t ways = 8;           ///< associativity (>= 1)
    ReplPolicy repl = ReplPolicy::LRU;
    /**
     * CAT-style way partition: when nonzero, only the first
     * partitionWays ways may be allocated, shrinking effective capacity
     * while keeping the set count (and thus raising conflict pressure),
     * exactly like Intel CAT (paper §IV-B note on increased conflicts).
     */
    uint32_t partitionWays = 0;

    bool operator==(const CacheConfig &) const = default;
};

/** Sentinel "no block" value for eviction out-parameters. */
constexpr uint64_t kNoBlock = ~0ull;

/**
 * Set-associative cache. Tags store the full block address. Supports
 * non-power-of-two set counts (e.g. the 45 MiB 20-way Haswell L3) via
 * modulo indexing.
 */
class SetAssocCache
{
  public:
    explicit SetAssocCache(const CacheConfig &cfg)
        : cfg_(cfg), blockShift_(log2i(cfg.blockBytes)),
          effWays_(cfg.partitionWays ? cfg.partitionWays : cfg.ways),
          rng_(0xcac4e)
    {
        wsearch_assert(isPow2(cfg.blockBytes));
        wsearch_assert(cfg.ways >= 1);
        wsearch_assert(effWays_ <= cfg.ways);
        numSets_ = static_cast<uint32_t>(std::max<uint64_t>(
            1, cfg.sizeBytes / (static_cast<uint64_t>(cfg.blockBytes) *
                                cfg.ways)));
        setMask_ = isPow2(numSets_) ? numSets_ - 1 : 0;
        const size_t lines =
            static_cast<size_t>(numSets_) * cfg.ways;
        tags_.assign(lines, kNoBlock);
        stamps_.assign(lines, 0);
        flags_.assign(lines, 0);
        if (cfg.repl == ReplPolicy::SRRIP ||
            cfg.repl == ReplPolicy::DRRIP)
            rrpv_.assign(lines, kRrpvMax);
    }

    /**
     * Demand access: lookup and allocate on miss.
     *
     * @param addr     byte address
     * @param is_store marks the line dirty on hit/fill
     * @param evicted  set to the evicted block's byte address, or
     *                 kNoBlock; pass nullptr to ignore
     * @param evicted_dirty set when the evicted block was dirty
     * @param was_prefetched set when the hit line was a prefetch no
     *                 demand had used yet (prefetch-usefulness
     *                 accounting); pass nullptr to ignore
     * @return true on hit
     */
    bool
    access(uint64_t addr, bool is_store, uint64_t *evicted = nullptr,
           bool *evicted_dirty = nullptr, bool *was_prefetched = nullptr)
    {
        const uint64_t block = addr >> blockShift_;
        const size_t base = setBase(block);
        ++tick_;
        for (uint32_t w = 0; w < effWays_; ++w) {
            if (tags_[base + w] == block) {
                stamps_[base + w] = tick_;
                if (!rrpv_.empty())
                    rrpv_[base + w] = 0; // near re-reference on hit
                if (is_store)
                    flags_[base + w] |= kDirty;
                if (was_prefetched)
                    *was_prefetched =
                        (flags_[base + w] & kPrefetched) != 0;
                flags_[base + w] &= ~kPrefetched;
                if (evicted)
                    *evicted = kNoBlock;
                return true;
            }
        }
        if (was_prefetched)
            *was_prefetched = false;
        fill(base, block, is_store, false, evicted, evicted_dirty);
        return false;
    }

    /**
     * Lookup that refreshes recency on hit but does NOT allocate on
     * miss (victim-cache read path).
     */
    bool
    touch(uint64_t addr)
    {
        const uint64_t block = addr >> blockShift_;
        const size_t base = setBase(block);
        ++tick_;
        for (uint32_t w = 0; w < effWays_; ++w) {
            if (tags_[base + w] == block) {
                stamps_[base + w] = tick_;
                if (!rrpv_.empty())
                    rrpv_[base + w] = 0;
                return true;
            }
        }
        return false;
    }

    /** Lookup without any state change. */
    bool
    probe(uint64_t addr) const
    {
        const uint64_t block = addr >> blockShift_;
        const size_t base = setBase(block);
        for (uint32_t w = 0; w < effWays_; ++w)
            if (tags_[base + w] == block)
                return true;
        return false;
    }

    /**
     * Non-demand insert (prefetch or victim fill). No-op when already
     * present. @p prefetched tags the line for useful-prefetch stats.
     */
    void
    insert(uint64_t addr, bool dirty, bool prefetched,
           uint64_t *evicted = nullptr, bool *evicted_dirty = nullptr)
    {
        const uint64_t block = addr >> blockShift_;
        const size_t base = setBase(block);
        ++tick_;
        for (uint32_t w = 0; w < effWays_; ++w) {
            if (tags_[base + w] == block) {
                if (dirty)
                    flags_[base + w] |= kDirty;
                if (evicted)
                    *evicted = kNoBlock;
                return;
            }
        }
        fill(base, block, dirty, prefetched, evicted, evicted_dirty);
    }

    /** Remove a block if present; @return true when it was present. */
    bool
    invalidate(uint64_t addr)
    {
        const uint64_t block = addr >> blockShift_;
        const size_t base = setBase(block);
        for (uint32_t w = 0; w < effWays_; ++w) {
            if (tags_[base + w] == block) {
                tags_[base + w] = kNoBlock;
                flags_[base + w] = 0;
                return true;
            }
        }
        return false;
    }

    uint32_t numSets() const { return numSets_; }
    uint32_t ways() const { return cfg_.ways; }
    ReplPolicy repl() const { return cfg_.repl; }
    /** DRRIP policy-selector value (tests: set-dueling direction). */
    uint32_t drripPsel() const { return psel_; }
    uint32_t effectiveWays() const { return effWays_; }
    uint32_t blockBytes() const { return cfg_.blockBytes; }

    /** Actual modeled capacity (sets x effective ways x block). */
    uint64_t
    effectiveBytes() const
    {
        return static_cast<uint64_t>(numSets_) * effWays_ *
            cfg_.blockBytes;
    }

    /** Number of valid lines currently resident (O(lines); tests). */
    uint64_t
    population() const
    {
        uint64_t n = 0;
        for (size_t s = 0; s < numSets_; ++s)
            for (uint32_t w = 0; w < effWays_; ++w)
                if (tags_[s * cfg_.ways + w] != kNoBlock)
                    ++n;
        return n;
    }

  private:
    static constexpr uint8_t kDirty = 1;
    static constexpr uint8_t kPrefetched = 2;
    static constexpr uint8_t kRrpvMax = 3;       ///< 2-bit RRPV
    static constexpr uint32_t kDuelPeriod = 64;  ///< sets per leader pair
    static constexpr uint32_t kPselMax = 1023;   ///< 10-bit PSEL

    size_t
    setBase(uint64_t block) const
    {
        const uint32_t set = setMask_
            ? static_cast<uint32_t>(block & setMask_)
            : static_cast<uint32_t>(block % numSets_);
        return static_cast<size_t>(set) * cfg_.ways;
    }

    void
    fill(size_t base, uint64_t block, bool dirty, bool prefetched,
         uint64_t *evicted, bool *evicted_dirty)
    {
        uint32_t victim = 0;
        if (cfg_.repl == ReplPolicy::SRRIP ||
            cfg_.repl == ReplPolicy::DRRIP) {
            victim = srripVictim(base);
        } else if (cfg_.repl == ReplPolicy::Random && effWays_ > 1) {
            victim = static_cast<uint32_t>(rng_.nextRange(effWays_));
            // Prefer an invalid way when one exists.
            for (uint32_t w = 0; w < effWays_; ++w) {
                if (tags_[base + w] == kNoBlock) {
                    victim = w;
                    break;
                }
            }
        } else {
            uint64_t best = ~0ull;
            for (uint32_t w = 0; w < effWays_; ++w) {
                if (tags_[base + w] == kNoBlock) {
                    victim = w;
                    best = 0;
                    break;
                }
                if (stamps_[base + w] < best) {
                    best = stamps_[base + w];
                    victim = w;
                }
            }
        }
        const uint64_t old_tag = tags_[base + victim];
        if (evicted) {
            *evicted = old_tag == kNoBlock
                ? kNoBlock : old_tag << blockShift_;
        }
        if (evicted_dirty) {
            *evicted_dirty = old_tag != kNoBlock &&
                (flags_[base + victim] & kDirty);
        }
        tags_[base + victim] = block;
        stamps_[base + victim] = tick_;
        flags_[base + victim] =
            (dirty ? kDirty : 0) | (prefetched ? kPrefetched : 0);
        if (!rrpv_.empty()) {
            rrpv_[base + victim] = cfg_.repl == ReplPolicy::DRRIP
                ? drripInsertRrpv(static_cast<uint32_t>(
                      base / cfg_.ways))
                : kRrpvMax - 1; // SRRIP: always "long" insertion
        }
    }

    /**
     * DRRIP set dueling. Leader sets are picked by set index (one
     * SRRIP and one BRRIP leader per kDuelPeriod sets); a fill into a
     * leader set votes its policy's miss into the 10-bit PSEL, and
     * follower sets insert with whichever policy is currently ahead.
     * BRRIP inserts at distant RRPV except a deterministic 1-in-32
     * long insertion (counter, not RNG, for reproducibility).
     */
    uint8_t
    drripInsertRrpv(uint32_t set)
    {
        const uint32_t lane = set % kDuelPeriod;
        bool brrip;
        if (lane == 0) { // SRRIP leader: this fill is an SRRIP miss
            if (psel_ < kPselMax)
                ++psel_;
            brrip = false;
        } else if (lane == kDuelPeriod / 2) { // BRRIP leader
            if (psel_ > 0)
                --psel_;
            brrip = true;
        } else {
            // High PSEL = SRRIP leaders missing more = follow BRRIP.
            brrip = psel_ >= (kPselMax + 1) / 2;
        }
        if (!brrip)
            return kRrpvMax - 1;
        return ++brripTick_ % 32 == 0 ? kRrpvMax - 1 : kRrpvMax;
    }

    /** SRRIP victim selection: first RRPV==max, aging as needed. */
    uint32_t
    srripVictim(size_t base)
    {
        for (uint32_t w = 0; w < effWays_; ++w)
            if (tags_[base + w] == kNoBlock)
                return w;
        while (true) {
            for (uint32_t w = 0; w < effWays_; ++w)
                if (rrpv_[base + w] >= kRrpvMax)
                    return w;
            for (uint32_t w = 0; w < effWays_; ++w)
                ++rrpv_[base + w];
        }
    }

    CacheConfig cfg_;
    uint32_t blockShift_;
    uint32_t effWays_;
    uint32_t numSets_ = 0;
    uint64_t setMask_ = 0;
    uint64_t tick_ = 0;
    uint32_t psel_ = (kPselMax + 1) / 2; ///< DRRIP duel, neutral start
    uint64_t brripTick_ = 0;             ///< BRRIP 1/32 long-insert
    Rng rng_;
    std::vector<uint64_t> tags_;
    std::vector<uint64_t> stamps_;
    std::vector<uint8_t> flags_;
    std::vector<uint8_t> rrpv_; ///< allocated only for SRRIP/DRRIP
};

} // namespace wsearch

#endif // WSEARCH_MEMSIM_CACHE_HH
