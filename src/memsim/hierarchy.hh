/**
 * @file
 * Multi-core cache hierarchy assembled from composable CacheLevelSpec
 * levels (spec.hh): per-core private L1-I/L1-D/L2, a shared LLC
 * (inclusive, exclusive, or NINE; optionally slice-hashed), and an
 * optional memory-side L4 modeled after the paper's proposal (§IV-C):
 * a direct-mapped eDRAM cache filled by LLC evictions (with
 * fully-associative and fill-on-miss variants for the sensitivity
 * studies).
 *
 * SMT is modeled by mapping multiple hardware threads onto the same
 * private caches (contention is emergent). Coherence defaults to None
 * — the paper validates this as acceptable because production search
 * has negligible read-write sharing (§III-A) — but an MSI/MESI
 * directory (coherence.hh) can be enabled to account the upgrade/
 * invalidation/writeback traffic that claim hides.
 */

#ifndef WSEARCH_MEMSIM_HIERARCHY_HH
#define WSEARCH_MEMSIM_HIERARCHY_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "memsim/cache.hh"
#include "memsim/cache_unit.hh"
#include "memsim/coherence.hh"
#include "memsim/prefetch.hh"
#include "memsim/spec.hh"
#include "stats/counters.hh"

namespace wsearch {

/** Where an access was serviced. */
enum class HitLevel : uint8_t {
    L1 = 1,
    L2 = 2,
    L3 = 3,
    L4 = 4,
    Memory = 5,
};

/**
 * The hierarchy. All stats are aggregated per level across cores
 * (matching how the paper reports level MPKI). Level naming in the
 * stats API stays L1/L2/L3/L4 (the LLC reports as "L3") so existing
 * bench output keys are stable.
 */
class CacheHierarchy
{
  public:
    explicit CacheHierarchy(const HierarchySpec &spec);

    /** Instruction fetch by hardware thread @p tid. */
    HitLevel accessInstr(uint32_t tid, uint64_t pc);

    /** Data access by hardware thread @p tid (pc trains prefetchers). */
    HitLevel accessData(uint32_t tid, uint64_t pc, uint64_t addr,
                        bool is_store, AccessKind kind);

    const HierarchySpec &spec() const { return spec_; }
    uint32_t numCores() const { return spec_.numCores; }

    /** Map a hardware thread to its core. */
    uint32_t
    coreOf(uint32_t tid) const
    {
        return (tid / spec_.smtWays) % spec_.numCores;
    }

    // Aggregated per-level statistics.
    const CacheLevelStats &l1iStats() const { return l1i_; }
    const CacheLevelStats &l1dStats() const { return l1d_; }
    const CacheLevelStats &l2Stats() const { return l2_; }
    const CacheLevelStats &l3Stats() const { return l3_; }
    const CacheLevelStats &l4Stats() const { return l4_; }

    /** Combined L1 (I+D) stats. */
    CacheLevelStats
    l1Stats() const
    {
        CacheLevelStats s = l1i_;
        s += l1d_;
        return s;
    }

    uint64_t l3Evictions() const { return l3Evictions_; }
    uint64_t writebacks() const { return writebacks_; }
    uint64_t backInvalidations() const { return backInvalidations_; }

    /** Coherence traffic (zero when the protocol is None). */
    CoherenceStats
    cohStats() const
    {
        return coh_ ? coh_->stats() : CoherenceStats{};
    }

    /** Clear statistics (keeps cache contents; used after warmup). */
    void resetStats();

    /** Direct cache handles for tests. */
    SetAssocCache &l1iCache(uint32_t core) { return *l1i_c_[core]; }
    SetAssocCache &l1dCache(uint32_t core) { return *l1d_c_[core]; }
    SetAssocCache &l2Cache(uint32_t core) { return *l2_c_[core]; }
    /** Slice 0 of the LLC (set-associative configs only). */
    SetAssocCache &l3Cache() { return *llc_c_[0].setAssoc(); }
    CacheUnit &llcSliceUnit(uint32_t s) { return llc_c_[s]; }
    uint32_t llcSlices() const
    {
        return static_cast<uint32_t>(llc_c_.size());
    }
    bool hasL4() const { return l4_c_ != nullptr; }
    CoherenceDirectory *coherence() { return coh_.get(); }

  private:
    HitLevel missPathData(uint32_t core, uint64_t addr, bool is_store,
                          AccessKind kind);
    HitLevel missPathInstr(uint32_t core, uint64_t pc);
    /** LLC lookup + fill; returns the servicing level (L3/L4/Memory). */
    HitLevel accessSharedLevels(uint64_t addr, bool is_store,
                                AccessKind kind);
    /** Route an L2 victim down into the LLC per the inclusion mode. */
    void fillLlcFromL2Eviction(uint64_t evicted, bool dirty);
    void handleLlcEviction(uint64_t evicted, bool dirty);
    void applyCoherence(uint32_t core, uint64_t addr, bool is_store);

    /** LLC slice for @p addr. Single-slice configs bypass the hash so
     *  legacy counters stay bit-identical. */
    uint32_t
    llcSlice(uint64_t addr) const
    {
        if (llc_c_.size() <= 1)
            return 0;
        const uint64_t block = addr / spec_.llc.cache.blockBytes;
        const uint64_t h = (block * 0x9E3779B97F4A7C15ull) >> 33;
        return static_cast<uint32_t>(h % llc_c_.size());
    }

    HierarchySpec spec_;

    std::vector<std::unique_ptr<SetAssocCache>> l1i_c_;
    std::vector<std::unique_ptr<SetAssocCache>> l1d_c_;
    std::vector<std::unique_ptr<SetAssocCache>> l2_c_;
    std::vector<std::unique_ptr<SetAssocCache>> l2i_c_; ///< split mode
    std::vector<CacheUnit> llc_c_; ///< one per slice
    std::unique_ptr<CacheUnit> l4_c_;
    std::unique_ptr<CoherenceDirectory> coh_;

    std::vector<StridePrefetcher> stride_;
    std::vector<StreamPrefetcher> stream_;

    CacheLevelStats l1i_, l1d_, l2_, l3_, l4_;
    uint64_t l3Evictions_ = 0;
    uint64_t writebacks_ = 0;
    uint64_t backInvalidations_ = 0;
};

} // namespace wsearch

#endif // WSEARCH_MEMSIM_HIERARCHY_HH
