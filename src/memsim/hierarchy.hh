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
 *
 * The hierarchy is two halves split at the L2->LLC boundary:
 * PrivateLevels (everything per core) and SharedLevels (LLC and L4),
 * joined by a stream of SharedRequests. CacheHierarchy runs both per
 * access; a sweep can record the private half's stream once and
 * replay only the shared half per LLC/L4 configuration (cpu/system.hh).
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
 * The private levels' answer for an access that left the L2: the
 * shared levels decide between L3, L4 and Memory.
 */
constexpr HitLevel kPastL2 = HitLevel::L3;

/** What a private-level access asks of the shared levels. */
enum class SharedOp : uint8_t {
    Load,        ///< code fetch or data load after an L2 miss
    Store,       ///< data store after an L2 miss
    CleanVictim, ///< clean L2 eviction
    DirtyVictim, ///< dirty L2 eviction
};

/** One request from the private levels to the shared levels (16 B). */
struct SharedRequest
{
    uint64_t addr = 0;
    AccessKind kind = AccessKind::Code;
    SharedOp op = SharedOp::Load;

    bool demand() const { return op <= SharedOp::Store; }
};

/**
 * The requests one access that left the L2 sends down, in order: the
 * L2 victim its fill evicted (if any), then the demand.
 */
struct SharedRequests
{
    SharedRequest req[2];
    uint32_t n = 0;
};

/**
 * The private half of the hierarchy: per-core L1-I, L1-D and L2 (the
 * L2 optionally way-split into instruction and data partitions), the
 * L1/L2 prefetchers and the coherence directory. An access either
 * ends here (L1 or L2) or returns kPastL2 with the requests the
 * shared levels must serve. With a non-inclusive LLC nothing below
 * feeds back, so this half's behaviour does not depend on the LLC or
 * L4 at all.
 *
 * A per-core last-block filter sits in front of each L1-I: a fetch
 * to the block the core's L1-I saw last counts a hit without a
 * lookup. That block is the most recently used line of the whole
 * L1-I, so re-touching it changes no LRU order; Random state moves
 * only on fills; and for SRRIP/DRRIP the filter is armed only after
 * a hit, which left the line's RRPV at 0. Skipping the lookup is
 * therefore bit-identical.
 */
class PrivateLevels
{
  public:
    explicit PrivateLevels(const HierarchySpec &spec);

    /** Map a hardware thread to its core. */
    uint32_t
    coreOf(uint32_t tid) const
    {
        const size_t n = coreOfTid_.size();
        return tid < n ? coreOfTid_[tid] : coreOfTid_[tid % n];
    }

    /** Instruction fetch on @p core; fills @p out when kPastL2. */
    HitLevel
    fetch(uint32_t core, uint64_t pc, SharedRequests &out)
    {
        if (lastFetch_[core] == pc >> l1iShift_) {
            l1i_.record(AccessKind::Code, false);
            return HitLevel::L1;
        }
        return fetchLookup(core, pc, out);
    }

    /** Data access on @p core (pc trains the prefetchers); fills
     *  @p out when kPastL2. */
    HitLevel data(uint32_t core, uint64_t pc, uint64_t addr,
                  bool is_store, AccessKind kind, SharedRequests &out);

    /**
     * Inclusive-LLC back-invalidation of @p addr from every core.
     * @return cores that held the block.
     */
    uint32_t backInvalidate(uint64_t addr);

    const CacheLevelStats &l1iStats() const { return l1i_; }
    const CacheLevelStats &l1dStats() const { return l1d_; }
    const CacheLevelStats &l2Stats() const { return l2_; }
    /** Dirty L2 victims (the writebacks this half causes). */
    uint64_t writebacks() const { return writebacks_; }

    /** Coherence traffic (zero when the protocol is None). */
    CoherenceStats
    cohStats() const
    {
        return coh_ ? coh_->stats() : CoherenceStats{};
    }

    /** Clear statistics (keeps cache contents). */
    void resetStats();

  private:
    HitLevel fetchLookup(uint32_t core, uint64_t pc,
                         SharedRequests &out);
    /** L2 lookup after an L1 miss; queues a victim in @p out. */
    bool l2Lookup(SetAssocCache &l2, uint64_t addr, bool is_store,
                  AccessKind kind, SharedRequests &out);
    void streamPrefetch(uint32_t core, SetAssocCache &l2,
                        uint64_t addr);
    void applyCoherence(uint32_t core, uint64_t addr, bool is_store);

    HierarchySpec spec_;
    std::vector<uint32_t> coreOfTid_; ///< tid -> core, one per thread
    uint32_t l1iShift_;
    /** Arm the L1-I filter after a fill too (LRU and Random). */
    bool filterOnFill_;
    /** Per core: block of the L1-I's last access, or kNoBlock. */
    std::vector<uint64_t> lastFetch_;

    std::vector<std::unique_ptr<SetAssocCache>> l1i_c_;
    std::vector<std::unique_ptr<SetAssocCache>> l1d_c_;
    std::vector<std::unique_ptr<SetAssocCache>> l2_c_;
    std::vector<std::unique_ptr<SetAssocCache>> l2i_c_; ///< split mode
    std::unique_ptr<CoherenceDirectory> coh_;

    std::vector<StridePrefetcher> stride_;
    std::vector<StreamPrefetcher> stream_;

    CacheLevelStats l1i_, l1d_, l2_;
    uint64_t writebacks_ = 0;
};

/**
 * The shared half: the LLC (inclusive, exclusive or NINE; optionally
 * slice-hashed) and the memory-side L4. It serves the private half's
 * requests in order and accounts LLC evictions. Only an inclusive LLC
 * reaches back up, through the PrivateLevels it is handed.
 */
class SharedLevels
{
  public:
    explicit SharedLevels(const HierarchySpec &spec);

    /**
     * Serve one request. @p upper is back-invalidated on inclusive-LLC
     * evictions and may be null for any other inclusion mode.
     * @return the servicing level of a demand (L3/L4/Memory);
     *         meaningless for victims.
     */
    HitLevel serve(const SharedRequest &r, PrivateLevels *upper);

    /** Serve @p q in order; @return the demand's servicing level. */
    HitLevel
    serve(const SharedRequests &q, PrivateLevels *upper)
    {
        HitLevel level = HitLevel::Memory;
        for (uint32_t i = 0; i < q.n; ++i)
            level = serve(q.req[i], upper);
        return level;
    }

    const CacheLevelStats &l3Stats() const { return l3_; }
    const CacheLevelStats &l4Stats() const { return l4_; }
    uint64_t l3Evictions() const { return l3Evictions_; }
    /** Dirty LLC victims (the writebacks this half causes). */
    uint64_t writebacks() const { return writebacks_; }
    uint64_t backInvalidations() const { return backInvalidations_; }

    /** Clear statistics (keeps cache contents). */
    void resetStats();

  private:
    HitLevel demand(uint64_t addr, bool is_store, AccessKind kind,
                    PrivateLevels *upper);
    void fillFromL2Victim(uint64_t evicted, bool dirty,
                          PrivateLevels *upper);
    void handleLlcEviction(uint64_t evicted, bool dirty,
                           PrivateLevels *upper);

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
    std::vector<CacheUnit> llc_c_; ///< one per slice
    std::unique_ptr<CacheUnit> l4_c_;

    CacheLevelStats l3_, l4_;
    uint64_t l3Evictions_ = 0;
    uint64_t writebacks_ = 0;
    uint64_t backInvalidations_ = 0;
};

/**
 * The hierarchy: both halves, each access running the private half
 * and then, when it left the L2, the shared half. All stats are
 * aggregated per level across cores (matching how the paper reports
 * level MPKI). Level naming in the stats API stays L1/L2/L3/L4 (the
 * LLC reports as "L3") so existing bench output keys are stable.
 */
class CacheHierarchy
{
  public:
    explicit CacheHierarchy(const HierarchySpec &spec)
        : priv_(spec), shared_(spec)
    {
    }

    /** Instruction fetch by hardware thread @p tid. */
    HitLevel
    accessInstr(uint32_t tid, uint64_t pc)
    {
        SharedRequests q;
        const HitLevel level = priv_.fetch(priv_.coreOf(tid), pc, q);
        return level == kPastL2 ? shared_.serve(q, &priv_) : level;
    }

    /** Data access by hardware thread @p tid (pc trains prefetchers). */
    HitLevel
    accessData(uint32_t tid, uint64_t pc, uint64_t addr, bool is_store,
               AccessKind kind)
    {
        SharedRequests q;
        const HitLevel level =
            priv_.data(priv_.coreOf(tid), pc, addr, is_store, kind, q);
        return level == kPastL2 ? shared_.serve(q, &priv_) : level;
    }

    /** Map a hardware thread to its core. */
    uint32_t coreOf(uint32_t tid) const { return priv_.coreOf(tid); }

    // Aggregated per-level statistics.
    const CacheLevelStats &l1iStats() const { return priv_.l1iStats(); }
    const CacheLevelStats &l1dStats() const { return priv_.l1dStats(); }
    const CacheLevelStats &l2Stats() const { return priv_.l2Stats(); }
    const CacheLevelStats &l3Stats() const { return shared_.l3Stats(); }
    const CacheLevelStats &l4Stats() const { return shared_.l4Stats(); }

    uint64_t l3Evictions() const { return shared_.l3Evictions(); }
    uint64_t
    writebacks() const
    {
        return priv_.writebacks() + shared_.writebacks();
    }
    uint64_t
    backInvalidations() const
    {
        return shared_.backInvalidations();
    }

    /** Coherence traffic (zero when the protocol is None). */
    CoherenceStats cohStats() const { return priv_.cohStats(); }

    /** Clear statistics (keeps cache contents; used after warmup). */
    void
    resetStats()
    {
        priv_.resetStats();
        shared_.resetStats();
    }

  private:
    PrivateLevels priv_;
    SharedLevels shared_;
};

} // namespace wsearch

#endif // WSEARCH_MEMSIM_HIERARCHY_HH
