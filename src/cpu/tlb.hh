/**
 * @file
 * Two-level TLB model for the huge-page study (paper Figure 2c).
 * Reuses the set-associative cache over page numbers; a second-level
 * TLB miss costs a page walk whose latency feeds the core model's
 * back-end (data) or front-end (instruction) stalls.
 */

#ifndef WSEARCH_CPU_TLB_HH
#define WSEARCH_CPU_TLB_HH

#include <cstdint>

#include "memsim/cache.hh"

namespace wsearch {

/** TLB configuration. Defaults model a Haswell-class MMU with 4 KiB
 *  pages; hugePages() switches both level sizes to the huge-page
 *  configuration. */
struct TlbConfig
{
    uint64_t pageBytes = 4 * KiB;
    uint32_t l1Entries = 64;
    uint32_t l1Ways = 4;
    uint32_t l2Entries = 1024;
    uint32_t l2Ways = 8;
    double walkNs = 42.0; ///< full page-walk latency

    bool operator==(const TlbConfig &) const = default;

    /** Haswell-style 2 MiB huge-page configuration. */
    static TlbConfig
    huge2M()
    {
        TlbConfig t;
        t.pageBytes = 2 * MiB;
        t.l1Entries = 32;
        t.l1Ways = 4;
        t.l2Entries = 1024;
        t.l2Ways = 8;
        return t;
    }

    /** POWER8-style 64 KiB base pages. */
    static TlbConfig
    base64K()
    {
        TlbConfig t;
        t.pageBytes = 64 * KiB;
        t.l1Entries = 64;
        t.l1Ways = 4;
        t.l2Entries = 1024;
        t.l2Ways = 8;
        t.walkNs = 24.0;
        return t;
    }

    /** POWER8-style 16 MiB huge pages. */
    static TlbConfig
    huge16M()
    {
        TlbConfig t = base64K();
        t.pageBytes = 16 * MiB;
        t.l1Entries = 32;
        return t;
    }
};

/** Where a translation was found. */
enum class TlbLevel : uint8_t {
    L1 = 1,
    L2 = 2,
    Walk = 3,
};

/** Two-level TLB. */
class Tlb
{
  public:
    explicit Tlb(const TlbConfig &cfg)
        : cfg_(cfg),
          l1_(CacheConfig{static_cast<uint64_t>(cfg.l1Entries) *
                              cfg.pageBytes,
                          static_cast<uint32_t>(cfg.pageBytes),
                          cfg.l1Ways}),
          l2_(CacheConfig{static_cast<uint64_t>(cfg.l2Entries) *
                              cfg.pageBytes,
                          static_cast<uint32_t>(cfg.pageBytes),
                          cfg.l2Ways})
    {
    }

    /** Translate; allocates on the walk path like a real MMU. */
    TlbLevel
    access(uint64_t vaddr)
    {
        ++accesses_;
        if (l1_.access(vaddr, false))
            return TlbLevel::L1;
        if (l2_.access(vaddr, false))
            return TlbLevel::L2;
        ++walks_;
        return TlbLevel::Walk;
    }

    uint64_t accesses() const { return accesses_; }
    uint64_t walks() const { return walks_; }
    double walkNs() const { return cfg_.walkNs; }

    void
    resetStats()
    {
        accesses_ = 0;
        walks_ = 0;
    }

  private:
    TlbConfig cfg_;
    SetAssocCache l1_;
    SetAssocCache l2_;
    uint64_t accesses_ = 0;
    uint64_t walks_ = 0;
};

} // namespace wsearch

#endif // WSEARCH_CPU_TLB_HH
