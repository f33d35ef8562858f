/**
 * @file
 * Composable cache-hierarchy specification. A hierarchy is assembled
 * from per-level CacheLevelSpec building blocks (size/ways, a
 * pluggable ReplPolicy, an inclusion mode, optional slice-hash
 * dispatch for the LLC, and an optional fully-associative backend)
 * by cache_gen_* factories in the style of FlexiCAS's generator
 * templates. A HierarchySpec composes the levels with a coherence
 * protocol choice, and CacheHierarchy consumes it directly. The
 * compat oracle test pins the counters of representative specs to
 * goldens captured before the composable redesign.
 *
 * Level semantics:
 *  - inclusion describes how a level relates to the levels ABOVE it
 *    (closer to the core). Inclusive LLC back-invalidates private
 *    caches on eviction; Exclusive LLC holds only private-cache
 *    victims (hits migrate the line up and out of the LLC); NINE
 *    (non-inclusive non-exclusive) is the default fill-everywhere
 *    design.
 *  - victimFill marks a memory-side victim cache (the paper's L4):
 *    filled only by evictions of the level above, misses do not
 *    allocate.
 *  - fullyAssociative selects the ways==sets configuration, backed by
 *    the O(1) hash-map + intrusive-list implementation (a linear way
 *    scan would be impractical at GiB capacities). Exact LRU only;
 *    other policies are rejected at construction.
 *  - slices > 1 statically interleaves the level into address-hashed
 *    slices of sizeBytes/slices each (LLC slice dispatch).
 */

#ifndef WSEARCH_MEMSIM_SPEC_HH
#define WSEARCH_MEMSIM_SPEC_HH

#include <cstdint>
#include <optional>

#include "memsim/cache.hh"
#include "memsim/prefetch.hh"

namespace wsearch {

/** How a cache level relates to the levels above it. */
enum class InclusionMode : uint8_t {
    NINE,      ///< non-inclusive non-exclusive (fill everywhere)
    Inclusive, ///< eviction back-invalidates the upper levels
    Exclusive, ///< holds only upper-level victims; hits migrate up
};

/** Coherence metadata protocol for multi-core data sharing. */
enum class CoherenceProtocol : uint8_t {
    None, ///< the paper's assumption: negligible read-write sharing
    MSI,
    MESI, ///< adds the silent Exclusive->Modified upgrade
};

/** One composable cache level. */
struct CacheLevelSpec
{
    CacheConfig cache;
    InclusionMode inclusion = InclusionMode::NINE;
    bool fullyAssociative = false;
    uint32_t slices = 1;     ///< address-hashed slice count (LLC)
    bool victimFill = false; ///< memory-side victim cache (paper L4)

    bool operator==(const CacheLevelSpec &) const = default;
};

/** Private L1 level (I or D side). */
CacheLevelSpec cache_gen_l1(uint64_t size_bytes, uint32_t block_bytes,
                            uint32_t ways,
                            ReplPolicy repl = ReplPolicy::LRU);

/** Private unified L2 level. */
CacheLevelSpec cache_gen_l2(uint64_t size_bytes, uint32_t block_bytes,
                            uint32_t ways,
                            ReplPolicy repl = ReplPolicy::LRU);

/** Shared last-level cache (optionally sliced / partitioned). */
CacheLevelSpec
cache_gen_llc(uint64_t size_bytes, uint32_t block_bytes, uint32_t ways,
              ReplPolicy repl = ReplPolicy::LRU,
              InclusionMode inclusion = InclusionMode::NINE,
              uint32_t slices = 1, uint32_t partition_ways = 0);

/** Inclusive LLC shorthand (FlexiCAS cache_gen_llc_inc). */
CacheLevelSpec cache_gen_llc_inc(uint64_t size_bytes,
                                 uint32_t block_bytes, uint32_t ways,
                                 ReplPolicy repl = ReplPolicy::LRU,
                                 uint32_t slices = 1);

/** Exclusive (victim) LLC shorthand (FlexiCAS cache_gen_l2_exc). */
CacheLevelSpec cache_gen_llc_exc(uint64_t size_bytes,
                                 uint32_t block_bytes, uint32_t ways,
                                 ReplPolicy repl = ReplPolicy::LRU,
                                 uint32_t slices = 1);

/**
 * Memory-side cache behind the LLC (the paper's eDRAM L4).
 * @p victim_fill true = the paper design (filled by LLC evictions
 * only, misses do not allocate); false = conventional
 * allocate-on-miss. Direct-mapped unless @p fully_assoc.
 */
CacheLevelSpec cache_gen_victim(uint64_t size_bytes,
                                uint32_t block_bytes,
                                bool fully_assoc = false,
                                bool victim_fill = true);

/**
 * A full hierarchy: per-core private L1-I/L1-D/L2, an optional shared
 * LLC, an optional memory-side L4, plus prefetch and coherence
 * choices. Assemble the levels with the cache_gen_* factories.
 */
struct HierarchySpec
{
    uint32_t numCores = 1;
    uint32_t smtWays = 1; ///< hardware threads sharing a core's L1/L2

    CacheLevelSpec l1i{CacheConfig{32 * KiB, 64, 8}};
    CacheLevelSpec l1d{CacheConfig{32 * KiB, 64, 8}};
    CacheLevelSpec l2{CacheConfig{256 * KiB, 64, 8}};
    /**
     * Split the unified L2 by reserving this many ways for
     * instructions (CAT-style I/D partitioning, paper §V). 0 keeps
     * the L2 unified.
     */
    uint32_t l2InstrPartitionWays = 0;

    CacheLevelSpec llc{CacheConfig{40 * MiB, 64, 20}};
    bool hasLlc = true;
    std::optional<CacheLevelSpec> l4;

    /** Directory coherence over the private data caches. None keeps
     *  the paper's coherence-free model (and the seed's counters). */
    CoherenceProtocol coherence = CoherenceProtocol::None;
    PrefetchConfig prefetch;

    bool operator==(const HierarchySpec &) const = default;
};

} // namespace wsearch

#endif // WSEARCH_MEMSIM_SPEC_HH
