#include "memsim/spec.hh"

namespace wsearch {

CacheLevelSpec
cache_gen_l1(uint64_t size_bytes, uint32_t block_bytes, uint32_t ways,
             ReplPolicy repl)
{
    CacheLevelSpec s;
    s.cache = CacheConfig{size_bytes, block_bytes, ways, repl};
    return s;
}

CacheLevelSpec
cache_gen_l2(uint64_t size_bytes, uint32_t block_bytes, uint32_t ways,
             ReplPolicy repl)
{
    CacheLevelSpec s;
    s.cache = CacheConfig{size_bytes, block_bytes, ways, repl};
    return s;
}

CacheLevelSpec
cache_gen_llc(uint64_t size_bytes, uint32_t block_bytes, uint32_t ways,
              ReplPolicy repl, InclusionMode inclusion, uint32_t slices,
              uint32_t partition_ways)
{
    CacheLevelSpec s;
    s.cache =
        CacheConfig{size_bytes, block_bytes, ways, repl, partition_ways};
    s.inclusion = inclusion;
    s.slices = slices ? slices : 1;
    return s;
}

CacheLevelSpec
cache_gen_llc_inc(uint64_t size_bytes, uint32_t block_bytes,
                  uint32_t ways, ReplPolicy repl, uint32_t slices)
{
    return cache_gen_llc(size_bytes, block_bytes, ways, repl,
                         InclusionMode::Inclusive, slices);
}

CacheLevelSpec
cache_gen_llc_exc(uint64_t size_bytes, uint32_t block_bytes,
                  uint32_t ways, ReplPolicy repl, uint32_t slices)
{
    return cache_gen_llc(size_bytes, block_bytes, ways, repl,
                         InclusionMode::Exclusive, slices);
}

CacheLevelSpec
cache_gen_victim(uint64_t size_bytes, uint32_t block_bytes,
                 bool fully_assoc, bool victim_fill)
{
    CacheLevelSpec s;
    // Direct-mapped (Alloy-style) unless fully associative; the FA
    // backend ignores ways.
    s.cache = CacheConfig{size_bytes, block_bytes, 1};
    s.fullyAssociative = fully_assoc;
    s.victimFill = victim_fill;
    return s;
}

} // namespace wsearch
