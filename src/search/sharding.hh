/**
 * @file
 * Sharded index build: partition one corpus into S disjoint
 * MaterializedIndex shards by doc-id stride (shard s holds global
 * documents s, s + S, s + 2S, ...). Each shard maps its local ids
 * back to global ones (IndexShard::partition), so a leaf over any
 * shard returns global document ids and a root merge over all shards
 * covers the whole corpus exactly once, in whatever order the shards
 * are served -- the paper Figure 1 partitioning, buildable at any
 * fan-out.
 */

#ifndef WSEARCH_SEARCH_SHARDING_HH
#define WSEARCH_SEARCH_SHARDING_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "search/corpus.hh"
#include "search/index.hh"

namespace wsearch {

/** A corpus partitioned into disjoint per-shard indexes. */
struct ShardedIndex
{
    std::vector<std::unique_ptr<MaterializedIndex>> shards;

    uint32_t
    numShards() const
    {
        return static_cast<uint32_t>(shards.size());
    }

    const IndexShard &shard(uint32_t s) const { return *shards[s]; }

    /** Non-owning shard pointers (ClusterServer's ctor shape). */
    std::vector<const IndexShard *> shardPtrs() const;
};

/**
 * Build @p num_shards disjoint shards of @p corpus, each encoded in
 * @p codec. Shard statistics (docFreq, avgDocLen) are shard-local;
 * with the Zipf corpus and a stride partition they concentrate to the
 * global values as shards stay balanced (each holds every S-th
 * document).
 */
ShardedIndex
buildShardedIndex(const CorpusGenerator &corpus, uint32_t num_shards,
                  PostingCodec codec = PostingCodec::kVarint);

} // namespace wsearch

#endif // WSEARCH_SEARCH_SHARDING_HH
