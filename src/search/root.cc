#include "search/root.hh"

#include <algorithm>
#include <unordered_map>

#include "search/topk.hh"

namespace wsearch {

namespace {

/** Offer every partial into @p topk, deduplicating doc ids (a doc
 *  appearing in several partials -- primary + hedge answering for the
 *  same shard -- keeps its best score). */
template <typename PartialFilter>
std::vector<ScoredDoc>
dedupMerge(const std::vector<std::vector<ScoredDoc>> &partials,
           uint32_t k, PartialFilter use_partial)
{
    std::unordered_map<DocId, float> best;
    for (size_t s = 0; s < partials.size(); ++s) {
        if (!use_partial(s))
            continue;
        for (const ScoredDoc &sd : partials[s]) {
            auto [it, inserted] = best.emplace(sd.doc, sd.score);
            if (!inserted && sd.score > it->second)
                it->second = sd.score;
        }
    }
    TopK topk(k);
    for (const auto &[doc, score] : best)
        topk.offer({doc, score});
    return topk.results();
}

} // namespace

std::vector<ScoredDoc>
RootServer::merge(const std::vector<std::vector<ScoredDoc>> &partials,
                  uint32_t k)
{
    return dedupMerge(partials, k, [](size_t) { return true; });
}

MergedPage
RootServer::mergeWithCoverage(
    const std::vector<std::vector<ScoredDoc>> &partials,
    const std::vector<ShardOutcome> &outcomes, uint32_t k)
{
    wsearch_assert(partials.size() == outcomes.size());
    MergedPage page;
    page.shardsTotal = static_cast<uint32_t>(partials.size());
    for (const ShardOutcome o : outcomes) {
        if (o == ShardOutcome::Answered)
            ++page.shardsAnswered;
        else if (o == ShardOutcome::Unavailable)
            ++page.shardsUnavailable;
    }
    page.docs = dedupMerge(partials, k, [&](size_t s) {
        return outcomes[s] == ShardOutcome::Answered;
    });
    return page;
}

ServingTree::ServingTree(std::vector<LeafServer *> leaves,
                         size_t cache_capacity)
    : leaves_(std::move(leaves)), cache_(cache_capacity)
{
    wsearch_assert(!leaves_.empty());
}

SearchResponse
ServingTree::handle(uint32_t tid, const SearchRequest &req)
{
    const Query &query = req.query;
    SearchResponse resp;
    queries_.fetch_add(1, std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lk(cacheMu_);
        if (cache_.lookup(query.id, &resp.docs)) {
            cacheHits_.fetch_add(1, std::memory_order_relaxed);
            return resp;
        }
    }
    std::vector<std::vector<ScoredDoc>> partials;
    partials.reserve(leaves_.size());
    for (LeafServer *leaf : leaves_) {
        const uint32_t leaf_tid = tid % leaf->numThreads();
        SearchResponse leaf_resp = leaf->serve(leaf_tid, req);
        resp.stats.merge(leaf_resp.stats);
        resp.degraded = resp.degraded || leaf_resp.degraded ||
            !leaf_resp.ok;
        partials.push_back(std::move(leaf_resp.docs));
        leafQueries_.fetch_add(1, std::memory_order_relaxed);
    }
    resp.docs = RootServer::merge(partials, query.topK);
    if (!resp.degraded) {
        std::lock_guard<std::mutex> lk(cacheMu_);
        cache_.insert(query.id, resp.docs);
    }
    return resp;
}


MultiLevelTree::MultiLevelTree(std::vector<LeafServer *> leaves,
                               uint32_t fanout, size_t cache_capacity)
    : cache_(cache_capacity)
{
    wsearch_assert(!leaves.empty());
    wsearch_assert(fanout >= 1);
    for (size_t i = 0; i < leaves.size(); i += fanout) {
        std::vector<LeafServer *> group;
        for (size_t j = i; j < std::min(leaves.size(), i + fanout); ++j)
            group.push_back(leaves[j]);
        groups_.push_back(std::move(group));
    }
}

SearchResponse
MultiLevelTree::handle(uint32_t tid, const SearchRequest &req)
{
    const Query &query = req.query;
    SearchResponse resp;
    queries_.fetch_add(1, std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lk(cacheMu_);
        if (cache_.lookup(query.id, &resp.docs)) {
            cacheHits_.fetch_add(1, std::memory_order_relaxed);
            return resp;
        }
    }
    // Each intermediate parent merges its group's leaf results before
    // forwarding the group top-k to the root.
    std::vector<std::vector<ScoredDoc>> parent_results;
    parent_results.reserve(groups_.size());
    for (const auto &group : groups_) {
        std::vector<std::vector<ScoredDoc>> partials;
        partials.reserve(group.size());
        for (LeafServer *leaf : group) {
            SearchResponse leaf_resp =
                leaf->serve(tid % leaf->numThreads(), req);
            resp.stats.merge(leaf_resp.stats);
            resp.degraded = resp.degraded || leaf_resp.degraded ||
                !leaf_resp.ok;
            partials.push_back(std::move(leaf_resp.docs));
            leafQueries_.fetch_add(1, std::memory_order_relaxed);
        }
        parent_results.push_back(
            RootServer::merge(partials, query.topK));
        parentMerges_.fetch_add(1, std::memory_order_relaxed);
    }
    resp.docs = RootServer::merge(parent_results, query.topK);
    if (!resp.degraded) {
        std::lock_guard<std::mutex> lk(cacheMu_);
        cache_.insert(query.id, resp.docs);
    }
    return resp;
}


} // namespace wsearch
