#include "search/root.hh"

#include <unordered_map>

#include "search/topk.hh"
#include "util/logging.hh"

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

} // namespace wsearch
