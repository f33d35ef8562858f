#include "memsim/hierarchy.hh"

namespace wsearch {

PrivateLevels::PrivateLevels(const HierarchySpec &spec)
    : spec_(spec), l1iShift_(log2i(spec.l1i.cache.blockBytes)),
      filterOnFill_(spec.l1i.cache.repl == ReplPolicy::LRU ||
                    spec.l1i.cache.repl == ReplPolicy::Random),
      lastFetch_(spec.numCores, kNoBlock)
{
    wsearch_assert(spec.numCores >= 1);
    wsearch_assert(spec.smtWays >= 1);
    wsearch_assert(spec.l2InstrPartitionWays < spec.l2.cache.ways);
    if (spec.l1i.inclusion != InclusionMode::NINE ||
        spec.l1d.inclusion != InclusionMode::NINE ||
        spec.l2.inclusion != InclusionMode::NINE)
        wsearch_fatal("inclusion control lives at the LLC; private "
                      "levels must be NINE");
    if (spec.l1i.fullyAssociative || spec.l1d.fullyAssociative ||
        spec.l2.fullyAssociative)
        wsearch_fatal("private levels are set-associative; "
                      "fullyAssociative is an LLC/L4 option");
    if (spec.l1i.slices != 1 || spec.l1d.slices != 1 ||
        spec.l2.slices != 1)
        wsearch_fatal("only the LLC can be sliced");

    for (uint32_t t = 0; t < spec.numCores * spec.smtWays; ++t)
        coreOfTid_.push_back(t / spec.smtWays);
    for (uint32_t c = 0; c < spec.numCores; ++c) {
        l1i_c_.push_back(
            std::make_unique<SetAssocCache>(spec.l1i.cache));
        l1d_c_.push_back(
            std::make_unique<SetAssocCache>(spec.l1d.cache));
        if (spec.l2InstrPartitionWays) {
            // Way-partitioned split L2: instructions get the first
            // l2InstrPartitionWays ways, data the remainder.
            CacheConfig data_part = spec.l2.cache;
            data_part.partitionWays =
                spec.l2.cache.ways - spec.l2InstrPartitionWays;
            CacheConfig instr_part = spec.l2.cache;
            instr_part.partitionWays = spec.l2InstrPartitionWays;
            l2_c_.push_back(
                std::make_unique<SetAssocCache>(data_part));
            l2i_c_.push_back(
                std::make_unique<SetAssocCache>(instr_part));
        } else {
            l2_c_.push_back(
                std::make_unique<SetAssocCache>(spec.l2.cache));
        }
        stride_.emplace_back(256);
        stream_.emplace_back(spec.prefetch.streamDegree);
    }
    if (spec.coherence != CoherenceProtocol::None &&
        spec.numCores > 1) {
        wsearch_assert(spec.numCores <= 64); // sharer bitmask width
        coh_ = std::make_unique<CoherenceDirectory>(
            spec.coherence, spec.l1d.cache.blockBytes);
    }
}

void
PrivateLevels::resetStats()
{
    l1i_.reset();
    l1d_.reset();
    l2_.reset();
    writebacks_ = 0;
    if (coh_)
        coh_->resetStats();
}

uint32_t
PrivateLevels::backInvalidate(uint64_t addr)
{
    uint32_t cores = 0;
    for (uint32_t c = 0; c < spec_.numCores; ++c) {
        bool inv = false;
        inv |= l1i_c_[c]->invalidate(addr);
        inv |= l1d_c_[c]->invalidate(addr);
        inv |= l2_c_[c]->invalidate(addr);
        if (!l2i_c_.empty())
            inv |= l2i_c_[c]->invalidate(addr);
        if (inv)
            ++cores;
        if (lastFetch_[c] == addr >> l1iShift_)
            lastFetch_[c] = kNoBlock;
    }
    return cores;
}

void
PrivateLevels::streamPrefetch(uint32_t core, SetAssocCache &l2,
                              uint64_t addr)
{
    uint64_t blocks[8];
    const uint64_t block = addr / spec_.l2.cache.blockBytes;
    const uint32_t n = stream_[core].observeMiss(block, blocks);
    for (uint32_t i = 0; i < n; ++i) {
        l2.insert(blocks[i] * spec_.l2.cache.blockBytes, false, true);
        ++l2_.prefetchIssued;
    }
}

bool
PrivateLevels::l2Lookup(SetAssocCache &l2, uint64_t addr, bool is_store,
                        AccessKind kind, SharedRequests &out)
{
    uint64_t evicted = kNoBlock;
    bool evicted_dirty = false;
    bool was_pf = false;
    const bool l2_hit =
        l2.access(addr, is_store, &evicted, &evicted_dirty, &was_pf);
    l2_.record(kind, !l2_hit);
    if (was_pf)
        ++l2_.prefetchUseful;
    // Every victim goes down (an exclusive LLC inserts clean ones
    // too), ahead of the demand. A victim insert never touches a
    // private cache, so it may follow the caller's L2 prefetches.
    out.n = 0;
    if (evicted != kNoBlock) {
        if (evicted_dirty)
            ++writebacks_;
        out.req[out.n++] = {evicted, kind,
                            evicted_dirty ? SharedOp::DirtyVictim
                                          : SharedOp::CleanVictim};
    }
    return l2_hit;
}

HitLevel
PrivateLevels::fetchLookup(uint32_t core, uint64_t pc,
                           SharedRequests &out)
{
    const bool hit = l1i_c_[core]->access(pc, false);
    l1i_.record(AccessKind::Code, !hit);
    lastFetch_[core] = hit || filterOnFill_ ? pc >> l1iShift_ : kNoBlock;
    if (hit)
        return HitLevel::L1;
    SetAssocCache &l2 = l2i_c_.empty() ? *l2_c_[core] : *l2i_c_[core];
    if (l2Lookup(l2, pc, false, AccessKind::Code, out))
        return HitLevel::L2;
    if (spec_.prefetch.l2Stream)
        streamPrefetch(core, l2, pc);
    out.req[out.n++] = {pc, AccessKind::Code, SharedOp::Load};
    return kPastL2;
}

void
PrivateLevels::applyCoherence(uint32_t core, uint64_t addr,
                              bool is_store)
{
    const uint64_t mask = coh_->onAccess(core, addr, is_store);
    if (!mask)
        return;
    // Keep the cache contents consistent with the directory: remote
    // private data copies disappear on a store.
    for (uint32_t c = 0; c < spec_.numCores; ++c) {
        if (!(mask >> c & 1))
            continue;
        l1d_c_[c]->invalidate(addr);
        l2_c_[c]->invalidate(addr);
    }
}

HitLevel
PrivateLevels::data(uint32_t core, uint64_t pc, uint64_t addr,
                    bool is_store, AccessKind kind, SharedRequests &out)
{
    if (coh_)
        applyCoherence(core, addr, is_store);
    SetAssocCache &l1d = *l1d_c_[core];
    bool was_pf = false;
    const bool hit = l1d.access(addr, is_store, nullptr, nullptr, &was_pf);
    l1d_.record(kind, !hit);
    if (was_pf)
        ++l1d_.prefetchUseful;

    // L1 prefetchers train on every demand access.
    if (spec_.prefetch.l1Stride) {
        const uint64_t predicted = stride_[core].train(pc, addr);
        if (predicted && !l1d.probe(predicted)) {
            l1d.insert(predicted, false, true);
            ++l1d_.prefetchIssued;
        }
    }
    if (spec_.prefetch.l1NextLine && !hit) {
        const uint64_t next = addr + spec_.l1d.cache.blockBytes;
        if (!l1d.probe(next)) {
            l1d.insert(next, false, true);
            ++l1d_.prefetchIssued;
        }
    }
    if (hit)
        return HitLevel::L1;

    SetAssocCache &l2 = *l2_c_[core];
    if (l2Lookup(l2, addr, is_store, kind, out))
        return HitLevel::L2;
    if (spec_.prefetch.l2Adjacent) {
        // Buddy (adjacent-line) prefetch into the L2.
        const uint64_t buddy =
            (addr ^ spec_.l2.cache.blockBytes) & ~(uint64_t(
                spec_.l2.cache.blockBytes) - 1);
        if (!l2.probe(buddy)) {
            l2.insert(buddy, false, true);
            ++l2_.prefetchIssued;
        }
    }
    if (spec_.prefetch.l2Stream)
        streamPrefetch(core, l2, addr);
    out.req[out.n++] = {addr, kind,
                        is_store ? SharedOp::Store : SharedOp::Load};
    return kPastL2;
}

SharedLevels::SharedLevels(const HierarchySpec &spec) : spec_(spec)
{
    if (spec.hasLlc) {
        wsearch_assert(spec.llc.slices >= 1);
        if (spec.llc.inclusion == InclusionMode::Exclusive &&
            spec.llc.fullyAssociative)
            wsearch_fatal("exclusive LLC needs the set-associative "
                          "array (dirty-victim tracking)");
        const uint64_t slice_bytes =
            spec.llc.cache.sizeBytes / spec.llc.slices;
        for (uint32_t s = 0; s < spec.llc.slices; ++s)
            llc_c_.emplace_back(spec.llc, slice_bytes);
    }
    if (spec.l4) {
        wsearch_assert(spec.hasLlc); // the L4 backs the LLC
        if (spec.l4->inclusion != InclusionMode::NINE)
            wsearch_fatal("the memory-side L4 is NINE by "
                          "construction");
        l4_c_ = std::make_unique<CacheUnit>(*spec.l4,
                                            spec.l4->cache.sizeBytes);
    }
}

void
SharedLevels::resetStats()
{
    l3_.reset();
    l4_.reset();
    l3Evictions_ = 0;
    writebacks_ = 0;
    backInvalidations_ = 0;
}

void
SharedLevels::handleLlcEviction(uint64_t evicted, bool dirty,
                                PrivateLevels *upper)
{
    ++l3Evictions_;
    if (dirty)
        ++writebacks_;
    // The paper's L4 is a victim cache for LLC evictions (clean and
    // dirty): the only fill path in victimFill mode.
    if (l4_c_ && spec_.l4->victimFill)
        l4_c_->insert(evicted, false, false);
    if (spec_.llc.inclusion == InclusionMode::Inclusive) {
        // Inclusion: the block may no longer live in any private cache.
        wsearch_assert(upper);
        backInvalidations_ += upper->backInvalidate(evicted);
    }
}

void
SharedLevels::fillFromL2Victim(uint64_t evicted, bool dirty,
                               PrivateLevels *upper)
{
    if (!spec_.hasLlc)
        return;
    CacheUnit &llc = llc_c_[llcSlice(evicted)];
    if (spec_.llc.inclusion == InclusionMode::Exclusive) {
        // An exclusive LLC holds exactly the private-cache victims:
        // every L2 eviction (clean or dirty) fills it, and the fill's
        // own victim leaves the chip via handleLlcEviction.
        uint64_t ev = kNoBlock;
        bool ev_dirty = false;
        llc.insert(evicted, dirty, false, &ev, &ev_dirty);
        if (ev != kNoBlock)
            handleLlcEviction(ev, ev_dirty, upper);
        return;
    }
    // NINE / inclusive: only dirty victims propagate down (the legacy
    // model, preserved bit-for-bit -- including not tracking the
    // writeback insert's own victim).
    if (dirty)
        llc.insert(evicted, true, false);
}

HitLevel
SharedLevels::serve(const SharedRequest &r, PrivateLevels *upper)
{
    if (!r.demand()) {
        fillFromL2Victim(r.addr, r.op == SharedOp::DirtyVictim, upper);
        return HitLevel::Memory;
    }
    return demand(r.addr, r.op == SharedOp::Store, r.kind, upper);
}

HitLevel
SharedLevels::demand(uint64_t addr, bool is_store, AccessKind kind,
                     PrivateLevels *upper)
{
    if (!spec_.hasLlc) {
        // No shared levels: misses go straight to memory.
        return HitLevel::Memory;
    }
    CacheUnit &llc = llc_c_[llcSlice(addr)];
    bool llc_hit;
    if (spec_.llc.inclusion == InclusionMode::Exclusive) {
        // Exclusive LLC: a hit migrates the line up into the private
        // caches (the caller's fill path), so it leaves the LLC; a
        // miss does not allocate -- fills come only from L2
        // evictions. The migrated line re-enters clean (dirty state
        // is re-established only by further stores), a documented
        // simplification.
        llc_hit = llc.invalidate(addr);
        l3_.record(kind, !llc_hit);
    } else {
        uint64_t evicted = kNoBlock;
        bool evicted_dirty = false;
        llc_hit = llc.access(addr, is_store, &evicted, &evicted_dirty);
        l3_.record(kind, !llc_hit);
        if (evicted != kNoBlock)
            handleLlcEviction(evicted, evicted_dirty, upper);
    }
    if (llc_hit)
        return HitLevel::L3;

    if (!l4_c_)
        return HitLevel::Memory;

    if (spec_.l4->victimFill) {
        // Memory-side victim cache: a hit serves the data and the line
        // stays resident (it caches memory, not the LLC); a miss does
        // NOT allocate -- fills come only from LLC evictions.
        const bool l4_hit = l4_c_->touch(addr);
        l4_.record(kind, !l4_hit);
        return l4_hit ? HitLevel::L4 : HitLevel::Memory;
    }
    // Conventional fill-on-miss L4.
    const bool l4_hit = l4_c_->access(addr, false);
    l4_.record(kind, !l4_hit);
    return l4_hit ? HitLevel::L4 : HitLevel::Memory;
}

} // namespace wsearch
