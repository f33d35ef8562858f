#include "memsim/hierarchy.hh"

namespace wsearch {

CacheHierarchy::CacheHierarchy(const HierarchySpec &spec) : spec_(spec)
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
    if (spec.coherence != CoherenceProtocol::None &&
        spec.numCores > 1) {
        wsearch_assert(spec.numCores <= 64); // sharer bitmask width
        coh_ = std::make_unique<CoherenceDirectory>(
            spec.coherence, spec.l1d.cache.blockBytes);
    }
}

void
CacheHierarchy::resetStats()
{
    l1i_.reset();
    l1d_.reset();
    l2_.reset();
    l3_.reset();
    l4_.reset();
    l3Evictions_ = 0;
    writebacks_ = 0;
    backInvalidations_ = 0;
    if (coh_)
        coh_->resetStats();
}

void
CacheHierarchy::handleLlcEviction(uint64_t evicted, bool dirty)
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
        for (uint32_t c = 0; c < spec_.numCores; ++c) {
            bool inv = false;
            inv |= l1i_c_[c]->invalidate(evicted);
            inv |= l1d_c_[c]->invalidate(evicted);
            inv |= l2_c_[c]->invalidate(evicted);
            if (inv)
                ++backInvalidations_;
        }
    }
}

void
CacheHierarchy::fillLlcFromL2Eviction(uint64_t evicted, bool dirty)
{
    if (spec_.hasLlc &&
        spec_.llc.inclusion == InclusionMode::Exclusive) {
        // An exclusive LLC holds exactly the private-cache victims:
        // every L2 eviction (clean or dirty) fills it, and the fill's
        // own victim leaves the chip via handleLlcEviction.
        if (dirty)
            ++writebacks_;
        CacheUnit &llc = llc_c_[llcSlice(evicted)];
        uint64_t ev = kNoBlock;
        bool ev_dirty = false;
        llc.insert(evicted, dirty, false, &ev, &ev_dirty);
        if (ev != kNoBlock)
            handleLlcEviction(ev, ev_dirty);
        return;
    }
    // NINE / inclusive: only dirty victims propagate down (the legacy
    // model, preserved bit-for-bit -- including not tracking the
    // writeback insert's own victim).
    if (dirty) {
        ++writebacks_;
        if (spec_.hasLlc)
            llc_c_[llcSlice(evicted)].insert(evicted, true, false);
    }
}

HitLevel
CacheHierarchy::accessSharedLevels(uint64_t addr, bool is_store,
                                   AccessKind kind)
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
            handleLlcEviction(evicted, evicted_dirty);
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

HitLevel
CacheHierarchy::missPathInstr(uint32_t core, uint64_t pc)
{
    SetAssocCache &l2 = l2i_c_.empty() ? *l2_c_[core]
                                       : *l2i_c_[core];
    uint64_t evicted = kNoBlock;
    bool evicted_dirty = false;
    bool was_pf = false;
    const bool l2_hit =
        l2.accessTrackPf(pc, false, &was_pf, &evicted, &evicted_dirty);
    l2_.record(AccessKind::Code, !l2_hit);
    if (was_pf)
        ++l2_.prefetchUseful;
    if (evicted != kNoBlock)
        fillLlcFromL2Eviction(evicted, evicted_dirty);
    if (l2_hit)
        return HitLevel::L2;

    if (spec_.prefetch.l2Stream) {
        uint64_t blocks[8];
        const uint64_t block = pc / spec_.l2.cache.blockBytes;
        const uint32_t n = stream_[core].observeMiss(block, blocks);
        for (uint32_t i = 0; i < n; ++i) {
            l2.insert(blocks[i] * spec_.l2.cache.blockBytes, false,
                      true);
            ++l2_.prefetchIssued;
        }
    }
    return accessSharedLevels(pc, false, AccessKind::Code);
}

HitLevel
CacheHierarchy::accessInstr(uint32_t tid, uint64_t pc)
{
    const uint32_t core = coreOf(tid);
    SetAssocCache &l1i = *l1i_c_[core];
    const bool hit = l1i.access(pc, false);
    l1i_.record(AccessKind::Code, !hit);
    if (hit)
        return HitLevel::L1;
    const HitLevel level = missPathInstr(core, pc);
    return level;
}

void
CacheHierarchy::applyCoherence(uint32_t core, uint64_t addr,
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
CacheHierarchy::missPathData(uint32_t core, uint64_t addr,
                             bool is_store, AccessKind kind)
{
    SetAssocCache &l2 = *l2_c_[core];
    uint64_t evicted = kNoBlock;
    bool evicted_dirty = false;
    bool was_pf = false;
    const bool l2_hit = l2.accessTrackPf(addr, is_store, &was_pf,
                                         &evicted, &evicted_dirty);
    l2_.record(kind, !l2_hit);
    if (was_pf)
        ++l2_.prefetchUseful;
    if (evicted != kNoBlock)
        fillLlcFromL2Eviction(evicted, evicted_dirty);
    if (l2_hit)
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
    if (spec_.prefetch.l2Stream) {
        uint64_t blocks[8];
        const uint64_t block = addr / spec_.l2.cache.blockBytes;
        const uint32_t n = stream_[core].observeMiss(block, blocks);
        for (uint32_t i = 0; i < n; ++i) {
            l2.insert(blocks[i] * spec_.l2.cache.blockBytes, false,
                      true);
            ++l2_.prefetchIssued;
        }
    }
    return accessSharedLevels(addr, is_store, kind);
}

HitLevel
CacheHierarchy::accessData(uint32_t tid, uint64_t pc, uint64_t addr,
                           bool is_store, AccessKind kind)
{
    const uint32_t core = coreOf(tid);
    if (coh_)
        applyCoherence(core, addr, is_store);
    SetAssocCache &l1d = *l1d_c_[core];
    bool was_pf = false;
    const bool hit = l1d.accessTrackPf(addr, is_store, &was_pf);
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
    return missPathData(core, addr, is_store, kind);
}

} // namespace wsearch
