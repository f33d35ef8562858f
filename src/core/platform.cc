#include "core/platform.hh"

namespace wsearch {

PlatformConfig
PlatformConfig::plt1()
{
    PlatformConfig p;
    p.name = "PLT1";
    p.microarchitecture = "Intel Haswell";
    p.sockets = 2;
    p.coresPerSocket = 18;
    p.smtWays = 2;
    p.cacheBlockBytes = 64;
    p.l1iBytes = 32 * KiB;
    p.l1dBytes = 32 * KiB;
    p.l2Bytes = 256 * KiB;
    p.l3Bytes = 45 * MiB;
    p.l3Ways = 20;
    p.width = 4;
    p.freqGhz = 2.5;
    p.l3HitNs = 23.0;
    p.memNs = 123.0;
    p.smt.eta2 = 0.80;
    p.tlbBase = TlbConfig{};
    p.tlbHuge = TlbConfig::huge2M();
    return p;
}

PlatformConfig
PlatformConfig::plt2()
{
    PlatformConfig p;
    p.name = "PLT2";
    p.microarchitecture = "IBM POWER8";
    p.sockets = 2;
    p.coresPerSocket = 12;
    p.smtWays = 8;
    p.cacheBlockBytes = 128;
    p.l1iBytes = 32 * KiB;
    p.l1dBytes = 64 * KiB;
    p.l2Bytes = 512 * KiB;
    p.l3Bytes = 96 * MiB;
    p.l3Ways = 8;
    p.width = 8;
    p.freqGhz = 3.5;
    p.l3HitNs = 27.0;
    p.memNs = 115.0;
    p.smt.eta2 = 0.92;
    p.smt.eta4 = 0.88;
    p.smt.eta8 = 0.79;
    // POWER8-style engine: deep L2 streams only; the 128 B blocks
    // already capture the adjacent/next-line spatial locality, so
    // those components mostly pollute.
    p.prefetchEngine = PrefetchConfig{};
    p.prefetchEngine.l2Stream = true;
    p.prefetchEngine.streamDegree = 8;
    p.tlbBase = TlbConfig::base64K();
    p.tlbHuge = TlbConfig::huge16M();
    return p;
}

HierarchySpec
PlatformConfig::hierarchy(uint32_t cores, uint32_t smt_ways,
                          uint32_t l3_partition_ways) const
{
    HierarchySpec h;
    h.numCores = cores;
    h.smtWays = smt_ways;
    h.l1i = cache_gen_l1(l1iBytes, cacheBlockBytes, 8);
    h.l1d = cache_gen_l1(l1dBytes, cacheBlockBytes, 8);
    h.l2 = cache_gen_l2(l2Bytes, cacheBlockBytes, 8);
    h.llc = cache_gen_llc(l3Bytes, cacheBlockBytes, l3Ways,
                          ReplPolicy::LRU, InclusionMode::NINE,
                          /*slices=*/1, l3_partition_ways);
    return h;
}

CoreModelParams
PlatformConfig::coreParams(const WorkloadProfile &profile) const
{
    CoreModelParams c;
    c.width = width;
    c.freqGhz = freqGhz;
    c.l3HitNs = l3HitNs;
    c.memNs = memNs;
    c.tlbWalkNs = tlbBase.walkNs;
    c.tweaks = profile.cpu;
    return c;
}

SystemConfig
PlatformConfig::system(const WorkloadProfile &profile, uint32_t cores,
                       uint32_t smt_ways, uint32_t l3_partition_ways,
                       std::optional<CacheLevelSpec> l4) const
{
    SystemConfig s;
    s.hierarchy = hierarchy(cores, smt_ways, l3_partition_ways);
    s.hierarchy.l4 = l4;
    s.core = coreParams(profile);
    s.dtlb = tlbBase;
    return s;
}

} // namespace wsearch
