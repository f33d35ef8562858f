#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <string>
#include <vector>

#include "cpu/core_model.hh"
#include "cpu/system.hh"
#include "util/rng.hh"

namespace wsearch {
namespace {

uint64_t
bits(double v)
{
    return std::bit_cast<uint64_t>(v);
}

CoreModelParams
defaultParams()
{
    CoreModelParams p;
    return p;
}

TEST(CoreModel, PerfectStreamHitsWidthCeiling)
{
    CoreModelParams p = defaultParams();
    p.tweaks.feBwSlotsPerInstr = 0.0;
    p.tweaks.beCoreSlotsPerInstr = 0.0;
    CoreModel m(p);
    EXPECT_DOUBLE_EQ(m.ipc(1000, 0), 4.0);
    EXPECT_DOUBLE_EQ(m.topDown(1000, 0).retiringFrac(), 1.0);
}

TEST(CoreModel, FixedOverheadsLowerIpc)
{
    CoreModelParams p = defaultParams();
    p.tweaks.feBwSlotsPerInstr = 1.0;
    p.tweaks.beCoreSlotsPerInstr = 1.0;
    CoreModel m(p);
    // 3 slots per instruction -> IPC = width / 3.
    EXPECT_NEAR(m.ipc(1000, 0), 4.0 / 3.0, 1e-9);
}

TEST(CoreModel, MispredictChargesBadSpeculation)
{
    CoreModelParams p = defaultParams();
    CoreModel m(p);
    EXPECT_DOUBLE_EQ(m.topDown(1, 1).badSpeculation,
                     p.width * p.bpPenaltyCycles);
    EXPECT_DOUBLE_EQ(m.topDown(1, 0).badSpeculation, 0.0);
}

TEST(CoreModel, MemoryLatencyChargesBackend)
{
    CoreModelParams p = defaultParams();
    CoreModel m(p);
    m.onDataAccess(HitLevel::Memory);
    const double expected =
        p.width * p.memNs * p.freqGhz * p.tweaks.postL2Exposure;
    EXPECT_DOUBLE_EQ(m.topDown(1, 0).backendMemory, expected);
}

TEST(CoreModel, L1HitsAreFree)
{
    CoreModel m(defaultParams());
    m.onDataAccess(HitLevel::L1);
    m.onInstrFetch(HitLevel::L1);
    EXPECT_DOUBLE_EQ(m.topDown(1, 0).backendMemory, 0.0);
    EXPECT_DOUBLE_EQ(m.topDown(1, 0).frontendLatency, 0.0);
}

TEST(CoreModel, DeeperMissesCostMore)
{
    auto cost = [](HitLevel level) {
        CoreModel m(defaultParams());
        m.onDataAccess(level);
        return m.topDown(1, 0).backendMemory;
    };
    EXPECT_LT(cost(HitLevel::L2), cost(HitLevel::L3));
    EXPECT_LT(cost(HitLevel::L3), cost(HitLevel::L4));
    EXPECT_LT(cost(HitLevel::L4), cost(HitLevel::Memory));
}

TEST(CoreModel, L4MissExtraPenaltyApplies)
{
    CoreModelParams base = defaultParams();
    CoreModelParams pess = base;
    pess.l4MissExtraNs = 5.0;
    CoreModel a(base), b(pess);
    a.onDataAccess(HitLevel::Memory);
    b.onDataAccess(HitLevel::Memory);
    EXPECT_GT(b.topDown(1, 0).backendMemory,
              a.topDown(1, 0).backendMemory);
}

TEST(CoreModel, IfetchMissChargesFrontend)
{
    CoreModel m(defaultParams());
    m.onInstrFetch(HitLevel::L2);
    EXPECT_GT(m.topDown(1, 0).frontendLatency, 0.0);
    EXPECT_DOUBLE_EQ(m.topDown(1, 0).backendMemory, 0.0);
}

TEST(CoreModel, TlbWalkCharges)
{
    CoreModel m(defaultParams());
    m.onTlbWalk();
    EXPECT_GT(m.topDown(1, 0).backendMemory, 0.0);
    m.onItlbWalk();
    EXPECT_GT(m.topDown(1, 0).frontendLatency, 0.0);
}

TEST(CoreModel, FractionsSumToOne)
{
    CoreModel m(defaultParams());
    uint64_t mispredicts = 0;
    for (int i = 0; i < 100; ++i) {
        if (i % 7 == 0)
            ++mispredicts;
        if (i % 3 == 0)
            m.onDataAccess(HitLevel::L3);
        if (i % 11 == 0)
            m.onInstrFetch(HitLevel::L2);
    }
    const TopDown td = m.topDown(100, mispredicts);
    const double sum = td.retiringFrac() + td.badSpecFrac() +
        td.feLatFrac() + td.feBwFrac() + td.beMemFrac() +
        td.beCoreFrac();
    EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(CoreModel, Reset)
{
    CoreModel m(defaultParams());
    m.onItlbWalk();
    m.onInstrFetch(HitLevel::Memory);
    m.onDataAccess(HitLevel::L3);
    m.reset();
    EXPECT_DOUBLE_EQ(m.topDown(0, 0).total(), 0.0);
}

TEST(CoreModel, IpcLinearInMemoryLatency)
{
    // The paper's Eq. 1 regime: with a fixed miss profile, 1/IPC is
    // linear in the post-L2 latency, so IPC over a narrow latency
    // window is nearly linear.
    auto ipc_at = [](double mem_ns) {
        CoreModelParams p;
        p.memNs = mem_ns;
        CoreModel m(p);
        for (int i = 0; i < 10000; ++i) {
            if (i % 100 == 0)
                m.onDataAccess(HitLevel::Memory);
        }
        return m.ipc(10000, 0);
    };
    const double i50 = ipc_at(50), i60 = ipc_at(60), i70 = ipc_at(70);
    EXPECT_GT(i50, i60);
    EXPECT_GT(i60, i70);
    // Near-linearity: midpoint close to the average of the endpoints.
    EXPECT_NEAR(i60, (i50 + i70) / 2, 0.01);
}

TEST(CoreModel, RepeatedSumAddsInSequence)
{
    // Non-dyadic, dyadic, huge and tiny charges; charges whose adds
    // tie in some binade of the sum (1 + 2^-33: where the sum's ulp is
    // 2^-32, near n = 2^20; likewise the next two); random ones.
    std::vector<double> charges = {
        0.3, 0.27, 0.1 + 0.2, 0.095 * 10.0 * 4, 52.0, 1.0, 0.25, 0.75,
        1.0 + 0x1p-33, 1.5 + 0x1p-32, 3.0 + 0x1p-31, 1e-300, 1e303};
    Rng rng(0xc0ffee);
    for (int i = 0; i < 8; ++i)
        charges.push_back(rng.nextDouble() *
                          std::ldexp(1.0, static_cast<int>(
                                              rng.nextRange(40)) - 20));
    constexpr uint64_t kMax = uint64_t(1) << 21;
    for (const double c : charges) {
        EXPECT_EQ(bits(repeatedSum(c, 0)), bits(0.0));
        double s = 0.0;
        for (uint64_t n = 1; n <= kMax; ++n) {
            s += c;
            if (n > 4096 && n % 997 != 0 && n != kMax)
                continue;
            ASSERT_EQ(bits(repeatedSum(c, n)), bits(s))
                << "c=" << c << " n=" << n;
        }
    }
    EXPECT_EQ(bits(repeatedSum(0.0, 12345)), bits(0.0));
}

/**
 * The per-record core model the counting one replaces: every
 * instruction adds its constants, each event its charge, in the
 * fused step's order. The counting model is driven the way the shared
 * half drives it (SharedSystem::charge on event records only, then
 * harvest), so the outcome byte's encoding is checked too.
 */
class PerRecordReference
{
  public:
    explicit PerRecordReference(const CoreModelParams &p) : p_(p) {}

    void
    onInstruction()
    {
        td_.retiring += 1.0;
        td_.frontendBandwidth += p_.tweaks.feBwSlotsPerInstr;
        td_.backendCore += p_.tweaks.beCoreSlotsPerInstr;
    }

    void
    onBranchMispredict()
    {
        td_.badSpeculation += p_.width * p_.bpPenaltyCycles;
    }

    void
    onInstrFetch(HitLevel level)
    {
        if (level == HitLevel::L1)
            return;
        td_.frontendLatency +=
            p_.width * p_.cycles(levelNs(level)) * p_.feExposure;
    }

    void
    onDataAccess(HitLevel level)
    {
        if (level == HitLevel::L1)
            return;
        if (level == HitLevel::L2) {
            td_.backendMemory += p_.width * p_.cycles(p_.l2HitNs) *
                p_.tweaks.l2Exposure;
            return;
        }
        td_.backendMemory += p_.width * p_.cycles(levelNs(level)) *
            p_.tweaks.postL2Exposure;
    }

    void
    onTlbWalk()
    {
        td_.backendMemory += p_.width * p_.cycles(p_.tlbWalkNs) *
            p_.tlbWalkExposure;
    }

    void
    onItlbWalk()
    {
        td_.frontendLatency += p_.width * p_.cycles(p_.tlbWalkNs) *
            p_.tlbWalkExposure;
    }

    const TopDown &topDown() const { return td_; }

  private:
    double
    levelNs(HitLevel level) const
    {
        switch (level) {
          case HitLevel::L1: return 0.0;
          case HitLevel::L2: return p_.l2HitNs;
          case HitLevel::L3: return p_.l3HitNs;
          case HitLevel::L4: return p_.l4HitNs;
          case HitLevel::Memory: return p_.memNs + p_.l4MissExtraNs;
        }
        return 0.0;
    }

    CoreModelParams p_;
    TopDown td_;
};

/** What one record asks of the core model. */
struct Rec
{
    bool itlbWalk = false;
    HitLevel fetch = HitLevel::L1;
    bool mispredict = false;
    bool hasData = false;
    bool dtlbWalk = false;
    HitLevel data = HitLevel::L1;

    bool
    event() const
    {
        return itlbWalk || dtlbWalk || fetch != HitLevel::L1 ||
            (hasData && data != HitLevel::L1);
    }
};

/**
 * @p n seeded records. Fetches and data accesses land on every level,
 * with a search-like skew to the L1 when @p events, else always in
 * the L1 with no walks.
 */
std::vector<Rec>
randomStream(uint64_t n, bool events, uint64_t seed)
{
    constexpr HitLevel kLevels[] = {HitLevel::L2, HitLevel::L3,
                                    HitLevel::L4, HitLevel::Memory};
    Rng rng(seed);
    std::vector<Rec> recs(n);
    for (Rec &r : recs) {
        r.mispredict = rng.nextRange(100) < 3;
        r.hasData = rng.nextRange(100) < 40;
        if (!events)
            continue;
        r.itlbWalk = rng.nextRange(1000) < 2;
        r.dtlbWalk = r.hasData && rng.nextRange(100) < 2;
        if (rng.nextRange(100) < 10)
            r.fetch = kLevels[rng.nextRange(4)];
        if (r.hasData && rng.nextRange(100) < 30)
            r.data = kLevels[rng.nextRange(4)];
    }
    return recs;
}

TEST(CoreModel, CountingModelMatchesPerRecordReferenceBitForBit)
{
    CoreModelParams other; // every charge non-dyadic too
    other.width = 6;
    other.freqGhz = 3.1;
    other.l2HitNs = 3.7;
    other.l3HitNs = 17.3;
    other.l4HitNs = 33.3;
    other.memNs = 97.1;
    other.l4MissExtraNs = 2.9;
    other.bpPenaltyCycles = 15.7;
    other.feExposure = 0.113;
    other.tweaks.postL2Exposure = 0.37;
    other.tweaks.l2Exposure = 0.071;
    other.tweaks.feBwSlotsPerInstr = 0.41;
    other.tweaks.beCoreSlotsPerInstr = 0.19;
    other.tlbWalkNs = 51.3;
    other.tlbWalkExposure = 0.61;
    const struct
    {
        const char *name;
        CoreModelParams params;
    } param_sets[] = {{"default", defaultParams()}, {"other", other}};
    const struct
    {
        const char *name;
        uint64_t records;
        bool events;
    } streams[] = {{"random", 150'000, true},
                   {"no-events", 20'000, false},
                   {"empty", 0, true}};

    for (const auto &ps : param_sets) {
        for (const auto &st : streams) {
            SCOPED_TRACE(std::string(ps.name) + " " + st.name);
            const std::vector<Rec> recs =
                randomStream(st.records, st.events, 0x5eed);
            PerRecordReference ref(ps.params);
            SystemConfig cfg;
            cfg.core = ps.params;
            SharedSystem model(cfg);
            uint64_t mispredicts = 0, events = 0, walks[2] = {0, 0};
            uint64_t fetch_levels = 0, data_levels = 0;
            for (const Rec &r : recs) {
                ref.onInstruction();
                if (r.itlbWalk)
                    ref.onItlbWalk();
                ref.onInstrFetch(r.fetch);
                if (r.mispredict)
                    ref.onBranchMispredict();
                if (r.hasData) {
                    if (r.dtlbWalk)
                        ref.onTlbWalk();
                    ref.onDataAccess(r.data);
                }

                // The counting model sees what the private half
                // leaves: the outcome byte of an event record, and the
                // levels the shared levels serve past the L2.
                mispredicts += r.mispredict;
                HitLevel past[2];
                uint32_t npast = 0, used = 0;
                const auto bits_of = [&](HitLevel level) {
                    if (level <= HitLevel::L2)
                        return outcomeBits(level);
                    past[npast++] = level;
                    return outcomeBits(kPastL2);
                };
                uint8_t out = bits_of(r.fetch);
                if (r.hasData)
                    out |= bits_of(r.data) << kOutDataShift;
                if (r.itlbWalk)
                    out |= kOutItlbWalk;
                if (r.dtlbWalk)
                    out |= kOutDtlbWalk;
                ASSERT_EQ(out != 0, r.event());
                if (!out)
                    continue; // charges +0.0 at most
                ++events;
                walks[0] += r.itlbWalk;
                walks[1] += r.dtlbWalk;
                fetch_levels |= 1u << static_cast<int>(r.fetch);
                data_levels |= 1u << static_cast<int>(r.data);
                model.charge(out, [&] { return past[used++]; });
                ASSERT_EQ(used, npast);
            }
            if (st.records && st.events) {
                // Every level on both sides, walks and mispredicts.
                EXPECT_EQ(fetch_levels, 0b111110u);
                EXPECT_EQ(data_levels, 0b111110u);
                EXPECT_GT(mispredicts, 0u);
                EXPECT_GT(walks[0], 0u);
                EXPECT_GT(walks[1], 0u);
            }
            if (!st.events) {
                EXPECT_EQ(events, 0u);
            }

            SystemResult res;
            res.instructions = recs.size();
            res.mispredicts = mispredicts;
            model.harvest(res);
            const TopDown want = ref.topDown();
            const TopDown &got = res.topdown;
            EXPECT_EQ(bits(got.retiring), bits(want.retiring));
            EXPECT_EQ(bits(got.badSpeculation),
                      bits(want.badSpeculation));
            EXPECT_EQ(bits(got.frontendLatency),
                      bits(want.frontendLatency));
            EXPECT_EQ(bits(got.frontendBandwidth),
                      bits(want.frontendBandwidth));
            EXPECT_EQ(bits(got.backendMemory), bits(want.backendMemory));
            EXPECT_EQ(bits(got.backendCore), bits(want.backendCore));
        }
    }
}

} // namespace
} // namespace wsearch
