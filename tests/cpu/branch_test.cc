#include <gtest/gtest.h>

#include <vector>

#include "cpu/branch.hh"
#include "reference_predictors.hh"
#include "util/rng.hh"

namespace wsearch {
namespace {

TEST(Bimodal, LearnsAlwaysTaken)
{
    BimodalPredictor p;
    const uint64_t pc = 0x400100;
    for (int i = 0; i < 10; ++i)
        p.update(pc, true);
    EXPECT_TRUE(p.predict(pc));
}

TEST(Bimodal, LearnsStrongBias)
{
    BimodalPredictor p;
    Rng rng(1);
    const uint64_t pc = 0x400200;
    int correct = 0;
    const int n = 10000;
    for (int i = 0; i < n; ++i) {
        const bool taken = rng.nextBool(0.9);
        if (p.predictAndUpdate(pc, taken))
            ++correct;
    }
    EXPECT_GT(static_cast<double>(correct) / n, 0.85);
}

TEST(Bimodal, CannotLearnAlternating)
{
    BimodalPredictor p;
    const uint64_t pc = 0x400300;
    int correct = 0;
    for (int i = 0; i < 1000; ++i)
        if (p.predictAndUpdate(pc, i % 2 == 0))
            ++correct;
    EXPECT_LT(correct, 600);
}

TEST(GShare, LearnsAlternatingViaHistory)
{
    GSharePredictor p;
    const uint64_t pc = 0x400400;
    int correct = 0;
    const int n = 2000;
    for (int i = 0; i < n; ++i)
        if (p.predictAndUpdate(pc, i % 2 == 0))
            ++correct;
    // After warmup the pattern is fully predictable from history.
    EXPECT_GT(static_cast<double>(correct) / n, 0.9);
}

TEST(GShare, LearnsPeriodicPattern)
{
    GSharePredictor p;
    const uint64_t pc = 0x400500;
    int correct = 0;
    const int n = 4000;
    for (int i = 0; i < n; ++i)
        if (p.predictAndUpdate(pc, i % 4 != 3))
            ++correct;
    EXPECT_GT(static_cast<double>(correct) / n, 0.85);
}

TEST(Tournament, AtLeastAsGoodAsComponentsOnMix)
{
    // Mixed workload: some biased branches (bimodal-friendly), some
    // pattern branches (gshare-friendly).
    auto run = [](BranchPredictor &p) {
        Rng rng(5);
        int correct = 0;
        const int n = 40000;
        for (int i = 0; i < n; ++i) {
            const uint64_t pc = 0x400000 + (i % 16) * 64;
            bool taken;
            if (i % 16 < 8)
                taken = rng.nextBool(0.95); // biased
            else
                taken = (i / 16) % 2 == 0; // alternating per branch
            if (p.predictAndUpdate(pc, taken))
                ++correct;
        }
        return static_cast<double>(correct) / n;
    };
    BimodalPredictor bi;
    GSharePredictor gs;
    TournamentPredictor tour;
    const double a_bi = run(bi);
    const double a_tour = run(tour);
    EXPECT_GE(a_tour, a_bi - 0.02);
    EXPECT_GT(a_tour, 0.85);
}

TEST(AllPredictors, RandomBranchesNearCoinFlip)
{
    // Data-dependent branches (the paper's misprediction source) are
    // irreducible: every predictor lands near 50%.
    auto run = [](BranchPredictor &p, uint64_t seed) {
        Rng rng(seed);
        int correct = 0;
        const int n = 50000;
        for (int i = 0; i < n; ++i) {
            const uint64_t pc = 0x400000 + (i % 64) * 16;
            if (p.predictAndUpdate(pc, rng.nextBool(0.5)))
                ++correct;
        }
        return static_cast<double>(correct) / n;
    };
    BimodalPredictor bi;
    GSharePredictor gs;
    TournamentPredictor tour;
    EXPECT_NEAR(run(bi, 1), 0.5, 0.05);
    EXPECT_NEAR(run(gs, 2), 0.5, 0.05);
    EXPECT_NEAR(run(tour, 3), 0.5, 0.05);
}

class PackedTournament : public ::testing::TestWithParam<uint32_t>
{
};

// The packed tables must predict exactly what one byte per counter
// predicts, at every step of seeded streams that drive each counter
// through all four states: biased, periodic and coin-flip branch
// sites drawn from a PC range that wraps the table four times (so the
// small tables alias), plus a probe at a fresh PC each step.
TEST_P(PackedTournament, MatchesByteReferenceOnEveryPrediction)
{
    const uint32_t entries = GetParam();
    for (const uint64_t seed : {1ull, 2ull, 3ull}) {
        TournamentPredictor packed(entries);
        ReferenceTournament ref(entries);
        Rng rng(seed);
        const uint64_t pc_span = 16ull * entries + 64;
        std::vector<uint64_t> pcs(512);
        for (uint64_t &pc : pcs)
            pc = 0x400000 + rng.nextRange(pc_span);
        std::vector<uint32_t> visits(pcs.size(), 0);
        for (int i = 0; i < 100000; ++i) {
            const size_t site = rng.nextRange(pcs.size());
            const uint64_t pc = pcs[site];
            const uint32_t visit = visits[site]++;
            bool taken;
            switch (site % 4) {
            case 0:
                taken = rng.nextBool(0.95);
                break;
            case 1:
                taken = rng.nextBool(0.05);
                break;
            case 2:
                taken = visit % 3 != 2;
                break;
            default:
                taken = rng.nextBool(0.5);
                break;
            }
            ASSERT_EQ(packed.predict(pc), ref.predict(pc))
                << "entries " << entries << " seed " << seed
                << " step " << i;
            packed.update(pc, taken);
            ref.update(pc, taken);
            const uint64_t probe = 0x400000 + rng.nextRange(pc_span);
            ASSERT_EQ(packed.predict(probe), ref.predict(probe))
                << "entries " << entries << " seed " << seed
                << " probe after step " << i;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Entries, PackedTournament,
                         ::testing::Values(1u, 2u, 4u, 4096u, 1u << 17));

TEST(Predictors, Names)
{
    EXPECT_EQ(BimodalPredictor().name(), "bimodal");
    EXPECT_EQ(GSharePredictor().name(), "gshare");
    EXPECT_EQ(TournamentPredictor().name(), "tournament");
}

} // namespace
} // namespace wsearch
