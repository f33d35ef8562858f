/**
 * @file
 * Byte-per-counter bimodal, gshare and tournament predictors: the
 * reference that the packed TournamentPredictor must match
 * prediction for prediction, and the component predictors the branch
 * tests exercise on their own.
 */

#ifndef WSEARCH_TESTS_CPU_REFERENCE_PREDICTORS_HH
#define WSEARCH_TESTS_CPU_REFERENCE_PREDICTORS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/branch.hh"

namespace wsearch {

/** Table of saturating 2-bit counters indexed by hashed PC. */
class BimodalPredictor : public BranchPredictor
{
  public:
    explicit BimodalPredictor(uint32_t entries = 16384)
        : table_(entries, 2) // init weakly-taken (static predict-taken)
    {
        wsearch_assert(isPow2(entries));
    }

    bool
    predict(uint64_t pc) const override
    {
        return table_[index(pc)] >= 2;
    }

    void
    update(uint64_t pc, bool taken) override
    {
        uint8_t &c = table_[index(pc)];
        if (taken && c < 3)
            ++c;
        else if (!taken && c > 0)
            --c;
    }

    std::string name() const override { return "bimodal"; }

  private:
    size_t
    index(uint64_t pc) const
    {
        return (pc >> 2) & (table_.size() - 1);
    }

    std::vector<uint8_t> table_;
};

/** Global-history predictor: counters indexed by GHR xor PC. */
class GSharePredictor : public BranchPredictor
{
  public:
    explicit GSharePredictor(uint32_t entries = 16384,
                             uint32_t history_bits = 12)
        : table_(entries, 2), // init weakly-taken
          histMask_((1ull << history_bits) - 1)
    {
        wsearch_assert(isPow2(entries));
    }

    bool
    predict(uint64_t pc) const override
    {
        return table_[index(pc)] >= 2;
    }

    void
    update(uint64_t pc, bool taken) override
    {
        uint8_t &c = table_[index(pc)];
        if (taken && c < 3)
            ++c;
        else if (!taken && c > 0)
            --c;
        ghr_ = ((ghr_ << 1) | (taken ? 1 : 0)) & histMask_;
    }

    std::string name() const override { return "gshare"; }

  private:
    size_t
    index(uint64_t pc) const
    {
        return ((pc >> 2) ^ ghr_) & (table_.size() - 1);
    }

    std::vector<uint8_t> table_;
    uint64_t histMask_;
    uint64_t ghr_ = 0;
};

/** Chooser over a BimodalPredictor and a GSharePredictor, one byte
 *  per counter. */
class ReferenceTournament : public BranchPredictor
{
  public:
    explicit ReferenceTournament(uint32_t entries = 16384)
        : bimodal_(entries), gshare_(entries), chooser_(entries, 1)
    {
        wsearch_assert(isPow2(entries));
    }

    bool
    predict(uint64_t pc) const override
    {
        const bool use_gshare =
            chooser_[(pc >> 2) & (chooser_.size() - 1)] >= 2;
        return use_gshare ? gshare_.predict(pc) : bimodal_.predict(pc);
    }

    void
    update(uint64_t pc, bool taken) override
    {
        const bool b_correct = bimodal_.predict(pc) == taken;
        const bool g_correct = gshare_.predict(pc) == taken;
        uint8_t &c = chooser_[(pc >> 2) & (chooser_.size() - 1)];
        if (g_correct && !b_correct && c < 3)
            ++c;
        else if (b_correct && !g_correct && c > 0)
            --c;
        bimodal_.update(pc, taken);
        gshare_.update(pc, taken);
    }

    std::string name() const override { return "reference tournament"; }

  private:
    BimodalPredictor bimodal_;
    GSharePredictor gshare_;
    std::vector<uint8_t> chooser_;
};

} // namespace wsearch

#endif // WSEARCH_TESTS_CPU_REFERENCE_PREDICTORS_HH
