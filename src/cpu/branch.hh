/**
 * @file
 * Branch direction prediction: a tournament of a bimodal and a gshare
 * table under a chooser (Alpha 21264-style). Production search's
 * branch MPKI is dominated by data-dependent branches whose outcomes
 * are effectively coin flips; the predictor recovers everything else
 * (loops, biased conditionals), so the calibrated misprediction rate
 * is emergent.
 */

#ifndef WSEARCH_CPU_BRANCH_HH
#define WSEARCH_CPU_BRANCH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/logging.hh"
#include "util/units.hh"

namespace wsearch {

/** Direction predictor interface. */
class BranchPredictor
{
  public:
    virtual ~BranchPredictor() = default;

    /** Predict the direction of the branch at @p pc. */
    virtual bool predict(uint64_t pc) const = 0;

    /** Train with the resolved direction. */
    virtual void update(uint64_t pc, bool taken) = 0;

    virtual std::string name() const = 0;

    /** Predict, train, and return whether the prediction was correct. */
    bool
    predictAndUpdate(uint64_t pc, bool taken)
    {
        const bool predicted = predict(pc);
        update(pc, taken);
        return predicted == taken;
    }
};

/**
 * Chooser-based tournament of a bimodal table (indexed by PC) and a
 * gshare table (PC xor a 12-bit global history). Every counter is a
 * saturating 2-bit counter, packed: one byte holds the bimodal and
 * chooser counters of two entries, which share the PC index, and a
 * second array holds four gshare counters per byte. At 128 Ki
 * entries that is 96 KiB per core, so a 16-core system's 1.5 MiB of
 * tables stays close to the host's caches.
 */
class TournamentPredictor final : public BranchPredictor
{
  public:
    explicit TournamentPredictor(uint32_t entries = 16384)
        : mask_(entries - 1),
          // Bimodal and gshare counters start weakly taken (2, static
          // predict taken). The chooser starts weakly bimodal (1):
          // cold gshare entries are noise until the global history
          // proves itself. Each nibble is bimodal | chooser << 2.
          bimodalChooser_((entries + 1) / 2, 0x66),
          gshare_((entries + 3) / 4, 0xaa)
    {
        wsearch_assert(isPow2(entries));
    }

    bool
    predict(uint64_t pc) const override
    {
        const uint32_t bc = bimodalChooser(pc);
        return (bc >> 2) >= 2 ? gshareCounter(pc) >= 2 : (bc & 3) >= 2;
    }

    void
    update(uint64_t pc, bool taken) override
    {
        const size_t i = (pc >> 2) & mask_;
        const size_t g = ((pc >> 2) ^ ghr_) & mask_;
        uint8_t &bc_byte = bimodalChooser_[i >> 1];
        uint8_t &g_byte = gshare_[g >> 2];
        const uint32_t bc_shift = (i & 1) * 4;
        const uint32_t g_shift = (g & 3) * 2;
        uint32_t b = (bc_byte >> bc_shift) & 3;
        uint32_t c = (bc_byte >> (bc_shift + 2)) & 3;
        uint32_t gc = (g_byte >> g_shift) & 3;

        const bool b_correct = (b >= 2) == taken;
        const bool g_correct = (gc >= 2) == taken;
        if (g_correct && !b_correct && c < 3)
            ++c;
        else if (b_correct && !g_correct && c > 0)
            --c;
        b = train(b, taken);
        gc = train(gc, taken);

        bc_byte = static_cast<uint8_t>(
            (bc_byte & ~(0xfu << bc_shift)) | ((b | c << 2) << bc_shift));
        g_byte = static_cast<uint8_t>((g_byte & ~(3u << g_shift)) |
                                      (gc << g_shift));
        ghr_ = ((ghr_ << 1) | (taken ? 1 : 0)) & kHistMask;
    }

    std::string name() const override { return "tournament"; }

  private:
    static constexpr uint64_t kHistMask = (1ull << 12) - 1;

    static uint32_t
    train(uint32_t counter, bool taken)
    {
        if (taken && counter < 3)
            return counter + 1;
        if (!taken && counter > 0)
            return counter - 1;
        return counter;
    }

    /** The PC's bimodal counter (bits 0-1) and chooser (bits 2-3). */
    uint32_t
    bimodalChooser(uint64_t pc) const
    {
        const size_t i = (pc >> 2) & mask_;
        return (bimodalChooser_[i >> 1] >> ((i & 1) * 4)) & 0xf;
    }

    uint32_t
    gshareCounter(uint64_t pc) const
    {
        const size_t g = ((pc >> 2) ^ ghr_) & mask_;
        return (gshare_[g >> 2] >> ((g & 3) * 2)) & 3;
    }

    size_t mask_;
    std::vector<uint8_t> bimodalChooser_; ///< two entries per byte
    std::vector<uint8_t> gshare_;         ///< four entries per byte
    uint64_t ghr_ = 0;
};

} // namespace wsearch

#endif // WSEARCH_CPU_BRANCH_HH
