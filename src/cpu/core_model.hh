/**
 * @file
 * Slot-based core performance model with Top-Down accounting
 * (Yasin [60], as used in paper §II-F). An n-wide core has n issue
 * slots per cycle; every slot is attributed to Retiring, Bad
 * Speculation, Front-End (latency / bandwidth), or Back-End (memory /
 * core). The model charges miss events from the functional cache,
 * branch, and TLB simulations with calibrated exposure factors; IPC
 * and the Figure 3 breakdown fall out of the same accounting.
 *
 * The paper's key empirical finding -- IPC is linear in L3 AMAT
 * because search has low memory-level parallelism (§III-D, Eq. 1) --
 * is emergent here: post-L2 data latency has a high exposure factor,
 * so back-end memory slots scale linearly with AMAT.
 */

#ifndef WSEARCH_CPU_CORE_MODEL_HH
#define WSEARCH_CPU_CORE_MODEL_HH

#include <cstddef>
#include <cstdint>

#include "memsim/hierarchy.hh"
#include "trace/profile.hh"

namespace wsearch {

/** Latency and exposure parameters of the core model. */
struct CoreModelParams
{
    uint32_t width = 4;       ///< issue slots per cycle
    double freqGhz = 2.5;

    // Load-to-use latencies beyond the L1 (ns).
    double l2HitNs = 4.8;     ///< ~12 cycles
    double l3HitNs = 23.0;    ///< measured t_L3 in the paper's model
    double l4HitNs = 40.0;    ///< paper's optimized eDRAM L4
    double memNs = 123.0;     ///< measured round-trip t_MEM
    double l4MissExtraNs = 0.0; ///< serialization penalty (pessimistic)

    double bpPenaltyCycles = 13.0; ///< mispredict flush + refill

    /** Fraction of instruction-fetch miss latency exposed. */
    double feExposure = 0.095;

    // Workload-dependent exposures (copied from WorkloadProfile).
    CpuTweaks tweaks;

    double tlbWalkNs = 42.0;
    /** Page walks serialize address translation; far less of their
     *  latency is hidden than for ordinary loads. */
    double tlbWalkExposure = 0.45;

    /** Cycles for a given latency in ns. */
    double
    cycles(double ns) const
    {
        return ns * freqGhz;
    }
};

/** Slot totals per Top-Down category. */
struct TopDown
{
    double retiring = 0;
    double badSpeculation = 0;
    double frontendLatency = 0;
    double frontendBandwidth = 0;
    double backendMemory = 0;
    double backendCore = 0;

    double
    total() const
    {
        return retiring + badSpeculation + frontendLatency +
            frontendBandwidth + backendMemory + backendCore;
    }

    /** Merge another breakdown's slots (sampled-window accumulation). */
    TopDown &
    operator+=(const TopDown &o)
    {
        retiring += o.retiring;
        badSpeculation += o.badSpeculation;
        frontendLatency += o.frontendLatency;
        frontendBandwidth += o.frontendBandwidth;
        backendMemory += o.backendMemory;
        backendCore += o.backendCore;
        return *this;
    }

    bool operator==(const TopDown &) const = default;

    double retiringFrac() const { return retiring / total(); }
    double badSpecFrac() const { return badSpeculation / total(); }
    double feLatFrac() const { return frontendLatency / total(); }
    double feBwFrac() const { return frontendBandwidth / total(); }
    double beMemFrac() const { return backendMemory / total(); }
    double beCoreFrac() const { return backendCore / total(); }
};

/**
 * 0.0 plus @p c (>= 0), @p n times, one rounded add after another:
 * bit for bit the sum that adding @p c once per event reaches, with
 * no dyadic assumption on @p c. A few steps per binade of the sum,
 * not one per add: see core_model.cc.
 */
double repeatedSum(double c, uint64_t n);

/**
 * Top-Down accounting of one run, all threads together. The model is
 * linear: every slot is a count times a constant. Four of the six
 * sums receive a single constant each -- retiring +1 and the
 * front-end bandwidth and back-end core slots per instruction, the
 * flush per mispredict -- so topDown() computes them from those two
 * counts. The front-end latency and back-end memory sums mix
 * per-level constants, and floating-point sums depend on their order,
 * so those two are charged here event by event in record order. An L1
 * hit charges +0.0, which leaves a sum unchanged: a record without a
 * walk or an access past the L1 need not be charged at all.
 */
class CoreModel
{
  public:
    explicit CoreModel(const CoreModelParams &p) : p_(p)
    {
        for (const HitLevel level :
             {HitLevel::L2, HitLevel::L3, HitLevel::L4,
              HitLevel::Memory})
            fetchSlots_[index(level)] =
                p_.width * p_.cycles(levelNs(level)) * p_.feExposure;
        dataSlots_[index(HitLevel::L2)] = p_.width *
            p_.cycles(p_.l2HitNs) * p_.tweaks.l2Exposure;
        for (const HitLevel level :
             {HitLevel::L3, HitLevel::L4, HitLevel::Memory})
            dataSlots_[index(level)] = p_.width *
                p_.cycles(levelNs(level)) * p_.tweaks.postL2Exposure;
        walkSlots_ = p_.width * p_.cycles(p_.tlbWalkNs) *
            p_.tlbWalkExposure;
    }

    /** Charge an instruction fetch serviced at @p level. */
    void
    onInstrFetch(HitLevel level)
    {
        frontendLatency_ += fetchSlots_[index(level)];
    }

    /** Charge a data access serviced at @p level. */
    void
    onDataAccess(HitLevel level)
    {
        backendMemory_ += dataSlots_[index(level)];
    }

    /** Charge a TLB page walk (data side). */
    void onTlbWalk() { backendMemory_ += walkSlots_; }

    /** Charge an instruction-side TLB page walk. */
    void onItlbWalk() { frontendLatency_ += walkSlots_; }

    /**
     * The breakdown of @p instructions instructions, @p mispredicts of
     * them mispredicted branches, with the events charged since the
     * last reset.
     */
    TopDown
    topDown(uint64_t instructions, uint64_t mispredicts) const
    {
        TopDown td;
        // +1.0 per instruction is exact below 2^53.
        td.retiring = static_cast<double>(instructions);
        td.badSpeculation =
            repeatedSum(p_.width * p_.bpPenaltyCycles, mispredicts);
        td.frontendLatency = frontendLatency_;
        td.frontendBandwidth =
            repeatedSum(p_.tweaks.feBwSlotsPerInstr, instructions);
        td.backendMemory = backendMemory_;
        td.backendCore =
            repeatedSum(p_.tweaks.beCoreSlotsPerInstr, instructions);
        return td;
    }

    /** Instructions per cycle of that breakdown. */
    double
    ipc(uint64_t instructions, uint64_t mispredicts) const
    {
        const double c =
            topDown(instructions, mispredicts).total() / p_.width;
        return c > 0 ? static_cast<double>(instructions) / c : 0.0;
    }

    void
    reset()
    {
        frontendLatency_ = 0;
        backendMemory_ = 0;
    }

  private:
    static size_t
    index(HitLevel level)
    {
        return static_cast<size_t>(level);
    }

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
    /** Slots per event, by HitLevel; L1 (and the unused 0) charge 0. */
    double fetchSlots_[6] = {};
    double dataSlots_[6] = {};
    double walkSlots_ = 0;
    double frontendLatency_ = 0;
    double backendMemory_ = 0;
};

} // namespace wsearch

#endif // WSEARCH_CPU_CORE_MODEL_HH
