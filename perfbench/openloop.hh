/**
 * @file
 * Open-loop load helpers of the serving workloads: a Poisson send
 * schedule, what one fixed-rate step observed, and the max-rate
 * estimate over a fixed ladder of offered rates.
 *
 * Requests are timed from their *due* time, not from when the
 * generator got around to sending them, so a stall of the program
 * shows up as latency of every request it delayed. The generator spins
 * to each send time and records how late it sent for reasons of its
 * own; a step where it ran late is flagged, never dropped.
 */

#ifndef WSEARCH_PERFBENCH_OPENLOOP_HH
#define WSEARCH_PERFBENCH_OPENLOOP_HH

#include <cmath>
#include <cstdint>
#include <vector>

#include "bench.hh"
#include "util/rng.hh"

namespace wsbench {

/** Poisson arrivals at a fixed rate from a seeded stream. */
class Schedule
{
  public:
    Schedule(uint64_t seed, double rate, uint64_t start_ns)
        : rng_(seed), gapNs_(1e9 / rate), due_(start_ns)
    {
    }

    /** The next due time (ns). */
    uint64_t
    next()
    {
        // Exponential gap; 1 - U in (0, 1] avoids log(0).
        const double u = 1.0 - rng_.nextDouble();
        due_ += static_cast<uint64_t>(-std::log(u) * gapNs_);
        return due_;
    }

    double gapNs() const { return gapNs_; }

  private:
    wsearch::Rng rng_;
    double gapNs_;
    uint64_t due_;
};

/** The SLO a step is judged by. */
struct Slo
{
    double p99Us = 5000;
    double maxFailFrac = 0.01;
};

/** What one fixed-rate step observed, in send order. */
struct StepStats
{
    double rate = 0;     ///< offered rate (1/s)
    uint64_t sent = 0;   ///< requests sent
    uint64_t failed = 0; ///< shed, refused, expired or failed
    /** Due -> completion (us) of the requests that succeeded. */
    std::vector<double> latUs;
    /** Generator lateness per send (us): how long after it could have
     *  sent (the due time, or the end of the previous submit when that
     *  came later) it actually did. Time the program spent admitting
     *  the previous request is in the latency, not in here. */
    std::vector<double> lateUs;
    std::vector<double> backlog; ///< requests outstanding at each send

    double failFrac() const;
    double p50Us() const;
    double p99Us() const;
    /** Did the backlog grow over the step (last vs second quarter)? */
    bool backlogGrew() const;
    /** Was the generator itself late (p99 lateness over 100 us)? */
    bool late() const;
};

/** One offered rate over the rounds of a run. */
struct RateSteps
{
    double rate = 0;
    std::vector<StepStats> steps; ///< one per round

    /** Medians over the rounds of each step's p50 / p99. */
    double p50Us() const;
    double p99Us() const;
    /** Failures over all rounds, and a majority of rounds growing. */
    bool meets(const Slo &slo) const;
    uint64_t lateSteps() const;
    /** One summary line. */
    void print(const char *what, const Slo &slo) const;
};

/**
 * Highest offered rate that meets @p slo on the fixed ladder
 * @p ladder (ascending): below the lowest rate that fails, with the
 * crossing of p99 and the SLO interpolated geometrically between it
 * and the rate below. The lowest rate when even that one fails, the
 * highest when none does.
 */
double maxRateAtSlo(const std::vector<RateSteps> &ladder, const Slo &slo);

} // namespace wsbench

#endif // WSEARCH_PERFBENCH_OPENLOOP_HH
