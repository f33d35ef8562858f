#include "openloop.hh"

#include <algorithm>
#include <cstdio>

namespace wsbench {

namespace {

/** Generator lateness above which a step is flagged (us, at p99). */
constexpr double kLateFlagUs = 100;
/** Backlog growth tolerated over a step (requests), beyond doubling. */
constexpr double kBacklogSlack = 4;

/** Requests sent and failed, and steps whose backlog grew. */
struct Totals
{
    uint64_t sent = 0, failed = 0, grew = 0;
};

Totals
totals(const std::vector<StepStats> &steps)
{
    Totals t;
    for (const StepStats &st : steps) {
        t.sent += st.sent;
        t.failed += st.failed;
        t.grew += st.backlogGrew() ? 1 : 0;
    }
    return t;
}

} // namespace

double
StepStats::failFrac() const
{
    return sent ? static_cast<double>(failed) / static_cast<double>(sent)
                : 1.0;
}

double
StepStats::p50Us() const
{
    std::vector<double> v = latUs;
    return quantile(v, 0.5);
}

double
StepStats::p99Us() const
{
    std::vector<double> v = latUs;
    return quantile(v, 0.99);
}

bool
StepStats::backlogGrew() const
{
    // Medians, so one stall's spike does not read as growth; the first
    // quarter is left out because every step starts from an empty pool.
    const size_t q = backlog.size() / 4;
    if (q == 0)
        return false;
    const double early = median(
        std::vector<double>(backlog.begin() + q, backlog.begin() + 2 * q));
    const double late = median(
        std::vector<double>(backlog.begin() + 3 * q, backlog.end()));
    return late > 2 * early + kBacklogSlack;
}

bool
StepStats::late() const
{
    std::vector<double> v = lateUs;
    return quantile(v, 0.99) > kLateFlagUs;
}

double
RateSteps::p50Us() const
{
    std::vector<double> v;
    for (const StepStats &st : steps)
        v.push_back(st.p50Us());
    return median(v);
}

double
RateSteps::p99Us() const
{
    std::vector<double> v;
    for (const StepStats &st : steps)
        v.push_back(st.p99Us());
    return median(v);
}

bool
RateSteps::meets(const Slo &slo) const
{
    const Totals t = totals(steps);
    return p99Us() <= slo.p99Us &&
        static_cast<double>(t.failed) <=
        slo.maxFailFrac * static_cast<double>(t.sent) &&
        2 * t.grew <= steps.size();
}

uint64_t
RateSteps::lateSteps() const
{
    return static_cast<uint64_t>(
        std::count_if(steps.begin(), steps.end(),
                      [](const StepStats &st) { return st.late(); }));
}

void
RateSteps::print(const char *what, const Slo &slo) const
{
    const Totals t = totals(steps);
    std::printf("  %-8s %7.0f/s %2zu steps sent %6llu failed %4llu "
                "p50 %8.1f us p99 %8.1f us  backlog grew %llu  late %llu  "
                "%s\n",
                what, rate, steps.size(),
                static_cast<unsigned long long>(t.sent),
                static_cast<unsigned long long>(t.failed), p50Us(), p99Us(),
                static_cast<unsigned long long>(t.grew),
                static_cast<unsigned long long>(lateSteps()),
                meets(slo) ? "meets SLO" : "misses SLO");
}

double
maxRateAtSlo(const std::vector<RateSteps> &ladder, const Slo &slo)
{
    size_t fail = 0;
    while (fail < ladder.size() && ladder[fail].meets(slo))
        ++fail;
    if (fail == 0 || fail == ladder.size())
        return ladder[fail == 0 ? 0 : fail - 1].rate;
    const RateSteps &pass = ladder[fail - 1], &miss = ladder[fail];
    // Where log p99 reaches the SLO on the line through both rates'
    // log p99 (geometric in rate). A rate that misses on failures or
    // backlog alone, with its p99 within the SLO, gives the rate below.
    if (miss.p99Us() <= slo.p99Us)
        return pass.rate;
    const double lo = std::log(pass.p99Us()), hi = std::log(miss.p99Us());
    const double t = (std::log(slo.p99Us) - lo) / (hi - lo);
    return pass.rate * std::pow(miss.rate / pass.rate, t);
}

} // namespace wsbench
