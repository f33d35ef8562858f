#include "cpu/core_model.hh"

#include <algorithm>
#include <cmath>

namespace wsearch {

/*
 * While the running sum s lies in one binade [2^e, 2^(e+1)), every
 * add rounds to the grid of u = 2^(e-52): with s = S*u and c = q*u,
 * fl(s + c) = round(S + q)*u as long as S + q < 2^53. Unless q is a
 * tie (an odd multiple of 1/2), round(S + q) = S + round(q): each add
 * adds the same k = round(q) grid units, so a run of them is one
 * exact integer step. On a tie the add rounds to an even S; from an
 * even S every add then adds the even one of floor(q), floor(q) + 1.
 * Only the add that leaves the binade (and one add per tie) is done
 * as a plain add: a few steps per binade, not one per event.
 */
double
repeatedSum(double c, uint64_t n)
{
    double s = 0.0;
    if (c == 0)
        return s;
    while (n > 0) {
        if (!std::isfinite(s))
            return s; // inf or NaN absorbs every further add
        if (!std::isnormal(s)) {
            s += c;
            --n;
            continue;
        }
        const double u = std::ldexp(1.0, std::ilogb(s) - 52);
        const uint64_t big_s = static_cast<uint64_t>(s / u);
        const double q = c / u; // exact: u is a power of two
        const uint64_t floor_q = static_cast<uint64_t>(q);
        const double frac = q - static_cast<double>(floor_q);
        // Adds from big_s + j*k stay in the binade while
        // j*k + floor_q <= room.
        const uint64_t room = (uint64_t(1) << 53) - 1 - big_s;
        if (floor_q > room || (frac == 0.5 && (big_s & 1))) {
            s += c;
            --n;
            continue;
        }
        const uint64_t k = frac == 0.5 ? floor_q + (floor_q & 1)
                                       : floor_q + (frac > 0.5);
        if (k == 0)
            return s; // every add rounds back to s
        const uint64_t t = std::min(n, (room - floor_q) / k + 1);
        s = static_cast<double>(big_s + t * k) * u;
        n -= t;
    }
    return s;
}

} // namespace wsearch
