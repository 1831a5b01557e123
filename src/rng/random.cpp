#include "rng/random.hpp"

#include "util/error.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

namespace tgl::rng {

std::int64_t
Random::next_int(std::int64_t lo, std::int64_t hi)
{
    TGL_DASSERT(lo <= hi);
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
    if (span == 0) {
        // Full 64-bit range.
        return static_cast<std::int64_t>(engine_());
    }
    return lo + static_cast<std::int64_t>(next_index(span));
}

double
Random::next_double(double lo, double hi)
{
    return lo + (hi - lo) * next_double();
}

float
Random::next_float()
{
    return static_cast<float>(engine_() >> 40) * 0x1.0p-24f;
}

bool
Random::next_bernoulli(double p)
{
    return next_double() < p;
}

double
Random::next_gaussian()
{
    if (has_cached_gaussian_) {
        has_cached_gaussian_ = false;
        return cached_gaussian_;
    }
    double u1;
    do {
        u1 = next_double();
    } while (u1 <= 0.0);
    const double u2 = next_double();
    const double radius = std::sqrt(-2.0 * std::log(u1));
    const double angle = 2.0 * M_PI * u2;
    cached_gaussian_ = radius * std::sin(angle);
    has_cached_gaussian_ = true;
    return radius * std::cos(angle);
}

double
Random::next_exponential(double rate)
{
    TGL_DASSERT(rate > 0.0);
    double u;
    do {
        u = next_double();
    } while (u <= 0.0);
    return -std::log(u) / rate;
}

std::vector<std::uint64_t>
Random::sample_without_replacement(std::uint64_t n, std::uint64_t k)
{
    TGL_ASSERT(k <= n);
    // Floyd's algorithm: k set insertions independent of n.
    std::unordered_set<std::uint64_t> chosen;
    chosen.reserve(static_cast<std::size_t>(k) * 2);
    std::vector<std::uint64_t> result;
    result.reserve(static_cast<std::size_t>(k));
    for (std::uint64_t j = n - k; j < n; ++j) {
        const std::uint64_t t = next_index(j + 1);
        if (chosen.insert(t).second) {
            result.push_back(t);
        } else {
            chosen.insert(j);
            result.push_back(j);
        }
    }
    return result;
}

} // namespace tgl::rng
