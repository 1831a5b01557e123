#include "rng/discrete_sampler.hpp"

#include "util/error.hpp"

#include <algorithm>

namespace tgl::rng {

DiscreteSampler::DiscreteSampler(const std::vector<double>& weights)
{
    if (weights.empty()) {
        util::fatal("DiscreteSampler: empty weight vector");
    }
    cdf_.reserve(weights.size());
    double running = 0.0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        if (weights[i] < 0.0) {
            util::fatal("DiscreteSampler: negative weight");
        }
        running += weights[i];
        cdf_.push_back(running);
    }
    if (running <= 0.0) {
        util::fatal("DiscreteSampler: all weights are zero");
    }
}

std::uint32_t
DiscreteSampler::sample(Random& random) const
{
    TGL_DASSERT(!cdf_.empty());
    const double threshold = random.next_double() * cdf_.back();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), threshold);
    const std::size_t index =
        std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                              cdf_.size() - 1);
    return static_cast<std::uint32_t>(index);
}

double
DiscreteSampler::outcome_probability(std::uint32_t i) const
{
    TGL_ASSERT(i < cdf_.size());
    const double prev = i == 0 ? 0.0 : cdf_[i - 1];
    return (cdf_[i] - prev) / cdf_.back();
}

std::size_t
sample_weighted_one_pass(std::size_t n,
                         const std::function<double(std::size_t)>& weight_of,
                         Random& random)
{
    double total = 0.0;
    std::size_t choice = n;
    for (std::size_t i = 0; i < n; ++i) {
        const double w = weight_of(i);
        TGL_DASSERT(w >= 0.0);
        if (w <= 0.0) {
            continue;
        }
        total += w;
        // Keep i with probability w / total: a weighted reservoir of
        // size one, giving each index probability w_i / sum(w).
        if (random.next_double() * total < w) {
            choice = i;
        }
    }
    return choice;
}

std::size_t
sample_weighted_two_pass(std::size_t n,
                         const std::function<double(std::size_t)>& weight_of,
                         Random& random)
{
    double total = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        total += weight_of(i);
    }
    if (total <= 0.0) {
        return n;
    }
    double threshold = random.next_double() * total;
    for (std::size_t i = 0; i < n; ++i) {
        threshold -= weight_of(i);
        if (threshold < 0.0) {
            return i;
        }
    }
    // Floating-point slack: fall back to the last positive weight.
    for (std::size_t i = n; i-- > 0;) {
        if (weight_of(i) > 0.0) {
            return i;
        }
    }
    return n;
}

} // namespace tgl::rng
