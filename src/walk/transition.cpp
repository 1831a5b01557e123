#include "walk/transition.hpp"

#include "util/error.hpp"
#include "util/logging.hpp"

#include <cmath>
#include <stdexcept>

namespace tgl::walk {

TransitionKind
parse_transition(const std::string& name)
{
    if (name == "uniform") {
        return TransitionKind::kUniform;
    }
    if (name == "exp") {
        return TransitionKind::kExponential;
    }
    if (name == "exp-decay") {
        return TransitionKind::kExponentialDecay;
    }
    if (name == "linear") {
        return TransitionKind::kLinear;
    }
    util::fatal(util::strcat("unknown transition kind: ", name));
}

const char*
transition_name(TransitionKind kind)
{
    switch (kind) {
      case TransitionKind::kUniform: return "uniform";
      case TransitionKind::kExponential: return "exp";
      case TransitionKind::kExponentialDecay: return "exp-decay";
      case TransitionKind::kLinear: return "linear";
    }
    return "?";
}

namespace {

/// Weighted one-pass reservoir pick over the candidate span with an
/// inlined weight computation (the std::function-based generic sampler
/// in rng/ is too slow for the per-step hot path).
template <typename WeightFn>
std::size_t
pick_weighted(std::span<const graph::Neighbor> candidates,
              const WeightFn& weight_of, rng::Random& random,
              TransitionCost* cost)
{
    double total = 0.0;
    std::size_t choice = candidates.size();
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        const double w = weight_of(candidates[i].time);
        total += w;
        if (random.next_double() * total < w) {
            choice = i;
        }
    }
    if (cost != nullptr) {
        const auto n = static_cast<std::uint64_t>(candidates.size());
        cost->memory_ops += 2 * n;  // timestamp + neighbor-record loads
        cost->compute_ops += 4 * n; // weight + accumulate + draw + scale
        cost->branch_ops += n;      // reservoir replacement test
    }
    return choice;
}

} // namespace

std::size_t
sample_transition(std::span<const graph::Neighbor> candidates,
                  graph::Timestamp now, graph::Timestamp time_range,
                  TransitionKind kind, rng::Random& random,
                  TransitionCost* cost)
{
    const std::size_t n = candidates.size();
    if (n == 0) {
        return 0;
    }
    if (n == 1) {
        if (cost != nullptr) {
            cost->memory_ops += 1;
            cost->branch_ops += 1;
        }
        return 0;
    }
    const double r = time_range > 0.0 ? time_range : 1.0;

    switch (kind) {
      case TransitionKind::kUniform: {
        if (cost != nullptr) {
            cost->compute_ops += 2; // bounded draw
            cost->branch_ops += 1;
        }
        return static_cast<std::size_t>(random.next_index(n));
      }
      case TransitionKind::kExponential: {
        // Candidates are time-sorted, so the max timestamp is last;
        // shifting by it keeps every exponent <= 0 (no overflow).
        const graph::Timestamp t_max = candidates[n - 1].time;
        const std::size_t choice = pick_weighted(
            candidates,
            [&](graph::Timestamp t) { return std::exp((t - t_max) / r); },
            random, cost);
        if (cost != nullptr) {
            // exp() expands to ~10 arithmetic ops plus polynomial
            // constant loads, which MICA's taxonomy counts as memory.
            cost->compute_ops += 8 * n;
            cost->memory_ops += 2 * n;
        }
        TGL_DASSERT(choice < n);
        return choice;
      }
      case TransitionKind::kExponentialDecay: {
        const std::size_t choice = pick_weighted(
            candidates,
            [&](graph::Timestamp t) { return std::exp(-(t - now) / r); },
            random, cost);
        if (cost != nullptr) {
            cost->compute_ops += 8 * n;
            cost->memory_ops += 2 * n;
        }
        TGL_DASSERT(choice < n);
        return choice;
      }
      case TransitionKind::kLinear: {
        // Descending rank by time: soonest valid edge (index 0) gets
        // weight n, the latest gets weight 1.
        double total = 0.0;
        std::size_t choice = n;
        for (std::size_t i = 0; i < n; ++i) {
            const double w = static_cast<double>(n - i);
            total += w;
            if (random.next_double() * total < w) {
                choice = i;
            }
        }
        if (cost != nullptr) {
            const auto count = static_cast<std::uint64_t>(n);
            cost->compute_ops += 3 * count;
            cost->branch_ops += count;
        }
        TGL_DASSERT(choice < n);
        return choice;
      }
    }
    TGL_PANIC("unhandled transition kind");
}

} // namespace tgl::walk
