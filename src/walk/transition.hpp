/// @file
/// Next-edge selection among temporally-valid candidates.
///
/// The candidate span is a time-sorted suffix of a vertex's CSR slice
/// (every edge already satisfies t' > t), so the softmax weights can be
/// stabilized by subtracting the last (= maximum) timestamp before
/// exponentiation.
#pragma once

#include "graph/types.hpp"
#include "rng/random.hpp"
#include "walk/config.hpp"

#include <span>

namespace tgl::walk {

/// Per-call cost accounting for the instruction-mix study (Fig. 9).
/// Incremented by sample_transition when non-null; the counts follow
/// the kernel's actual data touches and arithmetic, categorized with
/// the MICA taxonomy the paper uses (memory / branch / compute).
struct TransitionCost
{
    std::uint64_t memory_ops = 0;
    std::uint64_t branch_ops = 0;
    std::uint64_t compute_ops = 0;
};

/// Pick the index of the next edge within @p candidates according to
/// the transition model. @p now is the walker's clock and @p time_range
/// the graph's total timespan (the r of Eq. 1; 0 is treated as 1).
/// Returns candidates.size() if candidates is empty.
std::size_t sample_transition(std::span<const graph::Neighbor> candidates,
                              graph::Timestamp now,
                              graph::Timestamp time_range,
                              TransitionKind kind, rng::Random& random,
                              TransitionCost* cost = nullptr);

} // namespace tgl::walk
