/// @file
/// The temporal random walk engine — Algorithm 1 of the paper.
///
/// For every vertex v and every walk index k < K, a walker starts at v
/// with clock t = 0 (the earliest normalized timestamp) and repeatedly
/// (1) finds the temporally-valid neighborhood N_u(t), (2) samples the
/// next edge by the configured transition probability, (3) advances its
/// clock to the chosen edge's timestamp — for at most N steps or until
/// N_u(t) is empty. The middle loop (over vertices) is parallelized,
/// matching the paper's empirically best choice (SV-A), with dynamic
/// chunk scheduling to absorb the degree/timestamp load imbalance.
///
/// Determinism: every (k, v) pair derives its own RNG stream from the
/// base seed, so the corpus is bit-identical for any thread count.
#pragma once

#include "graph/temporal_graph.hpp"
#include "walk/config.hpp"
#include "walk/corpus.hpp"
#include "walk/transition.hpp"
#include "walk/transition_cache.hpp"

#include <cstdint>

namespace tgl::walk {

/// Aggregate execution profile of one generate() call, feeding the
/// instruction-mix (Fig. 9) and stall (Fig. 11) models.
struct WalkProfile
{
    std::uint64_t walks_started = 0;
    std::uint64_t walks_kept = 0;      ///< >= min_walk_tokens
    std::uint64_t steps_taken = 0;     ///< edges traversed
    std::uint64_t dead_ends = 0;       ///< empty temporal neighborhood
    std::uint64_t candidates_scanned = 0; ///< neighbor records examined
    std::uint64_t cached_steps = 0;    ///< steps drawn via the cache
    /// Inert (always 0), kept only for the frozen benchmark.
    std::uint64_t batched_steps = 0;
    TransitionCost transition_cost;
};

/// Generate the temporal walk corpus for a graph.
///
/// @param graph    time-sorted CSR temporal graph
/// @param config   walk hyperparameters (K, N, transition, seed, ...)
/// @param profile  optional execution profile accumulator
/// Walks appear in (walk-index, vertex) order regardless of threading.
/// When config.transition_cache resolves on (see use_transition_cache)
/// a prefix-CDF cache is built internally; its build time is part of
/// the walk phase.
Corpus generate_walks(const graph::TemporalGraph& graph,
                      const WalkConfig& config,
                      WalkProfile* profile = nullptr);

/// Same, but the caller supplies the transition cache (e.g. one
/// restored from a checkpoint); pass nullptr to force the direct
/// sampler regardless of config.transition_cache. A non-null cache
/// must have been built for @p graph and config.transition.
Corpus generate_walks(const graph::TemporalGraph& graph,
                      const WalkConfig& config,
                      const TransitionCache* cache, WalkProfile* profile);

} // namespace tgl::walk
