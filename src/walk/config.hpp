/// @file
/// Configuration of the temporal random walk kernel (Algorithm 1).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace tgl::walk {

/// Transition probability used to pick the next temporally-valid edge.
enum class TransitionKind
{
    /// Uniform over N_u(t): p(v|u) = 1 / |N_u(t)| (SIV-A.1).
    kUniform,
    /// Softmax over raw edge timestamps, Eq. 1 of the paper:
    /// Pr[v|u] = exp(tau(u,v)/r) / sum_i exp(tau(u,i)/r).
    kExponential,
    /// Recency-favoring softmax: exp(-(tau - t_now)/r), weighting edges
    /// that occur soonest after the walker's clock — the "temporal
    /// continuity" motivation of Fig. 2 stated as a decay.
    kExponentialDecay,
    /// CTDNE-style linear bias: weight proportional to the descending
    /// rank of the edge among valid candidates ordered by time (soonest
    /// edge gets the largest weight). No transcendentals — the cheap
    /// point in the sampling-cost ablation.
    kLinear,
};

/// Parse a transition name: "uniform", "exp", "exp-decay", "linear".
TransitionKind parse_transition(const std::string& name);

/// Human-readable transition name.
const char* transition_name(TransitionKind kind);

/// Whether walk steps draw from the precomputed prefix-CDF transition
/// cache (walk/transition_cache.hpp) instead of the direct O(degree)
/// reservoir scan. Both samplers draw from the same distribution, but
/// they consume the per-step RNG stream differently (one draw vs one
/// per candidate), so switching modes legitimately changes which
/// corpus a seed produces.
enum class TransitionCacheMode
{
    kOff,  ///< always the direct O(d) sampler
    kOn,   ///< always the cached sampler
    kAuto, ///< cached when the graph's mean degree makes it profitable
};

/// Parse a cache mode name: "off", "on", "auto".
TransitionCacheMode parse_transition_cache_mode(const std::string& name);

/// Human-readable cache mode name.
const char* transition_cache_mode_name(TransitionCacheMode mode);

/// Where walks begin.
enum class StartKind
{
    /// K walks from every vertex, clock starting at the earliest
    /// timestamp — Algorithm 1 of the paper.
    kEveryNode,
    /// Walks begin on uniformly sampled temporal edges (u, v, t): the
    /// walk emits [u, v] and continues from v with clock t. This is
    /// CTDNE's edge-sampled initialization; it weights busy regions of
    /// the graph by their activity instead of uniformly by vertex.
    kTemporalEdge,
};

/// Hyperparameters of the walk kernel. Defaults are the paper's optimal
/// operating point (SVII-A): K = 10 walks per node, length N = 6.
struct WalkConfig
{
    /// K — walks started from every vertex.
    unsigned walks_per_node = 10;
    /// N — maximum steps per walk (a walk emits <= N + 1 node tokens).
    unsigned max_length = 6;
    /// Transition probability model.
    TransitionKind transition = TransitionKind::kExponential;
    /// Walk start policy.
    StartKind start = StartKind::kEveryNode;
    /// Enforce temporal validity. When false the walker ignores
    /// timestamps entirely and hops uniformly over all out-neighbors —
    /// the DeepWalk-style *static* baseline used by the temporal-vs-
    /// static ablation (the transition model is ignored in this mode).
    bool temporal = true;
    /// Require strictly increasing timestamps (Definition III.2); false
    /// allows equal consecutive stamps (CTDNE's non-strict variant).
    bool strict_time = true;
    /// Use the paper's original O(max-degree) linear neighbor scan
    /// instead of binary search on the time-sorted slice (ablation).
    bool linear_neighbor_search = false;
    /// Prefix-CDF transition cache policy (see TransitionCacheMode).
    TransitionCacheMode transition_cache = TransitionCacheMode::kAuto;
    /// Walks shorter than this many nodes are dropped from the corpus
    /// (a single-token walk carries no skip-gram signal).
    unsigned min_walk_tokens = 2;
    /// Inert (nothing reads it), kept only for the frozen benchmark.
    unsigned batch_width = 1;
    /// Base seed; each (walk, vertex) pair derives its own stream, so
    /// output is identical regardless of thread schedule.
    std::uint64_t seed = 1;
    /// Team size for the parallel middle loop (0 = default threads).
    unsigned num_threads = 0;

    /// All configuration problems, empty when the config is usable.
    /// Collects every diagnostic (not just the first) so a user fixes
    /// one round of mistakes, not one mistake per run.
    std::vector<std::string>
    validate() const
    {
        std::vector<std::string> problems;
        if (walks_per_node == 0) {
            problems.push_back("walks_per_node must be >= 1");
        }
        if (max_length == 0) {
            problems.push_back("max_length must be >= 1");
        }
        if (max_length > 254) {
            // The engine stores each walk's token count in one byte.
            problems.push_back("max_length must be <= 254");
        }
        if (min_walk_tokens > max_length + 1) {
            problems.push_back(
                "min_walk_tokens (" + std::to_string(min_walk_tokens) +
                ") exceeds the maximum walk token count (max_length + 1 = " +
                std::to_string(max_length + 1) +
                ") — every walk would be dropped");
        }
        return problems;
    }
};

} // namespace tgl::walk
