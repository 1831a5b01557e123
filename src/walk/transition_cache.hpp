/// @file
/// Prefix-CDF transition cache — O(log d) softmax draws on the walk
/// hot path.
///
/// sample_transition pays an O(degree) scan with one exp() and one RNG
/// draw per candidate on every single walk step; the paper's
/// characterization (Fig. 9, Table 3) shows that scan dominating
/// end-to-end time. Both softmax kinds factorize:
///
///   exp((t - t_max)/r)        depends only on the edge (kExponential)
///   exp(-(t - now)/r)
///     = exp(-t/r) * exp(now/r)
///
/// and the now-dependent factor is constant across the candidate set,
/// so it cancels under normalization. Every temporally-valid candidate
/// set is a *suffix* of a vertex's time-sorted CSR slice, which means
/// one per-vertex prefix-sum array over edge weights answers every
/// possible query: the suffix total is a subtraction of two prefix
/// values and the draw is a binary search — one RNG call, no exp().
///
/// Overflow safety: weights are computed in log-space shifted by the
/// slice extreme (last timestamp for kExponential, first for
/// kExponentialDecay), so with r equal to the graph's full timespan
/// every exponent lies in [-1, 0] and the summed weights in
/// [e^-1, 1] — no overflow, no underflow, and prefix subtraction stays
/// well-conditioned even for raw epoch-second timestamps that would
/// overflow a naive exp(t/r).
///
/// kUniform needs no table (a bounded draw) and kLinear's descending-
/// rank CDF has a closed form evaluated inside the binary search, so
/// neither stores per-edge state; the cache still serves them so one
/// code path covers every TransitionKind.
///
/// The structure is immutable after build() and safe to share across
/// walker threads. It round-trips through the checksummed artifact
/// container (util/artifact_io) so checkpointed pipelines resume
/// without recomputing it.
#pragma once

#include "graph/temporal_graph.hpp"
#include "rng/random.hpp"
#include "walk/config.hpp"
#include "walk/transition.hpp"

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

namespace tgl::walk {

/// Per-vertex prefix-CDF tables for one TransitionKind on one graph.
class TransitionCache
{
  public:
    TransitionCache() = default;

    /// Precompute the per-vertex prefix CDFs (parallel over vertices).
    /// The cache binds to @p graph's CSR layout and timestamp span;
    /// sampling against any other graph is undefined.
    static TransitionCache build(const graph::TemporalGraph& graph,
                                 TransitionKind kind,
                                 unsigned num_threads = 0);

    /// True until build() or load_binary() populates the cache.
    bool empty() const { return num_nodes_ == 0 && num_edges_ == 0; }

    TransitionKind kind() const { return kind_; }

    /// Heap bytes held by the prefix tables (the memory-cost model:
    /// 8 bytes per edge for the softmax kinds, 0 otherwise).
    std::size_t
    memory_bytes() const
    {
        return prefix_.size() * sizeof(double);
    }

    /// One-time build cost in the MICA taxonomy, for honest Fig. 9
    /// accounting: the cached walk moves the exp() work from every
    /// step into this precompute.
    TransitionCost build_cost() const;

    /// Drop-in replacement for sample_transition. @p candidates must
    /// be the temporally-valid suffix of @p u's CSR slice in @p graph
    /// (exactly what TemporalGraph::temporal_neighbors returns), and
    /// @p graph must be the graph this cache was built for. @p now is
    /// only used by the direct-sampler fallback taken when the prefix
    /// difference degenerates numerically (non-finite or non-positive
    /// suffix mass). Returns candidates.size() if candidates is empty.
    std::size_t sample(const graph::TemporalGraph& graph, graph::NodeId u,
                       std::span<const graph::Neighbor> candidates,
                       graph::Timestamp now, rng::Random& random,
                       TransitionCost* cost = nullptr) const;

    /// Serialize into the checksummed artifact container.
    void save_binary(std::ostream& out, std::uint64_t fingerprint) const;
    void save_binary_file(const std::string& path,
                          std::uint64_t fingerprint) const;

    /// Parse + validate a cache artifact; throws tgl::util::Error on
    /// corruption or version mismatch. @p fingerprint receives the
    /// stored dependency fingerprint when non-null.
    static TransitionCache load_binary(std::istream& in,
                                       std::uint64_t* fingerprint = nullptr);
    static TransitionCache load_binary_file(
        const std::string& path, std::uint64_t* fingerprint = nullptr);

  private:
    TransitionKind kind_ = TransitionKind::kUniform;
    /// Effective r of Eq. 1 (the graph's timespan; 0 treated as 1).
    double rate_scale_ = 1.0;
    std::uint64_t num_nodes_ = 0;
    std::uint64_t num_edges_ = 0;
    /// Per-edge prefix sums of shifted softmax weights, restarting at
    /// every vertex slice; empty for kUniform / kLinear.
    std::vector<double> prefix_;
};

/// Mean degree at or above which kAuto enables the cache: below this
/// the O(d) scan is already cheap and the table's memory (8 B/edge)
/// plus build pass are not worth amortizing.
inline constexpr double kTransitionCacheAutoMeanDegree = 8.0;

/// Resolve @p mode against @p graph: kOn/kOff are forced; kAuto
/// enables the cache for temporal walks with a non-uniform transition
/// on graphs whose mean degree reaches kTransitionCacheAutoMeanDegree.
bool use_transition_cache(const WalkConfig& config,
                          const graph::TemporalGraph& graph);

} // namespace tgl::walk
