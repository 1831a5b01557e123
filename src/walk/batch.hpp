/// @file
/// Batched (SIMD) temporal walker engine — N in-flight walkers per
/// thread in struct-of-arrays form.
///
/// The scalar engine advances one walker, one binary search, one RNG
/// draw at a time; the paper's characterization shows that serialized
/// sampling loop dominating end-to-end cost. This module restructures
/// the hot loop around a WalkerBatch of `width` lanes that advance in
/// lockstep: per step, the temporal-suffix search and the prefix-CDF
/// inversion over the transition cache each run as branchless
/// vectorized binary searches across all live lanes (util/simd.hpp),
/// with software prefetch of each lane's neighbor range issued before
/// the searches touch it.
///
/// Reproducibility contract (DESIGN.md §12):
///   - Lanes are fully independent: lane L of a batch covering slots
///     [s, s+width) is exactly slot s+L, seeds its own RNG stream as
///     mix_seed(seed, s+L), and consumes draws only for its own steps.
///     The corpus for a given (config, graph, width) is therefore
///     bit-identical for ANY thread count and ANY grouping of slots.
///   - batch_width == 1 never enters this module; the engine routes it
///     through the unchanged scalar path, byte-identical to the
///     pre-batching engine.
///   - Widths > 1 draw from the same per-step distribution as the
///     scalar sampler but consume the RNG stream differently (exactly
///     one uniform per step with >= 1 candidate, vs. the scalar path's
///     kind-dependent pattern), so corpora across widths agree in law,
///     not byte-for-byte — same contract as the PR-2 cache-on/off
///     divergence, and why batch_width participates in the walk
///     fingerprint (core/checkpoint.cpp).
#pragma once

#include "graph/temporal_graph.hpp"
#include "rng/random.hpp"
#include "walk/config.hpp"
#include "walk/engine.hpp"
#include "walk/transition_cache.hpp"

#include <cstddef>
#include <cstdint>

namespace tgl::walk {

/// Hard cap on lanes per batch (sizes the SoA arrays).
inline constexpr unsigned kMaxBatchWidth = 64;

/// Lanes used when batch_width = 0 (auto) resolves to batched mode.
/// Wide batches win because the lockstep searches interleave one
/// halving step per 4-lane chunk per round: 64 lanes keep up to 16
/// independent gathers in flight, hiding the probe latency that
/// serializes narrow batches (w8 measures *slower* than scalar on
/// R-MAT; w64 is the fastest measured width).
inline constexpr unsigned kAutoBatchWidth = 64;

/// Graphs with >= 2^30 edges fall back to scalar: the AVX2 gather
/// consumes 32-bit signed indices and the timestamp gather doubles the
/// edge index (16-byte Neighbor stride), so 2 * edge_id + 1 must stay
/// below 2^31.
inline constexpr std::uint64_t kMaxBatchedEdges = std::uint64_t{1} << 30;

/// Compile-time selected SIMD backend ("avx2" | "neon" | "scalar").
const char* batch_isa_name();

/// f64 lanes per vector of the selected backend (4 / 2 / 4).
std::size_t batch_f64_lanes();

/// Struct-of-arrays state of up to kMaxBatchWidth in-flight walkers.
/// Arrays the lockstep searches load with SIMD are doubles (indices
/// are exact integers < 2^31) and 64-byte aligned; per-lane bookkeeping
/// the scalar phases touch stays in natural integer types.
struct WalkerBatch
{
    /// Walker clocks (normalized timestamps), one per lane.
    alignas(64) double clock[kMaxBatchWidth] = {};
    /// Lockstep search state: lower bound / remaining length / target.
    alignas(64) double search_lo[kMaxBatchWidth] = {};
    alignas(64) double search_len[kMaxBatchWidth] = {};
    alignas(64) double search_target[kMaxBatchWidth] = {};
    /// Per-step scratch: uniform draw, candidate count, picked index.
    alignas(64) double draw[kMaxBatchWidth] = {};
    alignas(64) double count[kMaxBatchWidth] = {};
    alignas(64) double pick[kMaxBatchWidth] = {};

    /// Current vertex per lane.
    graph::NodeId current[kMaxBatchWidth] = {};
    /// CSR bounds of the lane's temporally-valid suffix.
    std::uint64_t suffix_first[kMaxBatchWidth] = {};
    std::uint64_t slice_end[kMaxBatchWidth] = {};
    /// Tokens emitted so far into the lane's output row.
    std::uint8_t emitted[kMaxBatchWidth] = {};
    /// Lane still walking (not dead-ended, not at max_length).
    bool alive[kMaxBatchWidth] = {};
    /// Per-lane RNG stream, seeded mix_seed(seed, slot).
    rng::Random rng[kMaxBatchWidth];

    /// Live lanes in [0, width); the ragged tail of a slot range may
    /// populate fewer than the configured width.
    unsigned width = 0;
};

/// Resolve the effective lanes-per-batch for one generation run.
/// Returns 1 (scalar path) unless every batching precondition holds:
/// temporal walks, binary neighbor search (the linear-scan ablation
/// pins the paper-faithful scalar loop), a transition cache present
/// for the softmax kinds, and < kMaxBatchedEdges edges. `has_cache`
/// tells the resolver whether the caller holds (or will build) a
/// prefix-CDF cache. batch_width = 0 (auto) resolves to
/// kAutoBatchWidth when eligible.
unsigned resolve_batch_width(const WalkConfig& config,
                             const graph::TemporalGraph& graph,
                             bool has_cache);

/// Slots each batched work item covers, as a multiple of the batch
/// width. Lanes refill from this backlog as their walks retire, so a
/// factor well above 1 keeps occupancy high even when most temporal
/// walks die long before max_length (the refill order cannot change
/// walk bytes — slots are RNG-independent).
inline constexpr std::size_t kBatchRefillFactor = 8;

/// Walk every slot of @p slots with a pool of up to @p width
/// (<= kMaxBatchWidth) lockstep lanes; lanes refill from the range as
/// their walks retire. Slot s writes its tokens into
/// @p rows + (s - slots.begin) * row_stride and its token count into
/// @p lengths[s - slots.begin]. Walks below config.min_walk_tokens
/// are NOT filtered here — the caller compacts, exactly like the
/// scalar block path. @p cache may be null only for kUniform /
/// kLinear.
void run_walk_batch(const graph::TemporalGraph& graph,
                    const WalkConfig& config, const TransitionCache* cache,
                    SlotRange slots, unsigned width, graph::NodeId* rows,
                    std::size_t row_stride, std::uint8_t* lengths,
                    WalkProfile& profile);

/// Log the dispatched SIMD backend once per process through the obs
/// layer (simd.dispatch.<isa> counter + one inform line). Safe to call
/// per generation; only the first call emits.
void log_batch_dispatch(unsigned width);

} // namespace tgl::walk
