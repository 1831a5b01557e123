#include "walk/engine.hpp"

#include "obs/metrics.hpp"
#include "walk/batch.hpp"
#include "obs/perf_events.hpp"
#include "obs/trace.hpp"
#include "rng/splitmix64.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/parallel_for.hpp"
#include "util/rank_slots.hpp"

#include <algorithm>
#include <vector>

namespace tgl::walk {

namespace {

/// Continue a walk from @p current with clock @p now, appending up to
/// @p steps_budget more tokens to @p tokens (which already holds
/// @p count tokens). @p allow_first_nonstrict relaxes the very first
/// comparison so a walker starting at the earliest timestamp can leave.
/// Returns the new token count.
std::size_t
continue_walk(const graph::TemporalGraph& graph, const WalkConfig& config,
              const TransitionCache* cache, graph::NodeId current,
              graph::Timestamp now, unsigned steps_budget,
              bool allow_first_nonstrict, rng::Random& random,
              graph::NodeId* tokens, std::size_t count,
              std::vector<std::uint32_t>& scratch,
              WalkProfile& local_profile)
{
    const graph::Timestamp range = graph.time_range();
    bool first_hop = allow_first_nonstrict;
    for (unsigned step = 0; step < steps_budget; ++step) {
        std::span<const graph::Neighbor> candidates;
        if (!config.temporal) {
            // Static (DeepWalk) baseline: every out-edge is valid.
            candidates = graph.out_neighbors(current);
            local_profile.candidates_scanned += 1;
        } else if (config.linear_neighbor_search) {
            // Ablation path: the paper's O(max-degree) scan. The valid
            // edges are still a suffix (slices are time-sorted), so the
            // scratch indices collapse back into a span.
            const bool strict = config.strict_time && !first_hop;
            const std::size_t valid = graph.temporal_neighbors_linear(
                current, now, strict, scratch);
            const auto all = graph.out_neighbors(current);
            local_profile.candidates_scanned += all.size();
            candidates = valid == 0
                             ? all.subspan(all.size())
                             : all.subspan(scratch.front());
        } else {
            const bool strict = config.strict_time && !first_hop;
            candidates = graph.temporal_neighbors(current, now, strict);
            // Binary search touches ~log2(deg) records.
            std::uint64_t deg = graph.out_degree(current);
            std::uint64_t probes = 1;
            while (deg > 1) {
                deg >>= 1;
                ++probes;
            }
            local_profile.candidates_scanned += probes;
        }
        if (candidates.empty()) {
            ++local_profile.dead_ends;
            break;
        }
        const TransitionKind transition =
            config.temporal ? config.transition : TransitionKind::kUniform;
        TransitionCost* step_cost = &local_profile.transition_cost;
        std::size_t pick;
        if (cache != nullptr && config.temporal) {
            // Shared read-only prefix-CDF draw: one RNG call plus a
            // binary search instead of the O(d) exp-scan.
            pick = cache->sample(graph, current, candidates, now, random,
                                 step_cost);
            ++local_profile.cached_steps;
        } else {
            pick = sample_transition(candidates, now, range, transition,
                                     random, step_cost);
        }
        TGL_DASSERT(pick < candidates.size());
        now = candidates[pick].time;
        current = candidates[pick].dst;
        tokens[count++] = current;
        first_hop = false;
        ++local_profile.steps_taken;
    }
    return count;
}

/// Walk a single (k, v) pair (node-start policy) into @p tokens.
std::size_t
run_node_start_walk(const graph::TemporalGraph& graph,
                    const WalkConfig& config, const TransitionCache* cache,
                    graph::NodeId start, rng::Random& random,
                    graph::NodeId* tokens,
                    std::vector<std::uint32_t>& scratch,
                    WalkProfile& local_profile)
{
    std::size_t count = 0;
    tokens[count++] = start;
    return continue_walk(graph, config, cache, start, graph.min_time(),
                         config.max_length,
                         /*allow_first_nonstrict=*/true, random, tokens,
                         count, scratch, local_profile);
}

/// Walk starting on a uniformly sampled temporal edge (CTDNE policy).
std::size_t
run_edge_start_walk(const graph::TemporalGraph& graph,
                    const WalkConfig& config, const TransitionCache* cache,
                    rng::Random& random, graph::NodeId* tokens,
                    std::vector<std::uint32_t>& scratch,
                    WalkProfile& local_profile)
{
    // Pick a flat edge id, recover its source via the offsets array.
    const graph::EdgeId edge =
        random.next_index(graph.num_edges());
    const auto& offsets = graph.offsets();
    const auto it =
        std::upper_bound(offsets.begin(), offsets.end(), edge);
    const auto src = static_cast<graph::NodeId>(
        std::distance(offsets.begin(), it) - 1);
    const graph::Neighbor& first = graph.neighbors()[edge];

    std::size_t count = 0;
    tokens[count++] = src;
    tokens[count++] = first.dst;
    ++local_profile.steps_taken;
    if (config.max_length < 2) {
        return count;
    }
    return continue_walk(graph, config, cache, first.dst, first.time,
                         config.max_length - 1,
                         /*allow_first_nonstrict=*/false, random, tokens,
                         count, scratch, local_profile);
}

/// Walk one slot into @p tokens, deriving the slot's RNG stream from
/// the base seed — the seeding contract the batched lanes share.
std::size_t
walk_slot(const graph::TemporalGraph& graph, const WalkConfig& config,
          const TransitionCache* cache, std::size_t slot_index,
          graph::NodeId* tokens, std::vector<std::uint32_t>& scratch,
          WalkProfile& local_profile)
{
    rng::Random random(rng::mix_seed(config.seed, slot_index));
    std::size_t written;
    if (config.start == StartKind::kEveryNode) {
        // Slot (k, v) with v varying fastest: walk k of vertex
        // slot_index % n.
        const auto v =
            static_cast<graph::NodeId>(slot_index % graph.num_nodes());
        written = run_node_start_walk(graph, config, cache, v, random,
                                      tokens, scratch, local_profile);
    } else {
        written = run_edge_start_walk(graph, config, cache, random,
                                      tokens, scratch, local_profile);
    }
    ++local_profile.walks_started;
    return written;
}

/// Input validation shared by every generation entry point.
void
validate_walk_inputs(const graph::TemporalGraph& graph,
                     const WalkConfig& config, const char* who)
{
    if (config.max_length == 0) {
        util::fatal(util::strcat(who, ": max_length must be >= 1"));
    }
    if (config.max_length > 254) {
        util::fatal(util::strcat(who, ": max_length must be <= 254"));
    }
    if (config.walks_per_node == 0) {
        util::fatal(util::strcat(who, ": walks_per_node must be >= 1"));
    }
    if (config.start == StartKind::kTemporalEdge &&
        graph.num_edges() == 0) {
        util::fatal(util::strcat(who, ": edge-start walks need edges"));
    }
}

} // namespace

std::size_t
total_walk_slots(const graph::TemporalGraph& graph,
                 const WalkConfig& config)
{
    // Both policies generate walks_per_node * num_nodes walks so the
    // corpus budget is comparable across start policies.
    return static_cast<std::size_t>(graph.num_nodes()) *
           config.walks_per_node;
}

std::size_t
expected_tokens_per_walk(const WalkConfig& config)
{
    return std::min<std::size_t>(
        static_cast<std::size_t>(config.max_length) + 1, 6);
}

void
accumulate_profile(WalkProfile& into, const WalkProfile& from)
{
    into.walks_started += from.walks_started;
    into.walks_kept += from.walks_kept;
    into.steps_taken += from.steps_taken;
    into.dead_ends += from.dead_ends;
    into.candidates_scanned += from.candidates_scanned;
    into.cached_steps += from.cached_steps;
    into.batched_steps += from.batched_steps;
    into.transition_cost.memory_ops += from.transition_cost.memory_ops;
    into.transition_cost.branch_ops += from.transition_cost.branch_ops;
    into.transition_cost.compute_ops += from.transition_cost.compute_ops;
}

void
report_walk_metrics(const WalkProfile& totals)
{
    obs::Registry& registry = obs::Registry::global();
    registry.counter("walk.walks.started").add(totals.walks_started);
    registry.counter("walk.walks.kept").add(totals.walks_kept);
    registry.counter("walk.steps").add(totals.steps_taken);
    registry.counter("walk.steps.cached").add(totals.cached_steps);
    registry.counter("walk.steps.batched").add(totals.batched_steps);
    registry.counter("walk.steps.direct")
        .add(totals.steps_taken - totals.cached_steps);
    registry.counter("walk.dead_ends").add(totals.dead_ends);
    registry.counter("walk.candidates_scanned")
        .add(totals.candidates_scanned);
}

Corpus
generate_walks(const graph::TemporalGraph& graph, const WalkConfig& config,
               WalkProfile* profile)
{
    bool build = use_transition_cache(config, graph);
    if (!build && config.transition_cache != TransitionCacheMode::kOff &&
        (config.transition == TransitionKind::kExponential ||
         config.transition == TransitionKind::kExponentialDecay) &&
        resolve_batch_width(config, graph, /*has_cache=*/true) > 1) {
        // Batched softmax draws need the prefix-CDF table even where
        // kAuto's mean-degree heuristic would skip it; an explicit
        // kOff still wins (and pins the scalar engine).
        build = true;
    }
    if (build) {
        const TransitionCache cache = TransitionCache::build(
            graph, config.transition, config.num_threads);
        return generate_walks(graph, config, &cache, profile);
    }
    return generate_walks(graph, config, nullptr, profile);
}

Corpus
generate_walks(const graph::TemporalGraph& graph, const WalkConfig& config,
               const TransitionCache* cache, WalkProfile* profile)
{
    validate_walk_inputs(graph, config, "generate_walks");

    obs::Span span("walk.generate");

    const std::size_t tokens_per_walk =
        static_cast<std::size_t>(config.max_length) + 1;
    const std::size_t total_walks = total_walk_slots(graph, config);

    Corpus corpus;
    corpus.reserve(total_walks,
                   total_walks * expected_tokens_per_walk(config));

    // Process walk slots in blocks: each block is walked in parallel
    // into a dense scratch buffer, then compacted serially in slot
    // order, keeping corpus order deterministic and memory bounded.
    const std::size_t block =
        std::min<std::size_t>(std::max<std::size_t>(total_walks, 1),
                              std::size_t{1} << 16);
    std::vector<graph::NodeId> buffer(block * tokens_per_walk);
    std::vector<std::uint8_t> lengths(block);

    const unsigned max_team = config.num_threads ? config.num_threads
                                                 : util::default_threads();
    struct WalkRank
    {
        WalkProfile profile;
        std::vector<std::uint32_t> scratch;
    };
    util::RankSlots<WalkRank> ranks(max_team);

    // Hardware counters for the whole block loop: each worker opens
    // its per-thread set on first touch, the join below makes the
    // cross-thread reads in close() safe.
    obs::PerfRankScopes perf_scopes("walk", max_team);

    const unsigned batch_width =
        resolve_batch_width(config, graph, cache != nullptr);
    if (batch_width > 1) {
        log_batch_dispatch(batch_width);
    }

    for (std::size_t block_begin = 0; block_begin < total_walks;
         block_begin += block) {
        const std::size_t block_end =
            std::min(total_walks, block_begin + block);

        if (batch_width > 1) {
            // Batched path: each parallel work item is one lane pool
            // over kBatchRefillFactor x batch_width consecutive slots
            // writing its rows into the shared block buffer. Lane RNG
            // streams stay per-slot, so the corpus is identical for
            // any thread count.
            const std::size_t group_slots =
                batch_width * kBatchRefillFactor;
            const std::size_t groups =
                (block_end - block_begin + group_slots - 1) / group_slots;
            util::parallel_for_ranked(
                0, groups,
                [&](std::size_t group, unsigned rank) {
                    perf_scopes.ensure(rank);
                    const std::size_t begin =
                        block_begin + group * group_slots;
                    const std::size_t end =
                        std::min(block_end, begin + group_slots);
                    const std::size_t slot = begin - block_begin;
                    run_walk_batch(graph, config, cache, {begin, end},
                                   batch_width,
                                   buffer.data() + slot * tokens_per_walk,
                                   tokens_per_walk, lengths.data() + slot,
                                   ranks[rank].profile);
                },
                {.num_threads = config.num_threads});
        } else {
            util::parallel_for_ranked(
                block_begin, block_end,
                [&](std::size_t slot_index, unsigned rank) {
                    perf_scopes.ensure(rank);
                    const std::size_t slot = slot_index - block_begin;
                    graph::NodeId* tokens =
                        buffer.data() + slot * tokens_per_walk;
                    const std::size_t written =
                        walk_slot(graph, config, cache, slot_index, tokens,
                                  ranks[rank].scratch, ranks[rank].profile);
                    lengths[slot] = static_cast<std::uint8_t>(written);
                },
                {.num_threads = config.num_threads});
        }

        for (std::size_t slot_index = block_begin;
             slot_index < block_end; ++slot_index) {
            const std::size_t slot = slot_index - block_begin;
            const std::size_t len = lengths[slot];
            if (len < config.min_walk_tokens) {
                continue;
            }
            corpus.add_walk(
                {buffer.data() + slot * tokens_per_walk, len});
        }
    }

    // Fold the per-rank accumulators once per call: the hot loop stays
    // free of shared writes, and the registry sees one add per total.
    WalkProfile totals;
    for (std::size_t rank = 0; rank < ranks.size(); ++rank) {
        accumulate_profile(totals, ranks[rank].profile);
    }
    totals.walks_kept = corpus.num_walks();

    report_walk_metrics(totals);

    const obs::PerfSample perf = perf_scopes.close();
    for (const auto& [key, value] : obs::perf_span_args(perf)) {
        span.arg(key, value);
    }

    if (profile != nullptr) {
        accumulate_profile(*profile, totals);
    }
    return corpus;
}

} // namespace tgl::walk
