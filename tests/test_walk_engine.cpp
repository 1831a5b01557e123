/// Unit + property tests for the temporal walk engine (Algorithm 1).
///
/// The golden two-hop test is a statistical check, so this binary is
/// grouped under the ctest `equivalence` label: the nightly CI job
/// reruns it with more samples via TGL_EQUIV_DRAWS (a draw-count
/// multiplier, default 1).
#include "walk/engine.hpp"

#include "gen/barabasi_albert.hpp"
#include "gen/erdos_renyi.hpp"
#include "graph/builder.hpp"
#include "util/error.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <sstream>
#include <vector>

namespace tgl::walk {
namespace {

graph::TemporalGraph
toy_graph()
{
    // u=0 -> v=1 @1; v -> x=2 @2; v -> y=3 @3; x -> w=4 @1 (dead end
    // from v at time 2 because 1 < 2).
    graph::EdgeList edges;
    edges.add(0, 1, 1.0);
    edges.add(1, 2, 2.0);
    edges.add(1, 3, 3.0);
    edges.add(2, 4, 1.0);
    return graph::GraphBuilder::build(edges);
}

/// Verify a walk is temporally valid: a monotone edge-time assignment
/// exists along its hops (greedy minimal feasible time).
void
expect_temporally_valid(const graph::TemporalGraph& graph,
                        std::span<const graph::NodeId> walk, bool strict)
{
    double now = -std::numeric_limits<double>::infinity();
    for (std::size_t hop = 0; hop + 1 < walk.size(); ++hop) {
        const graph::NodeId u = walk[hop];
        const graph::NodeId v = walk[hop + 1];
        double best = std::numeric_limits<double>::infinity();
        for (const graph::Neighbor& n : graph.out_neighbors(u)) {
            const bool valid = strict && hop > 0 ? n.time > now
                                                 : n.time >= now;
            if (n.dst == v && valid) {
                best = std::min(best, n.time);
            }
        }
        ASSERT_NE(best, std::numeric_limits<double>::infinity())
            << "hop " << hop << " (" << u << " -> " << v
            << ") has no temporally valid edge";
        now = best;
    }
}

TEST(Engine, WalkCountsMatchKTimesKeptVertices)
{
    const auto graph = toy_graph();
    WalkConfig config;
    config.walks_per_node = 3;
    config.max_length = 4;
    config.min_walk_tokens = 1; // keep everything
    const Corpus corpus = generate_walks(graph, config);
    EXPECT_EQ(corpus.num_walks(),
              static_cast<std::size_t>(graph.num_nodes()) * 3);
}

TEST(Engine, MinWalkTokensFiltersSingletons)
{
    const auto graph = toy_graph();
    WalkConfig config;
    config.walks_per_node = 1;
    config.max_length = 4;
    config.min_walk_tokens = 2;
    const Corpus corpus = generate_walks(graph, config);
    // Vertices 3 and 4 have no out-edges -> singleton walks dropped.
    EXPECT_EQ(corpus.num_walks(), 3u);
    for (std::size_t i = 0; i < corpus.num_walks(); ++i) {
        EXPECT_GE(corpus.walk_length(i), 2u);
    }
}

TEST(Engine, WalksStartAtTheirVertex)
{
    const auto graph = toy_graph();
    WalkConfig config;
    config.walks_per_node = 2;
    config.max_length = 3;
    config.min_walk_tokens = 1;
    const Corpus corpus = generate_walks(graph, config);
    // Order is (walk-index, vertex): walk i covers vertex i % n.
    const std::size_t n = graph.num_nodes();
    for (std::size_t i = 0; i < corpus.num_walks(); ++i) {
        EXPECT_EQ(corpus.walk(i)[0], i % n);
    }
}

TEST(Engine, RespectsMaxLength)
{
    const auto edges = gen::generate_erdos_renyi(
        {.num_nodes = 50, .num_edges = 2000, .seed = 1});
    const auto graph = graph::GraphBuilder::build(edges);
    WalkConfig config;
    config.walks_per_node = 2;
    config.max_length = 5;
    const Corpus corpus = generate_walks(graph, config);
    for (std::size_t i = 0; i < corpus.num_walks(); ++i) {
        EXPECT_LE(corpus.walk_length(i), 6u); // N steps = N+1 tokens
    }
}

TEST(Engine, DeadEndStopsWalk)
{
    const auto graph = toy_graph();
    WalkConfig config;
    config.walks_per_node = 1;
    config.max_length = 10;
    config.min_walk_tokens = 1;
    config.seed = 9;
    WalkProfile profile;
    const Corpus corpus = generate_walks(graph, config, &profile);
    EXPECT_GT(profile.dead_ends, 0u);
    // Walk from vertex 3 (no out-edges) is a singleton.
    EXPECT_EQ(corpus.walk_length(3), 1u);
}

TEST(Engine, ProfileCountsAreConsistent)
{
    const auto edges = gen::generate_erdos_renyi(
        {.num_nodes = 100, .num_edges = 1000, .seed = 2});
    const auto graph = graph::GraphBuilder::build(edges);
    WalkConfig config;
    config.walks_per_node = 4;
    config.max_length = 6;
    config.min_walk_tokens = 1;
    WalkProfile profile;
    const Corpus corpus = generate_walks(graph, config, &profile);
    EXPECT_EQ(profile.walks_started, 400u);
    EXPECT_EQ(profile.walks_kept, corpus.num_walks());
    // tokens = walks + steps when nothing is filtered.
    EXPECT_EQ(corpus.num_tokens(),
              profile.walks_started + profile.steps_taken);
    EXPECT_GT(profile.transition_cost.compute_ops, 0u);
}

TEST(Engine, InvalidConfigThrows)
{
    const auto graph = toy_graph();
    WalkConfig config;
    config.max_length = 0;
    EXPECT_THROW(generate_walks(graph, config), util::Error);
    config.max_length = 5;
    config.walks_per_node = 0;
    EXPECT_THROW(generate_walks(graph, config), util::Error);
    config.walks_per_node = 1;
    config.max_length = 255;
    EXPECT_THROW(generate_walks(graph, config), util::Error);
}

// Property: generate_walks accepts exactly the configs validate()
// accepts — no config passes validation and then dies inside the
// engine, and none sneaks past a failed validation.
TEST(WalkConfigContract, ValidateAndGenerateAgreeOnLengthGrid)
{
    const auto graph = toy_graph();
    for (const unsigned max_length : {0u, 1u, 6u, 254u, 255u, 300u}) {
        for (const unsigned walks : {0u, 1u}) {
            WalkConfig config;
            config.max_length = max_length;
            config.walks_per_node = walks;
            if (config.validate().empty()) {
                EXPECT_NO_THROW(generate_walks(graph, config))
                    << max_length << "/" << walks;
            } else {
                EXPECT_THROW(generate_walks(graph, config), util::Error)
                    << max_length << "/" << walks;
            }
        }
    }
}

TEST(Engine, DeterministicAcrossThreadCounts)
{
    const auto edges = gen::generate_barabasi_albert(
        {.num_nodes = 300, .edges_per_node = 3, .seed = 4});
    const auto graph =
        graph::GraphBuilder::build(edges, {.symmetrize = true});
    WalkConfig config;
    config.walks_per_node = 3;
    config.max_length = 8;
    config.seed = 1234;

    config.num_threads = 1;
    const Corpus serial = generate_walks(graph, config);
    config.num_threads = 8;
    const Corpus parallel = generate_walks(graph, config);

    ASSERT_EQ(serial.num_walks(), parallel.num_walks());
    ASSERT_EQ(serial.num_tokens(), parallel.num_tokens());
    EXPECT_EQ(serial.tokens(), parallel.tokens());
    EXPECT_EQ(serial.offsets(), parallel.offsets());
}

TEST(Engine, CachedSamplerDeterministicAcrossThreadCounts)
{
    // Walks are seeded per (walk, vertex), so with the prefix-CDF
    // cache on the corpus must still be bit-identical for any team
    // size.
    const auto edges = gen::generate_barabasi_albert(
        {.num_nodes = 300, .edges_per_node = 4, .seed = 31});
    const auto graph =
        graph::GraphBuilder::build(edges, {.symmetrize = true});
    WalkConfig config;
    config.walks_per_node = 3;
    config.max_length = 8;
    config.transition = TransitionKind::kExponentialDecay;
    config.transition_cache = TransitionCacheMode::kOn;
    config.seed = 4321;

    config.num_threads = 1;
    const Corpus serial = generate_walks(graph, config);
    for (const unsigned threads : {2u, 8u}) {
        config.num_threads = threads;
        const Corpus parallel = generate_walks(graph, config);
        ASSERT_EQ(serial.num_walks(), parallel.num_walks());
        EXPECT_EQ(serial.tokens(), parallel.tokens()) << threads;
        EXPECT_EQ(serial.offsets(), parallel.offsets()) << threads;
    }
}

TEST(Engine, CacheModeChangesDrawSequenceNotDistribution)
{
    // Documented divergence: the cached sampler consumes one RNG draw
    // per step, the direct scan one per candidate, so the same seed
    // yields *different* (equally distributed) corpora. Both must be
    // complete and temporally valid; bit-equality across modes is NOT
    // part of the contract (which is why the mode is part of the
    // checkpoint fingerprint — see core/checkpoint.cpp).
    const auto edges = gen::generate_barabasi_albert(
        {.num_nodes = 200, .edges_per_node = 4, .seed = 32});
    const auto graph =
        graph::GraphBuilder::build(edges, {.symmetrize = true});
    WalkConfig config;
    config.walks_per_node = 3;
    config.max_length = 8;
    config.transition = TransitionKind::kExponential;
    config.seed = 7;

    config.transition_cache = TransitionCacheMode::kOff;
    const Corpus direct = generate_walks(graph, config);
    config.transition_cache = TransitionCacheMode::kOn;
    const Corpus cached = generate_walks(graph, config);

    EXPECT_EQ(direct.num_walks(), cached.num_walks());
    EXPECT_NE(direct.tokens(), cached.tokens());
    for (std::size_t i = 0; i < cached.num_walks(); ++i) {
        expect_temporally_valid(graph, cached.walk(i), true);
    }
}

TEST(Engine, CachedStepsCountedInProfile)
{
    const auto edges = gen::generate_erdos_renyi(
        {.num_nodes = 100, .num_edges = 1500, .seed = 33});
    const auto graph = graph::GraphBuilder::build(edges);
    WalkConfig config;
    config.walks_per_node = 2;
    config.max_length = 6;
    config.transition_cache = TransitionCacheMode::kOn;
    WalkProfile profile;
    generate_walks(graph, config, &profile);
    EXPECT_EQ(profile.cached_steps, profile.steps_taken);

    config.transition_cache = TransitionCacheMode::kOff;
    WalkProfile direct_profile;
    generate_walks(graph, config, &direct_profile);
    EXPECT_EQ(direct_profile.cached_steps, 0u);
}

TEST(Engine, DifferentSeedsGiveDifferentWalks)
{
    const auto edges = gen::generate_erdos_renyi(
        {.num_nodes = 100, .num_edges = 2000, .seed = 5});
    const auto graph = graph::GraphBuilder::build(edges);
    WalkConfig config;
    config.walks_per_node = 2;
    config.max_length = 6;
    config.seed = 1;
    const Corpus a = generate_walks(graph, config);
    config.seed = 2;
    const Corpus b = generate_walks(graph, config);
    EXPECT_NE(a.tokens(), b.tokens());
}

TEST(Engine, LinearNeighborSearchMatchesBinarySearchExactly)
{
    const auto edges = gen::generate_erdos_renyi(
        {.num_nodes = 150, .num_edges = 3000, .seed = 6});
    const auto graph = graph::GraphBuilder::build(edges);
    WalkConfig config;
    config.walks_per_node = 2;
    config.max_length = 6;
    config.seed = 77;
    config.linear_neighbor_search = false;
    const Corpus binary = generate_walks(graph, config);
    config.linear_neighbor_search = true;
    const Corpus linear = generate_walks(graph, config);
    EXPECT_EQ(binary.tokens(), linear.tokens());
    EXPECT_EQ(binary.offsets(), linear.offsets());
}

/// Property: every emitted walk is temporally valid, across transition
/// kinds, strictness modes, and graph shapes.
struct ValidityCase
{
    TransitionKind transition;
    bool strict;
    // gtest names each case after the param's object bytes, so the
    // struct has no padding: the tail is explicit and zeroed, and the
    // registered test names do not pick up stack garbage.
    unsigned char zero_tail[sizeof(TransitionKind) - sizeof(bool)] = {};
};
static_assert(sizeof(ValidityCase) == 2 * sizeof(TransitionKind));

class WalkValidity : public ::testing::TestWithParam<ValidityCase>
{
};

TEST_P(WalkValidity, AllWalksTemporallyValid)
{
    const auto edges = gen::generate_barabasi_albert(
        {.num_nodes = 200, .edges_per_node = 3, .seed = 11});
    const auto graph =
        graph::GraphBuilder::build(edges, {.symmetrize = true});

    WalkConfig config;
    config.walks_per_node = 4;
    config.max_length = 10;
    config.transition = GetParam().transition;
    config.strict_time = GetParam().strict;
    config.seed = 99;
    const Corpus corpus = generate_walks(graph, config);
    ASSERT_GT(corpus.num_walks(), 0u);
    for (std::size_t i = 0; i < corpus.num_walks(); ++i) {
        expect_temporally_valid(graph, corpus.walk(i),
                                GetParam().strict);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, WalkValidity,
    ::testing::Values(
        ValidityCase{TransitionKind::kUniform, true},
        ValidityCase{TransitionKind::kUniform, false},
        ValidityCase{TransitionKind::kExponential, true},
        ValidityCase{TransitionKind::kExponentialDecay, true},
        ValidityCase{TransitionKind::kLinear, true}));

TEST(Engine, StaticModeIgnoresTimestamps)
{
    // A chain with decreasing timestamps: temporal walks die at the
    // first hop; static walks traverse it fully.
    graph::EdgeList edges;
    edges.add(0, 1, 0.9);
    edges.add(1, 2, 0.5);
    edges.add(2, 3, 0.1);
    const auto graph = graph::GraphBuilder::build(edges);

    WalkConfig config;
    config.walks_per_node = 1;
    config.max_length = 5;
    config.min_walk_tokens = 1;

    config.temporal = true;
    const Corpus temporal = generate_walks(graph, config);
    EXPECT_EQ(temporal.walk_length(0), 2u); // 0 -> 1, then dead end

    config.temporal = false;
    const Corpus static_walks = generate_walks(graph, config);
    EXPECT_EQ(static_walks.walk_length(0), 4u); // full chain
}

TEST(Engine, StaticModeDeterministicAcrossThreads)
{
    const auto edges = gen::generate_erdos_renyi(
        {.num_nodes = 200, .num_edges = 4000, .seed = 21});
    const auto graph = graph::GraphBuilder::build(edges);
    WalkConfig config;
    config.walks_per_node = 3;
    config.max_length = 8;
    config.temporal = false;
    config.seed = 5;
    config.num_threads = 1;
    const Corpus serial = generate_walks(graph, config);
    config.num_threads = 4;
    const Corpus parallel = generate_walks(graph, config);
    EXPECT_EQ(serial.tokens(), parallel.tokens());
}

TEST(Engine, EdgeStartWalksBeginOnRealEdges)
{
    const auto edges = gen::generate_barabasi_albert(
        {.num_nodes = 300, .edges_per_node = 3, .seed = 22});
    const auto graph =
        graph::GraphBuilder::build(edges, {.symmetrize = true});
    WalkConfig config;
    config.walks_per_node = 2;
    config.max_length = 6;
    config.start = StartKind::kTemporalEdge;
    config.min_walk_tokens = 1;
    const Corpus corpus = generate_walks(graph, config);
    EXPECT_EQ(corpus.num_walks(),
              static_cast<std::size_t>(graph.num_nodes()) * 2);
    for (std::size_t i = 0; i < corpus.num_walks(); ++i) {
        const auto walk = corpus.walk(i);
        ASSERT_GE(walk.size(), 2u); // the sampled edge's two endpoints
        EXPECT_TRUE(graph.has_edge(walk[0], walk[1]))
            << walk[0] << " -> " << walk[1];
    }
}

TEST(Engine, EdgeStartWalksAreTemporallyValid)
{
    const auto edges = gen::generate_barabasi_albert(
        {.num_nodes = 200, .edges_per_node = 3, .seed = 23});
    const auto graph =
        graph::GraphBuilder::build(edges, {.symmetrize = true});
    WalkConfig config;
    config.walks_per_node = 3;
    config.max_length = 8;
    config.start = StartKind::kTemporalEdge;
    const Corpus corpus = generate_walks(graph, config);
    for (std::size_t i = 0; i < corpus.num_walks(); ++i) {
        expect_temporally_valid(graph, corpus.walk(i), true);
    }
}

TEST(Engine, EdgeStartOnEmptyGraphThrows)
{
    graph::EdgeList edges;
    const auto graph =
        graph::GraphBuilder::build(edges, {.min_num_nodes = 5});
    WalkConfig config;
    config.start = StartKind::kTemporalEdge;
    EXPECT_THROW(generate_walks(graph, config), util::Error);
}

// ---- Golden and edge-case fixtures ----

/// Draw-count scale factor for the nightly high-sample rerun:
/// TGL_EQUIV_DRAWS=10 multiplies every statistical sample size by 10.
int
equiv_scale()
{
    const char* env = std::getenv("TGL_EQUIV_DRAWS");
    if (env == nullptr) {
        return 1;
    }
    const long mult = std::strtol(env, nullptr, 10);
    return mult > 1 ? static_cast<int>(mult) : 1;
}

/// Walks per node for the corpus-level distribution test.
int
kind_draws()
{
    return 20000 * equiv_scale();
}

/// FNV-1a over tokens + offsets: the byte-identity fingerprint of a
/// corpus.
std::uint64_t
corpus_fingerprint(const Corpus& corpus)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t v) {
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (v >> (8 * byte)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    for (const graph::NodeId token : corpus.tokens()) {
        mix(token);
    }
    for (const std::size_t offset : corpus.offsets()) {
        mix(offset);
    }
    return h;
}

constexpr TransitionKind kAllKinds[] = {
    TransitionKind::kUniform,
    TransitionKind::kExponential,
    TransitionKind::kExponentialDecay,
    TransitionKind::kLinear,
};

/// Golden two-hop fixture (same graph as the transition-cache golden
/// test): hand-computed softmax probabilities for both walk steps,
/// checked against the corpus end-to-end.
TEST(Engine, GoldenTwoHopFixtureMatchesHandComputedProbabilities)
{
    // Vertex 0 fans to {1@1, 2@2, 3@3}; vertex 1 fans to {4@1, 5@2,
    // 6@3}. Global r = 3 - 1 = 2.
    graph::EdgeList edges;
    edges.add(0, 1, 1.0);
    edges.add(0, 2, 2.0);
    edges.add(0, 3, 3.0);
    edges.add(1, 4, 1.0);
    edges.add(1, 5, 2.0);
    edges.add(1, 6, 3.0);
    const auto graph = graph::GraphBuilder::build(edges);
    ASSERT_DOUBLE_EQ(graph.time_range(), 2.0);

    // Step 1 from vertex 0 (non-strict first hop at min_time = 1):
    // w_i = exp((t_i - 3) / 2) -> {e^-1, e^-1/2, 1}.
    const double w1 = std::exp(-1.0), w2 = std::exp(-0.5), w3 = 1.0;
    const double total_0 = w1 + w2 + w3;
    // Step 2 after 0 -> 1 @1 (strict, time > 1): suffix {5@2, 6@3},
    // w = {e^-1/2, 1}.
    const double total_1 = w2 + w3;

    WalkConfig config;
    config.walks_per_node = static_cast<unsigned>(kind_draws());
    config.max_length = 2;
    config.transition = TransitionKind::kExponential;
    config.transition_cache = TransitionCacheMode::kOn;
    config.seed = 99;
    const Corpus corpus = generate_walks(graph, config);

    int from_zero = 0;
    int step1_counts[3] = {0, 0, 0};
    int via_one = 0;
    int step2_counts[2] = {0, 0};
    for (std::size_t w = 0; w < corpus.num_walks(); ++w) {
        const auto walk = corpus.walk(w);
        if (walk.size() < 2 || walk[0] != 0) {
            continue;
        }
        ++from_zero;
        ASSERT_GE(walk[1], 1u);
        ASSERT_LE(walk[1], 3u);
        ++step1_counts[walk[1] - 1];
        if (walk[1] == 1 && walk.size() == 3) {
            ASSERT_GE(walk[2], 5u);
            ASSERT_LE(walk[2], 6u);
            ++via_one;
            ++step2_counts[walk[2] - 5];
        }
    }
    ASSERT_EQ(from_zero, kind_draws());
    EXPECT_NEAR(step1_counts[0] / static_cast<double>(from_zero),
                w1 / total_0, 0.01);
    EXPECT_NEAR(step1_counts[1] / static_cast<double>(from_zero),
                w2 / total_0, 0.01);
    EXPECT_NEAR(step1_counts[2] / static_cast<double>(from_zero),
                w3 / total_0, 0.01);
    // Every 0 -> 1 walk must have continued (vertex 1 always has valid
    // successors under strict time from clock 1).
    ASSERT_EQ(via_one, step1_counts[0]);
    ASSERT_GT(via_one, 1000);
    EXPECT_NEAR(step2_counts[0] / static_cast<double>(via_one),
                w2 / total_1, 0.02);
    EXPECT_NEAR(step2_counts[1] / static_cast<double>(via_one),
                w3 / total_1, 0.02);
}

/// The only byte pin on the engine's output. The fingerprints below
/// were captured from the one-walker-at-a-time engine; any drift in
/// these corpora is a regression, not a re-baseline.
TEST(Engine, WidthOneIsByteIdenticalToScalarEngine)
{
    const auto edges = gen::generate_barabasi_albert(
        {.num_nodes = 300, .edges_per_node = 4, .seed = 31});
    const auto graph =
        graph::GraphBuilder::build(edges, {.symmetrize = true});

    const std::map<TransitionKind, std::uint64_t> golden = {
        {TransitionKind::kUniform, 17104388922206943612ULL},
        {TransitionKind::kExponential, 15078297168363777511ULL},
        {TransitionKind::kExponentialDecay, 15960543175670704742ULL},
        {TransitionKind::kLinear, 256554473710236874ULL},
    };
    for (const auto& [kind, expected] : golden) {
        WalkConfig config;
        config.walks_per_node = 3;
        config.max_length = 8;
        config.transition = kind;
        config.transition_cache = TransitionCacheMode::kOn;
        config.seed = 4321;
        const Corpus corpus = generate_walks(graph, config);
        EXPECT_EQ(corpus_fingerprint(corpus), expected)
            << transition_name(kind);

        // Regenerating from the same config gives the same bytes.
        const Corpus again = generate_walks(graph, config);
        EXPECT_EQ(again.tokens(), corpus.tokens());
    }
}

/// Permissive structural validity: each hop must correspond to SOME
/// temporally-valid edge; the clock lower bound advances through the
/// smallest valid edge time, so gross violations (nonexistent edges,
/// time travel) fail while legitimate multi-edge choices pass.
void
check_walk_structure(const graph::TemporalGraph& graph,
                     const WalkConfig& config,
                     std::span<const graph::NodeId> walk)
{
    ASSERT_GE(walk.size(), config.min_walk_tokens);
    ASSERT_LE(walk.size(),
              static_cast<std::size_t>(config.max_length) + 1);
    double clock = graph.min_time();
    bool first_hop = config.start == StartKind::kEveryNode;
    for (std::size_t i = 0; i + 1 < walk.size(); ++i) {
        const graph::NodeId u = walk[i];
        const graph::NodeId v = walk[i + 1];
        ASSERT_LT(u, graph.num_nodes());
        ASSERT_LT(v, graph.num_nodes());
        const bool strict = config.strict_time && !first_hop;
        const bool edge_hop =
            config.start == StartKind::kTemporalEdge && i == 0;
        double best = std::numeric_limits<double>::infinity();
        for (const graph::Neighbor& n : graph.out_neighbors(u)) {
            if (n.dst != v) {
                continue;
            }
            // The first hop of an edge-start walk is the sampled edge
            // itself — any (u, v) edge time is admissible.
            const bool valid =
                edge_hop || (strict ? n.time > clock : n.time >= clock);
            if (valid && n.time < best) {
                best = n.time;
            }
        }
        ASSERT_TRUE(std::isfinite(best))
            << "hop " << i << ": no valid edge " << u << " -> " << v
            << " from clock " << clock;
        clock = best;
        first_hop = false;
    }
}

TEST(Engine, RandomConfigsProduceStructurallyValidCorpora)
{
    for (int round = 0; round < 12; ++round) {
        const auto edges = gen::generate_barabasi_albert(
            {.num_nodes = static_cast<graph::NodeId>(50 + 37 * round),
             .edges_per_node = 1 + static_cast<unsigned>(round % 5),
             .seed = 100 + static_cast<std::uint64_t>(round)});
        const auto graph = graph::GraphBuilder::build(
            edges, {.symmetrize = round % 2 == 0});

        WalkConfig config;
        config.walks_per_node = 2 + round % 3;
        config.max_length = 1 + round % 9;
        config.transition = kAllKinds[round % 4];
        config.transition_cache = TransitionCacheMode::kOn;
        config.strict_time = round % 3 != 0;
        config.start = round % 4 == 3 ? StartKind::kTemporalEdge
                                      : StartKind::kEveryNode;
        config.min_walk_tokens =
            std::min(2u, config.max_length + 1);
        config.seed = 1000 + static_cast<std::uint64_t>(round);

        WalkProfile profile;
        const Corpus corpus = generate_walks(graph, config, &profile);
        EXPECT_EQ(profile.walks_started,
                  static_cast<std::size_t>(graph.num_nodes()) *
                      config.walks_per_node);
        EXPECT_EQ(profile.walks_kept, corpus.num_walks());
        for (std::size_t w = 0; w < corpus.num_walks(); ++w) {
            check_walk_structure(graph, config, corpus.walk(w));
            if (::testing::Test::HasFatalFailure()) {
                return;
            }
        }
    }
}

TEST(Engine, DeadEndFixtureDiesExactlyWhereScalarWould)
{
    // 0 -> 1 @2, 1 -> 2 @1: from 0 the walk reaches 1 with clock 2 and
    // must die (the only onward edge is in the past). From 1 the
    // non-strict first hop at min_time 1 reaches 2. Deterministic for
    // every seed.
    graph::EdgeList edges;
    edges.add(0, 1, 2.0);
    edges.add(1, 2, 1.0);
    const auto graph = graph::GraphBuilder::build(edges);
    WalkConfig config;
    config.walks_per_node = 4;
    config.max_length = 5;
    config.transition = TransitionKind::kExponential;
    config.transition_cache = TransitionCacheMode::kOn;
    config.seed = 3;

    WalkProfile profile;
    const Corpus corpus = generate_walks(graph, config, &profile);
    // 4 walks per vertex: [0, 1] x4 and [1, 2] x4 kept; vertex 2's
    // walks are single-token drops.
    ASSERT_EQ(corpus.num_walks(), 8u);
    for (std::size_t w = 0; w < corpus.num_walks(); ++w) {
        const auto walk = corpus.walk(w);
        ASSERT_EQ(walk.size(), 2u);
        EXPECT_EQ(walk[1], walk[0] + 1);
    }
    EXPECT_EQ(profile.dead_ends, 12u); // 8 kept die + 4 from vertex 2
}

TEST(Engine, DegreeOneChainWalksDeterministically)
{
    // 0 -> 1 @1 -> 2 @2 -> 3 @3: every step has exactly one candidate,
    // so all kinds produce the same tokens.
    graph::EdgeList edges;
    edges.add(0, 1, 1.0);
    edges.add(1, 2, 2.0);
    edges.add(2, 3, 3.0);
    const auto graph = graph::GraphBuilder::build(edges);
    for (const TransitionKind kind : kAllKinds) {
        WalkConfig config;
        config.walks_per_node = 1;
        config.max_length = 5;
        config.transition = kind;
        config.transition_cache = TransitionCacheMode::kOn;
        const Corpus corpus = generate_walks(graph, config);
        ASSERT_EQ(corpus.num_walks(), 3u) << transition_name(kind);
        const std::vector<graph::NodeId> expected = {0, 1, 2, 3,
                                                     1, 2, 3,
                                                     2, 3};
        EXPECT_EQ(corpus.tokens(), expected) << transition_name(kind);
    }
}

TEST(Engine, EdgeStartMaxLengthOneEmitsPairs)
{
    // Edge-start with max_length 1 has a zero step budget: every walk
    // is exactly the sampled edge [src, dst].
    const auto edges = gen::generate_barabasi_albert(
        {.num_nodes = 60, .edges_per_node = 3, .seed = 44});
    const auto graph =
        graph::GraphBuilder::build(edges, {.symmetrize = true});
    WalkConfig config;
    config.walks_per_node = 2;
    config.max_length = 1;
    config.start = StartKind::kTemporalEdge;
    config.transition = TransitionKind::kLinear;
    const Corpus corpus = generate_walks(graph, config);
    ASSERT_EQ(corpus.num_walks(),
              static_cast<std::size_t>(graph.num_nodes()) *
                  config.walks_per_node);
    for (std::size_t w = 0; w < corpus.num_walks(); ++w) {
        EXPECT_EQ(corpus.walk(w).size(), 2u);
    }
}

TEST(Engine, EpochSecondTimestampsStayFiniteAndComplete)
{
    // Wide epoch-second stamps (where a naive exp(t/r) overflows) must
    // still yield complete, structurally valid walks.
    graph::EdgeList edges;
    edges.add(0, 1, 1.6e9);
    edges.add(1, 2, 1.6e9 + 400.0);
    edges.add(1, 3, 1.6e9 + 900.0);
    edges.add(2, 3, 1.6e9 + 1500.0);
    const auto graph = graph::GraphBuilder::build(edges);
    WalkConfig config;
    config.walks_per_node = 50;
    config.max_length = 4;
    config.transition = TransitionKind::kExponentialDecay;
    config.transition_cache = TransitionCacheMode::kOn;
    WalkProfile profile;
    const Corpus corpus = generate_walks(graph, config, &profile);
    EXPECT_EQ(profile.walks_started,
              static_cast<std::size_t>(graph.num_nodes()) *
                  config.walks_per_node);
    for (std::size_t w = 0; w < corpus.num_walks(); ++w) {
        check_walk_structure(graph, config, corpus.walk(w));
        if (::testing::Test::HasFatalFailure()) {
            return;
        }
    }
}

TEST(Corpus, StreamRoundTrip)
{
    Corpus original;
    const graph::NodeId w1[] = {1, 2, 3};
    const graph::NodeId w2[] = {42};
    const graph::NodeId w3[] = {7, 7};
    original.add_walk(w1);
    original.add_walk(w2);
    original.add_walk(w3);

    std::stringstream stream;
    original.save(stream);
    const Corpus loaded = Corpus::load(stream);
    ASSERT_EQ(loaded.num_walks(), 3u);
    EXPECT_EQ(loaded.tokens(), original.tokens());
    EXPECT_EQ(loaded.offsets(), original.offsets());
}

TEST(Corpus, LoadSkipsBlankLinesAndRejectsGarbage)
{
    std::istringstream good("1 2 3\n\n4 5\n");
    const Corpus corpus = Corpus::load(good);
    EXPECT_EQ(corpus.num_walks(), 2u);

    std::istringstream bad("1 x 3\n");
    EXPECT_THROW(Corpus::load(bad), util::Error);
    std::istringstream negative("1 -2\n");
    EXPECT_THROW(Corpus::load(negative), util::Error);
}

TEST(Corpus, FileRoundTrip)
{
    Corpus original;
    const graph::NodeId w[] = {9, 8, 7};
    original.add_walk(w);
    const std::string path = testing::TempDir() + "/tgl_corpus.txt";
    original.save_file(path);
    const Corpus loaded = Corpus::load_file(path);
    EXPECT_EQ(loaded.tokens(), original.tokens());
    EXPECT_THROW(Corpus::load_file("/nonexistent/corpus.txt"),
                 util::Error);
}

} // namespace
} // namespace tgl::walk
