/// Statistical-equivalence battery for the SIMD batched walker engine
/// (walk/batch.hpp): batched draws must realize exactly the same
/// per-step distribution as the scalar sampler for every
/// TransitionKind at widths 8, 16 and auto; batch_width = 1 must stay
/// byte-identical to the pre-batching scalar engine; and the corpus
/// must be bit-identical across thread counts for every width. Property-based fuzz cases cover the WalkerBatch edge
/// conditions: dead ends, degree-1 chains, ragged tails (graph smaller
/// than the batch width) and epoch-second timestamp overflow.
///
/// The chi-square / total-variation methodology mirrors the PR-2
/// transition-cache suite (test_walk_transition_cache.cpp); like it,
/// this binary is grouped under the ctest `equivalence` label so the
/// nightly CI job can rerun the distribution checks with more samples
/// via TGL_EQUIV_DRAWS (a draw-count multiplier, default 1).
#include "walk/batch.hpp"

#include "gen/barabasi_albert.hpp"
#include "graph/builder.hpp"
#include "util/error.hpp"
#include "walk/engine.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace tgl::walk {
namespace {

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

/// Walks per node for the corpus-level distribution tests. Each kept
/// star walk contributes exactly one first-transition draw.
int
kind_draws()
{
    return 20000 * equiv_scale();
}

/// Star graph: vertex 0 fans out to one leaf per timestamp; leaves
/// have no out-edges, so every kept node-start walk is [0, leaf] and
/// the second token is one first-transition draw from vertex 0.
graph::TemporalGraph
star_graph(const std::vector<graph::Timestamp>& times)
{
    graph::EdgeList edges;
    for (std::size_t i = 0; i < times.size(); ++i) {
        edges.add(0, static_cast<graph::NodeId>(i + 1), times[i]);
    }
    return graph::GraphBuilder::build(edges);
}

/// Analytic per-candidate probabilities of the Eq. 1 family over a
/// suffix (same log-space shift as the samplers).
std::vector<double>
analytic_probabilities(std::span<const graph::Neighbor> candidates,
                       double rate, TransitionKind kind)
{
    const std::size_t m = candidates.size();
    std::vector<double> probs(m);
    double total = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
        double w = 1.0;
        switch (kind) {
          case TransitionKind::kUniform:
            w = 1.0;
            break;
          case TransitionKind::kExponential:
            w = std::exp((candidates[i].time - candidates[m - 1].time) /
                         rate);
            break;
          case TransitionKind::kExponentialDecay:
            w = std::exp(-(candidates[i].time - candidates[0].time) /
                         rate);
            break;
          case TransitionKind::kLinear:
            w = static_cast<double>(m - i);
            break;
        }
        probs[i] = w;
        total += w;
    }
    for (double& p : probs) {
        p /= total;
    }
    return probs;
}

/// Pearson chi-square statistic of observed counts against expected
/// probabilities.
double
chi_square(const std::vector<int>& counts,
           const std::vector<double>& probs, int draws)
{
    double stat = 0.0;
    for (std::size_t i = 0; i < counts.size(); ++i) {
        const double expected = probs[i] * draws;
        const double diff = counts[i] - expected;
        stat += diff * diff / expected;
    }
    return stat;
}

/// Wilson–Hilferty upper critical value at z = 3.29 (p ~ 5e-4); draws
/// are seeded, so a pass is reproducible.
double
chi_square_critical(std::size_t df)
{
    const double d = static_cast<double>(df);
    const double z = 3.29;
    const double term =
        1.0 - 2.0 / (9.0 * d) + z * std::sqrt(2.0 / (9.0 * d));
    return d * term * term * term;
}

/// Total-variation distance between two empirical count vectors.
double
total_variation(const std::vector<int>& a, const std::vector<int>& b,
                int draws)
{
    double tv = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        tv += std::abs(a[i] - b[i]) / static_cast<double>(draws);
    }
    return tv / 2.0;
}

WalkConfig
star_config(TransitionKind kind, unsigned batch_width)
{
    WalkConfig config;
    config.walks_per_node = static_cast<unsigned>(kind_draws());
    config.max_length = 2;
    config.transition = kind;
    config.transition_cache = TransitionCacheMode::kOn;
    config.batch_width = batch_width;
    config.seed = 77;
    return config;
}

/// Empirical first-transition counts from vertex 0 of a star corpus,
/// indexed like the candidate slice (candidate i = leaf dst).
std::vector<int>
first_transition_counts(const graph::TemporalGraph& graph,
                        const Corpus& corpus)
{
    const auto candidates =
        graph.temporal_neighbors(0, graph.min_time(), /*strict=*/false);
    std::map<graph::NodeId, std::size_t> index;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        index[candidates[i].dst] = i;
    }
    std::vector<int> counts(candidates.size(), 0);
    for (std::size_t w = 0; w < corpus.num_walks(); ++w) {
        const auto walk = corpus.walk(w);
        if (walk.size() < 2 || walk[0] != 0) {
            continue;
        }
        ++counts[index.at(walk[1])];
    }
    return counts;
}

/// FNV-1a over tokens + offsets: the byte-identity fingerprint used by
/// the width-1 regression test.
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

/// Fixture timestamps for the distribution battery: a well-spread
/// slice and the epoch-second overflow case the prefix table must
/// survive (naive exp(t/r) would overflow).
const std::vector<std::vector<graph::Timestamp>>&
battery_fixtures()
{
    static const std::vector<std::vector<graph::Timestamp>> fixtures = {
        {0.1, 0.3, 0.5, 0.7, 0.8, 0.9, 1.0},
        {1.6e9, 1.6e9 + 400.0, 1.6e9 + 900.0, 1.6e9 + 1500.0,
         1.6e9 + 2000.0},
    };
    return fixtures;
}

class BatchEquivalence
    : public ::testing::TestWithParam<std::tuple<int, TransitionKind>>
{
};

TEST_P(BatchEquivalence, BatchedDrawsMatchScalarForAllWidths)
{
    const auto& times = battery_fixtures()[std::get<0>(GetParam())];
    const TransitionKind kind = std::get<1>(GetParam());
    const auto graph = star_graph(times);
    const auto candidates =
        graph.temporal_neighbors(0, graph.min_time(), false);
    const double rate = graph.time_range() > 0 ? graph.time_range() : 1.0;
    const std::vector<double> probs =
        analytic_probabilities(candidates, rate, kind);
    const int draws = kind_draws();

    const Corpus scalar =
        generate_walks(graph, star_config(kind, /*batch_width=*/1));
    const std::vector<int> scalar_counts =
        first_transition_counts(graph, scalar);

    // Widths 8, 16, and auto (0 — resolves to kAutoBatchWidth here).
    for (const unsigned width : {8u, 16u, 0u}) {
        const Corpus batched =
            generate_walks(graph, star_config(kind, width));
        ASSERT_EQ(batched.num_walks(), scalar.num_walks());
        const std::vector<int> counts =
            first_transition_counts(graph, batched);

        // Against the analytic law...
        const double stat = chi_square(counts, probs, draws);
        EXPECT_LT(stat, chi_square_critical(candidates.size() - 1))
            << transition_name(kind) << " width " << width << " fixture "
            << std::get<0>(GetParam());
        // ...and against the scalar engine's empirical distribution.
        EXPECT_LT(total_variation(counts, scalar_counts, draws), 0.02)
            << transition_name(kind) << " width " << width << " fixture "
            << std::get<0>(GetParam());
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsAllFixtures, BatchEquivalence,
    ::testing::Combine(::testing::Range(0, 2),
                       ::testing::Values(TransitionKind::kUniform,
                                         TransitionKind::kExponential,
                                         TransitionKind::kExponentialDecay,
                                         TransitionKind::kLinear)),
    [](const auto& param_info) {
        const char* fixture =
            std::get<0>(param_info.param) == 0 ? "spread" : "epoch_seconds";
        std::string label = std::string(fixture) + "_" +
                            transition_name(std::get<1>(param_info.param));
        for (char& c : label) {
            if (c == '-') {
                c = '_';
            }
        }
        return label;
    });

/// Golden two-hop fixture (same graph as the PR-2 cache golden test):
/// hand-computed softmax probabilities for both walk steps, checked
/// against the batched corpus end-to-end.
TEST(WalkBatch, GoldenTwoHopFixtureMatchesHandComputedProbabilities)
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
    config.batch_width = 8;
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

/// batch_width = 1 must reproduce the pre-batching scalar engine
/// byte-for-byte. The fingerprints below were captured from the
/// scalar engine before the batched path landed; any drift in the
/// width-1 corpus is a regression, not a re-baseline.
TEST(WalkBatch, WidthOneIsByteIdenticalToScalarEngine)
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
        config.batch_width = 1;
        config.seed = 4321;
        const Corpus corpus = generate_walks(graph, config);
        EXPECT_EQ(corpus_fingerprint(corpus), expected)
            << transition_name(kind);

        // An untouched default config (batch_width member default 1)
        // must take the same path.
        config.batch_width = 1;
        const Corpus again = generate_walks(graph, config);
        EXPECT_EQ(again.tokens(), corpus.tokens());
    }
}

/// Widths > 1 consume RNG streams differently from the scalar sampler
/// — corpora agree in law, not bytes. This locks the documented
/// divergence (and the reason batch_width is in the walk fingerprint).
TEST(WalkBatch, WidthsDivergeByteWiseButKeepCorpusShape)
{
    const auto edges = gen::generate_barabasi_albert(
        {.num_nodes = 200, .edges_per_node = 6, .seed = 12});
    const auto graph =
        graph::GraphBuilder::build(edges, {.symmetrize = true});
    WalkConfig config;
    config.walks_per_node = 4;
    config.max_length = 8;
    config.transition = TransitionKind::kExponential;
    config.transition_cache = TransitionCacheMode::kOn;
    config.seed = 5;

    config.batch_width = 1;
    const Corpus scalar = generate_walks(graph, config);
    config.batch_width = 8;
    const Corpus batched = generate_walks(graph, config);

    EXPECT_EQ(scalar.num_walks(), batched.num_walks());
    EXPECT_NE(scalar.tokens(), batched.tokens());
    // Same law: total token mass within a few percent.
    const double ratio = static_cast<double>(batched.num_tokens()) /
                         static_cast<double>(scalar.num_tokens());
    EXPECT_NEAR(ratio, 1.0, 0.05);
}

/// Each lane seeds its RNG stream from its slot, not its lane index,
/// so the batched corpus is invariant across widths > 1 (and across
/// refill order): w8, w16, and auto must agree byte-for-byte.
TEST(WalkBatch, WidthsAboveOneAreByteIdenticalToEachOther)
{
    const auto edges = gen::generate_barabasi_albert(
        {.num_nodes = 200, .edges_per_node = 6, .seed = 12});
    const auto graph =
        graph::GraphBuilder::build(edges, {.symmetrize = true});
    for (const TransitionKind kind :
         {TransitionKind::kUniform, TransitionKind::kLinear,
          TransitionKind::kExponential,
          TransitionKind::kExponentialDecay}) {
        WalkConfig config;
        config.walks_per_node = 4;
        config.max_length = 8;
        config.transition = kind;
        config.transition_cache = TransitionCacheMode::kOn;
        config.seed = 5;

        config.batch_width = 8;
        const Corpus w8 = generate_walks(graph, config);
        for (const unsigned width : {16u, 0u}) {
            config.batch_width = width;
            const Corpus other = generate_walks(graph, config);
            EXPECT_EQ(w8.tokens(), other.tokens())
                << transition_name(kind) << " width " << width;
            EXPECT_EQ(w8.offsets(), other.offsets())
                << transition_name(kind) << " width " << width;
        }
    }
}

TEST(WalkBatch, DeterministicAcrossThreadCounts)
{
    const auto edges = gen::generate_barabasi_albert(
        {.num_nodes = 300, .edges_per_node = 4, .seed = 8});
    const auto graph =
        graph::GraphBuilder::build(edges, {.symmetrize = true});
    for (const unsigned width : {8u, 16u}) {
        WalkConfig config;
        config.walks_per_node = 3;
        config.max_length = 8;
        config.transition = TransitionKind::kExponentialDecay;
        config.transition_cache = TransitionCacheMode::kOn;
        config.batch_width = width;
        config.seed = 2024;

        config.num_threads = 1;
        const Corpus serial = generate_walks(graph, config);
        for (const unsigned threads : {2u, 8u}) {
            config.num_threads = threads;
            const Corpus parallel = generate_walks(graph, config);
            ASSERT_EQ(serial.num_walks(), parallel.num_walks());
            EXPECT_EQ(serial.tokens(), parallel.tokens());
            EXPECT_EQ(serial.offsets(), parallel.offsets());
        }
    }
}

// ---- Property-based fuzz over WalkerBatch edge cases ----

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

TEST(WalkBatchFuzz, RandomConfigsProduceStructurallyValidCorpora)
{
    const unsigned widths[] = {2, 3, 5, 8, 16, 33};
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
        config.batch_width = widths[round % 6];
        config.seed = 1000 + static_cast<std::uint64_t>(round);

        WalkProfile profile;
        const Corpus corpus = generate_walks(graph, config, &profile);
        EXPECT_EQ(profile.walks_started,
                  total_walk_slots(graph, config));
        EXPECT_EQ(profile.walks_kept, corpus.num_walks());
        for (std::size_t w = 0; w < corpus.num_walks(); ++w) {
            check_walk_structure(graph, config, corpus.walk(w));
            if (::testing::Test::HasFatalFailure()) {
                return;
            }
        }
    }
}

TEST(WalkBatch, DeadEndFixtureDiesExactlyWhereScalarWould)
{
    // 0 -> 1 @2, 1 -> 2 @1: from 0 the walk reaches 1 with clock 2 and
    // must die (the only onward edge is in the past). From 1 the
    // non-strict first hop at min_time 1 reaches 2. Deterministic for
    // every width; the batch is ragged (3 nodes < width 16).
    graph::EdgeList edges;
    edges.add(0, 1, 2.0);
    edges.add(1, 2, 1.0);
    const auto graph = graph::GraphBuilder::build(edges);
    WalkConfig config;
    config.walks_per_node = 4;
    config.max_length = 5;
    config.transition = TransitionKind::kExponential;
    config.transition_cache = TransitionCacheMode::kOn;
    config.batch_width = 16;
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

TEST(WalkBatch, DegreeOneChainWalksDeterministically)
{
    // 0 -> 1 @1 -> 2 @2 -> 3 @3: every step has exactly one candidate,
    // so all kinds and widths produce the same tokens.
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
        config.batch_width = 8;
        const Corpus corpus = generate_walks(graph, config);
        ASSERT_EQ(corpus.num_walks(), 3u) << transition_name(kind);
        const std::vector<graph::NodeId> expected = {0, 1, 2, 3,
                                                     1, 2, 3,
                                                     2, 3};
        EXPECT_EQ(corpus.tokens(), expected) << transition_name(kind);
    }
}

TEST(WalkBatch, RaggedTailSmallerThanWidthIsComplete)
{
    // 2 nodes, 1 walk each = 2 slots against width 16: one ragged
    // batch must still cover every slot.
    graph::EdgeList edges;
    edges.add(0, 1, 1.0);
    const auto graph = graph::GraphBuilder::build(edges);
    WalkConfig config;
    config.walks_per_node = 1;
    config.max_length = 3;
    config.transition = TransitionKind::kUniform;
    config.batch_width = 16;
    WalkProfile profile;
    const Corpus corpus = generate_walks(graph, config, &profile);
    EXPECT_EQ(profile.walks_started, 2u);
    ASSERT_EQ(corpus.num_walks(), 1u);
    EXPECT_EQ(corpus.walk(0).size(), 2u);
}

TEST(WalkBatch, EdgeStartMaxLengthOneEmitsPairs)
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
    config.batch_width = 8;
    const Corpus corpus = generate_walks(graph, config);
    ASSERT_EQ(corpus.num_walks(), total_walk_slots(graph, config));
    for (std::size_t w = 0; w < corpus.num_walks(); ++w) {
        EXPECT_EQ(corpus.walk(w).size(), 2u);
    }
}

TEST(WalkBatch, EpochSecondTimestampsStayFiniteAndComplete)
{
    // Structural side of the overflow fixture (the distribution side
    // runs in the battery above): wide epoch-second stamps must not
    // break the lockstep searches.
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
    config.batch_width = 16;
    WalkProfile profile;
    const Corpus corpus = generate_walks(graph, config, &profile);
    EXPECT_EQ(profile.walks_started, total_walk_slots(graph, config));
    for (std::size_t w = 0; w < corpus.num_walks(); ++w) {
        check_walk_structure(graph, config, corpus.walk(w));
        if (::testing::Test::HasFatalFailure()) {
            return;
        }
    }
}

// ---- Resolution & plumbing ----

TEST(WalkBatch, ResolveWidthHonorsEligibilityRules)
{
    const auto edges = gen::generate_barabasi_albert(
        {.num_nodes = 100, .edges_per_node = 4, .seed = 2});
    const auto graph =
        graph::GraphBuilder::build(edges, {.symmetrize = true});
    WalkConfig config;
    config.transition = TransitionKind::kExponential;

    config.batch_width = 1;
    EXPECT_EQ(resolve_batch_width(config, graph, true), 1u);
    config.batch_width = 16;
    EXPECT_EQ(resolve_batch_width(config, graph, true), 16u);
    // Softmax kinds need the prefix-CDF cache.
    EXPECT_EQ(resolve_batch_width(config, graph, false), 1u);
    // Uniform and linear never do.
    config.transition = TransitionKind::kUniform;
    EXPECT_EQ(resolve_batch_width(config, graph, false), 16u);
    config.transition = TransitionKind::kLinear;
    EXPECT_EQ(resolve_batch_width(config, graph, false), 16u);
    // Auto resolves to the default width when eligible.
    config.batch_width = 0;
    EXPECT_EQ(resolve_batch_width(config, graph, false),
              kAutoBatchWidth);
    // The static baseline and the linear-scan ablation pin scalar.
    config.temporal = false;
    EXPECT_EQ(resolve_batch_width(config, graph, false), 1u);
    config.temporal = true;
    config.linear_neighbor_search = true;
    EXPECT_EQ(resolve_batch_width(config, graph, false), 1u);
    config.linear_neighbor_search = false;
    // Widths above the lane cap clamp instead of over-running the SoA.
    config.batch_width = 64;
    EXPECT_EQ(resolve_batch_width(config, graph, false), 64u);
}

TEST(WalkBatch, ParseBatchWidthAcceptsAutoAndRange)
{
    EXPECT_EQ(parse_batch_width("auto"), 0u);
    EXPECT_EQ(parse_batch_width("1"), 1u);
    EXPECT_EQ(parse_batch_width("8"), 8u);
    EXPECT_EQ(parse_batch_width("64"), 64u);
    EXPECT_THROW(parse_batch_width("0"), util::Error);
    EXPECT_THROW(parse_batch_width("65"), util::Error);
    EXPECT_THROW(parse_batch_width("bogus"), util::Error);
    EXPECT_THROW(parse_batch_width("-4"), util::Error);
}

TEST(WalkBatch, ConfigValidateRejectsOversizedWidth)
{
    WalkConfig config;
    config.batch_width = 65;
    EXPECT_FALSE(config.validate().empty());
    config.batch_width = 0;
    EXPECT_TRUE(config.validate().empty());
}

TEST(WalkBatch, IsaIntrospectionIsCoherent)
{
    const std::string isa = batch_isa_name();
    EXPECT_TRUE(isa == "avx2" || isa == "neon" || isa == "scalar") << isa;
    const std::size_t lanes = batch_f64_lanes();
    EXPECT_TRUE(lanes == 2 || lanes == 4) << lanes;
    if (isa == "avx2") {
        EXPECT_EQ(lanes, 4u);
    }
    if (isa == "neon") {
        EXPECT_EQ(lanes, 2u);
    }
}

} // namespace
} // namespace tgl::walk
