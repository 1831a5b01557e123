/// Statistical-equivalence tests for the prefix-CDF transition cache:
/// the cached O(log d) draw must realize exactly the same distribution
/// as the direct O(d) exp-scan (walk/transition.hpp) for every
/// TransitionKind, including on adversarial inputs — timestamp ties,
/// one-candidate suffixes, and raw epoch-second timestamps whose naive
/// exp(t/r) would overflow.
#include "walk/transition_cache.hpp"

#include "gen/barabasi_albert.hpp"
#include "graph/builder.hpp"
#include "util/error.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <sstream>
#include <vector>

namespace tgl::walk {
namespace {

/// Star graph: vertex 0 fans out to one leaf per timestamp. The
/// builder time-sorts the slice, so temporal_neighbors(0, now) hands
/// back exactly the suffix the cache must reweigh.
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
/// suffix, computed with the same log-space shift the samplers use so
/// the expectation itself cannot overflow.
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

std::vector<int>
draw_cached(const graph::TemporalGraph& graph, const TransitionCache& cache,
            std::span<const graph::Neighbor> candidates,
            graph::Timestamp now, int draws, std::uint64_t seed)
{
    rng::Random random(seed);
    std::vector<int> counts(candidates.size(), 0);
    for (int i = 0; i < draws; ++i) {
        const std::size_t pick =
            cache.sample(graph, 0, candidates, now, random);
        EXPECT_LT(pick, candidates.size());
        ++counts[pick];
    }
    return counts;
}

std::vector<int>
draw_direct(std::span<const graph::Neighbor> candidates,
            graph::Timestamp now, double rate, TransitionKind kind,
            int draws, std::uint64_t seed)
{
    rng::Random random(seed);
    std::vector<int> counts(candidates.size(), 0);
    for (int i = 0; i < draws; ++i) {
        ++counts[sample_transition(candidates, now, rate, kind, random)];
    }
    return counts;
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

/// Wilson–Hilferty upper critical value of chi-square with @p df
/// degrees of freedom at z = 3.29 (p ~ 5e-4). The draws are seeded, so
/// a pass is reproducible — the slack only needs to absorb the fixed
/// realization, not repeated sampling.
double
chi_square_critical(std::size_t df)
{
    const double d = static_cast<double>(df);
    const double z = 3.29;
    const double term = 1.0 - 2.0 / (9.0 * d) + z * std::sqrt(2.0 / (9.0 * d));
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

/// Draws per equivalence check. The nightly `ctest -L equivalence`
/// job sets TGL_EQUIV_DRAWS to multiply the sample size for tighter
/// statistical power; per-commit runs use the base count.
int
equiv_draws()
{
    const char* env = std::getenv("TGL_EQUIV_DRAWS");
    const long mult =
        env != nullptr ? std::strtol(env, nullptr, 10) : 1;
    return 200000 * (mult > 1 ? static_cast<int>(mult) : 1);
}

const int kDraws = equiv_draws();

/// One fixture = one candidate-suffix query on one graph.
struct EquivalenceCase
{
    const char* name;
    std::vector<graph::Timestamp> times;
    graph::Timestamp now; ///< suffix cut (non-strict)
};

std::vector<EquivalenceCase>
equivalence_cases()
{
    return {
        // Full slice, well-spread timestamps.
        {"full-slice", {0.1, 0.3, 0.5, 0.7, 0.8, 0.9, 1.0}, 0.0},
        // Proper suffix: only the last four candidates are valid.
        {"proper-suffix", {0.1, 0.3, 0.5, 0.7, 0.8, 0.9, 1.0}, 0.65},
        // Heavy timestamp ties: equal times must get equal mass.
        {"ties", {0.5, 0.5, 0.5, 0.5, 0.9, 0.9}, 0.5},
        // Raw epoch seconds: naive exp(t/r) with r = 2000 overflows
        // (exp(800000)); the shifted prefix table must not.
        {"epoch-seconds",
         {1.6e9, 1.6e9 + 400.0, 1.6e9 + 900.0, 1.6e9 + 1500.0,
          1.6e9 + 2000.0},
         1.6e9},
        // Huge span: exponents collapse toward 0 without underflow.
        {"huge-range", {0.0, 2.5e14, 5.0e14, 1.0e15}, 0.0},
    };
}

class CacheEquivalence
    : public ::testing::TestWithParam<std::tuple<int, TransitionKind>>
{
};

TEST_P(CacheEquivalence, CachedDrawMatchesAnalyticDistribution)
{
    const EquivalenceCase fixture =
        equivalence_cases()[std::get<0>(GetParam())];
    const TransitionKind kind = std::get<1>(GetParam());
    const auto graph = star_graph(fixture.times);
    const TransitionCache cache = TransitionCache::build(graph, kind);
    const auto candidates =
        graph.temporal_neighbors(0, fixture.now, /*strict=*/false);
    ASSERT_GT(candidates.size(), 1u) << fixture.name;

    const double rate = graph.time_range() > 0 ? graph.time_range() : 1.0;
    const std::vector<double> probs =
        analytic_probabilities(candidates, rate, kind);
    const std::vector<int> counts =
        draw_cached(graph, cache, candidates, fixture.now, kDraws, 42);

    const double stat = chi_square(counts, probs, kDraws);
    EXPECT_LT(stat, chi_square_critical(candidates.size() - 1))
        << fixture.name << " / " << transition_name(kind);

    // Same distribution as the direct exp-scan on the same query (the
    // draw sequences differ; only the law must agree).
    const std::vector<int> direct = draw_direct(
        candidates, fixture.now, rate, kind, kDraws, 43);
    EXPECT_LT(total_variation(counts, direct, kDraws), 0.02)
        << fixture.name << " / " << transition_name(kind);
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsAllFixtures, CacheEquivalence,
    ::testing::Combine(
        ::testing::Range(0, 5),
        ::testing::Values(TransitionKind::kUniform,
                          TransitionKind::kExponential,
                          TransitionKind::kExponentialDecay,
                          TransitionKind::kLinear)),
    [](const auto& param_info) {
        std::string label =
            equivalence_cases()[std::get<0>(param_info.param)].name +
            std::string("_") +
            transition_name(std::get<1>(param_info.param));
        // gtest parameter names allow only [A-Za-z0-9_].
        for (char& c : label) {
            if (c == '-') {
                c = '_';
            }
        }
        return label;
    });

TEST(TransitionCache, SingleCandidateSuffixAlwaysPicked)
{
    const auto graph = star_graph({0.1, 0.4, 0.9});
    const TransitionCache cache =
        TransitionCache::build(graph, TransitionKind::kExponential);
    // now = 0.8 leaves exactly one valid candidate.
    const auto candidates = graph.temporal_neighbors(0, 0.8, false);
    ASSERT_EQ(candidates.size(), 1u);
    rng::Random random(7);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(cache.sample(graph, 0, candidates, 0.8, random), 0u);
    }
}

TEST(TransitionCache, EmptyCandidatesReturnSize)
{
    const auto graph = star_graph({0.1, 0.4});
    const TransitionCache cache =
        TransitionCache::build(graph, TransitionKind::kExponential);
    rng::Random random(8);
    EXPECT_EQ(cache.sample(graph, 0, {}, 2.0, random), 0u);
}

TEST(TransitionCache, TiedTimestampsSplitMassEvenly)
{
    const auto graph = star_graph({0.5, 0.5, 0.5, 0.5});
    for (const TransitionKind kind : {TransitionKind::kExponential,
                                      TransitionKind::kExponentialDecay}) {
        const TransitionCache cache = TransitionCache::build(graph, kind);
        const auto candidates = graph.temporal_neighbors(0, 0.0, false);
        const std::vector<int> counts =
            draw_cached(graph, cache, candidates, 0.0, kDraws, 11);
        for (int c : counts) {
            EXPECT_NEAR(c / static_cast<double>(kDraws), 0.25, 0.01);
        }
    }
}

TEST(TransitionCache, PrefixTableFiniteForEpochTimestamps)
{
    // The overflow-adversarial fixture, checked structurally: the
    // serialized table round-trips, which the loader only allows for
    // all-finite entries.
    const auto graph =
        star_graph({1.6e9, 1.6e9 + 500.0, 1.6e9 + 1000.0, 1.6e9 + 2000.0});
    const TransitionCache cache =
        TransitionCache::build(graph, TransitionKind::kExponential);
    std::stringstream stream;
    cache.save_binary(stream, 99);
    EXPECT_NO_THROW(TransitionCache::load_binary(stream));
}

TEST(TransitionCache, MemoryModelMatchesKind)
{
    const auto graph = star_graph({0.1, 0.2, 0.3, 0.4, 0.5});
    const std::size_t edges = graph.num_edges();
    EXPECT_EQ(TransitionCache::build(graph, TransitionKind::kExponential)
                  .memory_bytes(),
              edges * sizeof(double));
    EXPECT_EQ(TransitionCache::build(graph,
                                     TransitionKind::kExponentialDecay)
                  .memory_bytes(),
              edges * sizeof(double));
    // kUniform and kLinear are computed closed-form: no table.
    EXPECT_EQ(TransitionCache::build(graph, TransitionKind::kUniform)
                  .memory_bytes(),
              0u);
    EXPECT_EQ(TransitionCache::build(graph, TransitionKind::kLinear)
                  .memory_bytes(),
              0u);
}

TEST(TransitionCache, BuildCostScalesWithTable)
{
    const auto graph = star_graph({0.1, 0.2, 0.3, 0.4});
    const TransitionCost cost =
        TransitionCache::build(graph, TransitionKind::kExponential)
            .build_cost();
    EXPECT_GT(cost.compute_ops, 0u);
    EXPECT_GT(cost.memory_ops, 0u);
    const TransitionCost none =
        TransitionCache::build(graph, TransitionKind::kUniform)
            .build_cost();
    EXPECT_EQ(none.compute_ops, 0u);
}

TEST(TransitionCache, ArtifactRoundTripPreservesSampling)
{
    const auto edges = gen::generate_barabasi_albert(
        {.num_nodes = 200, .edges_per_node = 4, .seed = 17});
    const auto graph =
        graph::GraphBuilder::build(edges, {.symmetrize = true});
    const TransitionCache original =
        TransitionCache::build(graph, TransitionKind::kExponentialDecay);

    std::stringstream stream;
    original.save_binary(stream, 0xfeedbeef);
    std::uint64_t fingerprint = 0;
    const TransitionCache loaded =
        TransitionCache::load_binary(stream, &fingerprint);
    EXPECT_EQ(fingerprint, 0xfeedbeefu);
    EXPECT_EQ(loaded.kind(), original.kind());
    EXPECT_EQ(loaded.memory_bytes(), original.memory_bytes());

    // Same seed through both caches must give identical picks on every
    // vertex: the tables are bit-equal.
    for (graph::NodeId u = 0; u < graph.num_nodes(); ++u) {
        const auto candidates =
            graph.temporal_neighbors(u, graph.min_time(), false);
        if (candidates.size() < 2) {
            continue;
        }
        rng::Random a(u + 1), b(u + 1);
        for (int i = 0; i < 32; ++i) {
            EXPECT_EQ(original.sample(graph, u, candidates,
                                      graph.min_time(), a),
                      loaded.sample(graph, u, candidates,
                                    graph.min_time(), b));
        }
    }
}

TEST(TransitionCache, CorruptArtifactRejected)
{
    const auto graph = star_graph({0.1, 0.5, 0.9});
    const TransitionCache cache =
        TransitionCache::build(graph, TransitionKind::kExponential);
    std::stringstream stream;
    cache.save_binary(stream, 1);
    std::string bytes = stream.str();

    // Flip one payload byte: the container CRC must catch it.
    std::string corrupt = bytes;
    corrupt[corrupt.size() - 5] ^= 0x40;
    std::istringstream corrupt_in(corrupt);
    EXPECT_THROW(TransitionCache::load_binary(corrupt_in), util::Error);

    // Truncation is a container error too, not a silent short read.
    std::istringstream truncated(bytes.substr(0, bytes.size() / 2));
    EXPECT_THROW(TransitionCache::load_binary(truncated), util::Error);
}

TEST(TransitionCache, UseHeuristicRespectsModeAndDegree)
{
    // Mean degree 2 (star, symmetrized off): auto declines, on forces.
    const auto sparse = star_graph({0.1, 0.2, 0.3, 0.4});
    WalkConfig config;
    config.transition = TransitionKind::kExponential;
    config.transition_cache = TransitionCacheMode::kAuto;
    EXPECT_FALSE(use_transition_cache(config, sparse));
    config.transition_cache = TransitionCacheMode::kOn;
    EXPECT_TRUE(use_transition_cache(config, sparse));
    config.transition_cache = TransitionCacheMode::kOff;
    EXPECT_FALSE(use_transition_cache(config, sparse));

    // Dense graph (mean degree >= kTransitionCacheAutoMeanDegree):
    // auto enables — but never for uniform or static walks, where the
    // cached draw saves nothing.
    const auto edges = gen::generate_barabasi_albert(
        {.num_nodes = 100, .edges_per_node = 8, .seed = 5});
    const auto dense =
        graph::GraphBuilder::build(edges, {.symmetrize = true});
    ASSERT_GE(static_cast<double>(dense.num_edges()) / dense.num_nodes(),
              kTransitionCacheAutoMeanDegree);
    config.transition_cache = TransitionCacheMode::kAuto;
    EXPECT_TRUE(use_transition_cache(config, dense));
    config.transition = TransitionKind::kUniform;
    EXPECT_FALSE(use_transition_cache(config, dense));
    config.transition = TransitionKind::kExponential;
    config.temporal = false;
    EXPECT_FALSE(use_transition_cache(config, dense));
    config.transition_cache = TransitionCacheMode::kOn;
    EXPECT_FALSE(use_transition_cache(config, dense));
}

TEST(TransitionCache, ModeNamesRoundTrip)
{
    for (const TransitionCacheMode mode :
         {TransitionCacheMode::kOff, TransitionCacheMode::kOn,
          TransitionCacheMode::kAuto}) {
        EXPECT_EQ(parse_transition_cache_mode(
                      transition_cache_mode_name(mode)),
                  mode);
    }
    EXPECT_THROW(parse_transition_cache_mode("bogus"), util::Error);
}

TEST(TransitionCache, CostAccountingIsLogarithmicNotLinear)
{
    // The honest-accounting contract: a cached softmax draw reports
    // O(log d) work, far below the direct scan's O(d).
    std::vector<graph::Timestamp> times(256);
    for (std::size_t i = 0; i < times.size(); ++i) {
        times[i] = static_cast<double>(i);
    }
    const auto graph = star_graph(times);
    const TransitionCache cache =
        TransitionCache::build(graph, TransitionKind::kExponential);
    const auto candidates = graph.temporal_neighbors(0, 0.0, false);

    rng::Random random(3);
    TransitionCost cached_cost;
    cache.sample(graph, 0, candidates, 0.0, random, &cached_cost);
    TransitionCost direct_cost;
    sample_transition(candidates, 0.0, graph.time_range(),
                      TransitionKind::kExponential, random, &direct_cost);
    EXPECT_LT(cached_cost.compute_ops * 4, direct_cost.compute_ops);
    EXPECT_LT(cached_cost.memory_ops * 4, direct_cost.memory_ops);
}

/// Golden-walk fixture: a two-hop graph small enough to write every
/// per-step probability down exactly, checked empirically through the
/// *public* candidate-query + sample interface for both samplers.
TEST(TransitionCache, GoldenFixtureMatchesHandComputedProbabilities)
{
    // Vertex 0 fans to {1@1, 2@2, 3@3}; vertex 1 fans to {4@1, 5@2,
    // 6@3}. Global time range r = 3 - 1 = 2.
    graph::EdgeList edges;
    edges.add(0, 1, 1.0);
    edges.add(0, 2, 2.0);
    edges.add(0, 3, 3.0);
    edges.add(1, 4, 1.0);
    edges.add(1, 5, 2.0);
    edges.add(1, 6, 3.0);
    const auto graph = graph::GraphBuilder::build(edges);
    ASSERT_DOUBLE_EQ(graph.time_range(), 2.0);
    const TransitionCache cache =
        TransitionCache::build(graph, TransitionKind::kExponential);

    // Step 1 from vertex 0 at now = min_time = 1 (full slice):
    //   w_i = exp((t_i - 3) / 2) -> {e^-1, e^-1/2, 1}.
    const double w1 = std::exp(-1.0), w2 = std::exp(-0.5), w3 = 1.0;
    const double total_0 = w1 + w2 + w3;
    const std::vector<double> step1 = {w1 / total_0, w2 / total_0,
                                       w3 / total_0};

    // Step 2 from vertex 1 after arriving via 0->2 @2 (now = 2,
    // non-strict): valid suffix {5@2, 6@3}, w = {e^-1/2, 1}.
    const double total_1 = w2 + w3;
    const std::vector<double> step2 = {w2 / total_1, w3 / total_1};

    const int draws = 100000;
    struct Query
    {
        graph::NodeId u;
        graph::Timestamp now;
        const std::vector<double>* expected;
    };
    const Query queries[] = {{0, 1.0, &step1}, {1, 2.0, &step2}};
    for (const Query& q : queries) {
        const auto candidates =
            graph.temporal_neighbors(q.u, q.now, false);
        ASSERT_EQ(candidates.size(), q.expected->size());

        rng::Random cached_rng(101), direct_rng(202);
        std::vector<int> cached(candidates.size(), 0);
        std::vector<int> direct(candidates.size(), 0);
        for (int i = 0; i < draws; ++i) {
            ++cached[cache.sample(graph, q.u, candidates, q.now,
                                  cached_rng)];
            ++direct[sample_transition(candidates, q.now,
                                       graph.time_range(),
                                       TransitionKind::kExponential,
                                       direct_rng)];
        }
        for (std::size_t i = 0; i < candidates.size(); ++i) {
            const double expect = (*q.expected)[i];
            EXPECT_NEAR(cached[i] / static_cast<double>(draws), expect,
                        0.01)
                << "cached, vertex " << q.u << " candidate " << i;
            EXPECT_NEAR(direct[i] / static_cast<double>(draws), expect,
                        0.01)
                << "direct, vertex " << q.u << " candidate " << i;
        }
    }
}

} // namespace
} // namespace tgl::walk
