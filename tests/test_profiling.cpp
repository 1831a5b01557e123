/// Tests for the profiling substrate: op counters, the stall model and
/// the Fig. 3 comparison kernels.
#include "profiling/comparison_kernels.hpp"
#include "profiling/op_counters.hpp"
#include "profiling/stall_model.hpp"

#include "gen/erdos_renyi.hpp"
#include "graph/builder.hpp"
#include "walk/engine.hpp"

#include <gtest/gtest.h>

#include <numeric>

namespace tgl::prof {
namespace {

walk::WalkProfile
measured_walk_profile(walk::TransitionKind transition)
{
    const auto edges = gen::generate_erdos_renyi(
        {.num_nodes = 500, .num_edges = 5000, .seed = 1});
    const auto graph = graph::GraphBuilder::build(edges);
    walk::WalkConfig config;
    config.walks_per_node = 5;
    config.max_length = 6;
    config.transition = transition;
    // These tests characterize the paper's direct exp-scan kernel
    // (Fig. 9 instruction mix); the prefix-CDF cache deliberately
    // changes that mix, so keep it out of the measurement.
    config.transition_cache = walk::TransitionCacheMode::kOff;
    walk::WalkProfile profile;
    walk::generate_walks(graph, config, &profile);
    return profile;
}

TEST(OpCounts, FractionsSumToOne)
{
    const OpCounts counts = walk_op_counts(
        measured_walk_profile(walk::TransitionKind::kExponential));
    EXPECT_GT(counts.total(), 0u);
    EXPECT_NEAR(counts.memory_fraction() + counts.branch_fraction() +
                    counts.compute_fraction() + counts.other_fraction(),
                1.0, 1e-9);
}

TEST(OpCounts, WalkHasSubstantialComputeAndMemory)
{
    // Fig. 9's headline: the walk kernel is NOT load-dominated like
    // classic traversals — compute and memory are both heavy.
    const OpCounts counts = walk_op_counts(
        measured_walk_profile(walk::TransitionKind::kExponential));
    EXPECT_GT(counts.compute_fraction(), 0.25);
    EXPECT_GT(counts.memory_fraction(), 0.15);
}

TEST(OpCounts, UniformTransitionShiftsMixTowardMemory)
{
    const OpCounts exp_counts = walk_op_counts(
        measured_walk_profile(walk::TransitionKind::kExponential));
    const OpCounts uni_counts = walk_op_counts(
        measured_walk_profile(walk::TransitionKind::kUniform));
    EXPECT_GT(exp_counts.compute_fraction(),
              uni_counts.compute_fraction());
}

TEST(OpCounts, W2vScalesWithPairs)
{
    embed::SgnsConfig config;
    config.dim = 8;
    config.negatives = 5;
    embed::TrainStats small, large;
    small.pairs_trained = 1000;
    large.pairs_trained = 10000;
    const OpCounts a = w2v_op_counts(small, config);
    const OpCounts b = w2v_op_counts(large, config);
    EXPECT_EQ(a.total() * 10, b.total());
    EXPECT_GT(a.memory_fraction(), 0.3); // embedding-row traffic heavy
}

TEST(OpCounts, ClassifierComputeDominatedAndTrainingCostsMore)
{
    const std::vector<std::size_t> dims = {16, 16, 1};
    const OpCounts inference =
        classifier_op_counts(256, dims, 10, false);
    const OpCounts training = classifier_op_counts(256, dims, 10, true);
    EXPECT_GT(training.total(), 2 * inference.total());
    EXPECT_GT(inference.compute_fraction(), 0.4); // GEMM flops dominate
}

TEST(OpCounts, FormatIncludesPercentages)
{
    OpCounts counts;
    counts.memory = 30;
    counts.branch = 10;
    counts.compute = 40;
    counts.other = 20;
    const std::string text = format_op_counts("kernel", counts);
    EXPECT_NE(text.find("mem 30.0%"), std::string::npos);
    EXPECT_NE(text.find("compute 40.0%"), std::string::npos);
}

TEST(StallModel, DistributionSumsToOne)
{
    const StallModelInput input = walk_stall_input(
        measured_walk_profile(walk::TransitionKind::kExponential),
        walk::TransitionKind::kExponential);
    const StallDistribution stalls = attribute_stalls(input);
    EXPECT_NEAR(std::accumulate(stalls.begin(), stalls.end(), 0.0), 1.0,
                1e-9);
    for (double s : stalls) {
        EXPECT_GE(s, 0.0);
    }
}

TEST(StallModel, FoldedAxesPartitionTheDistribution)
{
    const StallDistribution stalls = attribute_stalls(walk_stall_input(
        measured_walk_profile(walk::TransitionKind::kExponential),
        walk::TransitionKind::kExponential));
    const FoldedStalls folded = fold_stalls_frontend_backend(stalls);
    EXPECT_NEAR(folded.frontend + folded.backend, 1.0, 1e-9);
    // Frontend is exactly the instruction-delivery share.
    EXPECT_DOUBLE_EQ(folded.frontend,
                     stalls[static_cast<std::size_t>(
                         StallCategory::kInstructionCacheMiss)]);
    EXPECT_GT(folded.backend, folded.frontend); // data-side dominates
}

TEST(StallModel, WalkKernelDominatedByComputeDependency)
{
    // Fig. 11: the walk kernel's top stall cause is compute
    // dependency (54.1% in the paper), from the exp()-heavy sampling.
    const StallModelInput input = walk_stall_input(
        measured_walk_profile(walk::TransitionKind::kExponential),
        walk::TransitionKind::kExponential);
    const StallDistribution stalls = attribute_stalls(input);
    const double compute_dep = stalls[static_cast<std::size_t>(
        StallCategory::kComputeDependency)];
    for (std::size_t i = 0; i < stalls.size(); ++i) {
        if (i != static_cast<std::size_t>(
                     StallCategory::kComputeDependency)) {
            EXPECT_GE(compute_dep, stalls[i])
                << stall_category_name(static_cast<StallCategory>(i));
        }
    }
}

TEST(StallModel, W2vDominatedByMemoryDependency)
{
    embed::SgnsConfig config;
    config.dim = 8;
    embed::TrainStats stats;
    stats.pairs_trained = 1000000;
    const StallDistribution stalls =
        attribute_stalls(w2v_stall_input(stats, config));
    const double memory_dep = stalls[static_cast<std::size_t>(
        StallCategory::kScoreboardMemory)];
    for (std::size_t i = 0; i < stalls.size(); ++i) {
        if (i != static_cast<std::size_t>(
                     StallCategory::kScoreboardMemory)) {
            EXPECT_GE(memory_dep, stalls[i])
                << stall_category_name(static_cast<StallCategory>(i));
        }
    }
}

TEST(StallModel, TinyClassifierDominatedByImcMisses)
{
    // Fig. 11: train/test kernels stall mostly on IMC misses because
    // the layers are tiny (few warps, no constant reuse).
    const OpCounts ops =
        classifier_op_counts(256, {16, 16, 1}, 1, true);
    const StallDistribution stalls = attribute_stalls(
        classifier_stall_input(256, 16, ops));
    const double imc =
        stalls[static_cast<std::size_t>(StallCategory::kImcMiss)];
    const double compute_dep = stalls[static_cast<std::size_t>(
        StallCategory::kComputeDependency)];
    const double memory_dep = stalls[static_cast<std::size_t>(
        StallCategory::kScoreboardMemory)];
    EXPECT_GT(imc, compute_dep);
    EXPECT_GT(imc, memory_dep);
}

TEST(StallModel, KernelsExhibitDistinctBottlenecks)
{
    // The paper's second insight: no single optimization helps all
    // kernels because their dominant stalls differ.
    const StallDistribution walk_stalls = attribute_stalls(
        walk_stall_input(measured_walk_profile(
                             walk::TransitionKind::kExponential),
                         walk::TransitionKind::kExponential));
    embed::TrainStats stats;
    stats.pairs_trained = 1000000;
    embed::SgnsConfig config;
    const StallDistribution w2v_stalls =
        attribute_stalls(w2v_stall_input(stats, config));
    const auto argmax = [](const StallDistribution& d) {
        return std::distance(
            d.begin(), std::max_element(d.begin(), d.end()));
    };
    EXPECT_NE(argmax(walk_stalls), argmax(w2v_stalls));
}

TEST(StallModel, FormatSortsDescending)
{
    StallDistribution stalls{};
    stalls[0] = 0.1;
    stalls[1] = 0.6;
    stalls[3] = 0.3;
    const std::string text = format_stalls("k", stalls);
    const auto pos_top = text.find("compute-dep");
    const auto pos_second = text.find("memory-dep");
    const auto pos_third = text.find("imc-miss");
    EXPECT_LT(pos_top, pos_second);
    EXPECT_LT(pos_second, pos_third);
}

TEST(ComparisonKernels, BfsVisitsConnectedGraph)
{
    const auto edges = gen::generate_erdos_renyi(
        {.num_nodes = 2000, .num_edges = 20000, .seed = 2});
    const auto graph =
        graph::GraphBuilder::build(edges, {.symmetrize = true});
    const ProxyMetrics metrics = run_bfs_kernel(graph, 0);
    EXPECT_EQ(metrics.name, "BFS");
    EXPECT_GT(metrics.seconds, 0.0);
    EXPECT_GT(metrics.irregularity, 0.5);
    EXPECT_GE(metrics.load_imbalance, 1.0);
}

TEST(ComparisonKernels, DenseStackIsRegular)
{
    const ProxyMetrics metrics =
        run_dense_stack_kernel(128, {256, 128, 64});
    EXPECT_EQ(metrics.name, "VGG-proxy");
    EXPECT_GT(metrics.seconds, 0.0);
    EXPECT_LT(metrics.irregularity, 0.1);
    EXPECT_GT(metrics.cache_hit_proxy, 0.5);
}

TEST(ComparisonKernels, SpmmRuns)
{
    const auto edges = gen::generate_erdos_renyi(
        {.num_nodes = 1000, .num_edges = 10000, .seed = 3});
    const auto graph = graph::GraphBuilder::build(edges);
    const ProxyMetrics metrics = run_spmm_kernel(graph, 32, 16);
    EXPECT_EQ(metrics.name, "GCN-proxy");
    EXPECT_GT(metrics.seconds, 0.0);
    EXPECT_GT(metrics.irregularity, 0.1);
    EXPECT_LT(metrics.irregularity, 0.8);
}

TEST(ComparisonKernels, CacheModelMonotone)
{
    const double small = cache_hit_model(1 << 10, 0.2);
    const double large = cache_hit_model(std::size_t{1} << 36, 0.2);
    EXPECT_DOUBLE_EQ(small, 1.0);
    EXPECT_LT(large, 0.5);
    EXPECT_GE(large, 0.2);
}

TEST(ComparisonKernels, StreamBandwidthPositiveAndCached)
{
    const double first = host_stream_bandwidth();
    const double second = host_stream_bandwidth();
    EXPECT_GT(first, 1e8); // any modern host exceeds 100 MB/s
    EXPECT_DOUBLE_EQ(first, second);
}

} // namespace
} // namespace tgl::prof
