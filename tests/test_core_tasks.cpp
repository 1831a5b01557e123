/// End-to-end tests of the downstream tasks on structured graphs where
/// learnability is guaranteed by construction.
#include "core/link_prediction.hpp"
#include "core/link_property_prediction.hpp"
#include "core/node_classification.hpp"
#include "core/pipeline.hpp"

#include "embed/trainer.hpp"
#include "gen/sbm.hpp"
#include "graph/builder.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "walk/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

namespace tgl::core {
namespace {

/// Shared front-end on a strongly assortative SBM: walks stay inside
/// communities, so embeddings separate them.
struct FrontEnd
{
    gen::LabeledGraph labeled;
    graph::TemporalGraph graph;
    embed::Embedding embedding;
};

FrontEnd
run_front_end(std::uint64_t seed)
{
    FrontEnd result;
    result.labeled = gen::generate_sbm({.num_nodes = 300,
                                        .num_edges = 6000,
                                        .num_communities = 3,
                                        .intra_probability = 0.9,
                                        .label_noise = 0.0,
                                        .seed = seed});
    result.graph = graph::GraphBuilder::build(result.labeled.edges,
                                              {.symmetrize = true});
    walk::WalkConfig walk_config;
    walk_config.walks_per_node = 10;
    walk_config.max_length = 6;
    walk_config.seed = seed;
    const walk::Corpus corpus =
        walk::generate_walks(result.graph, walk_config);
    embed::SgnsConfig sgns;
    sgns.dim = 8;
    sgns.epochs = 5;
    sgns.seed = seed;
    result.embedding = embed::train_sgns(
        corpus, result.graph.num_nodes(), sgns);
    return result;
}

ClassifierConfig
fast_classifier()
{
    ClassifierConfig config;
    config.max_epochs = 25;
    config.batch_size = 128;
    config.lr = 0.05f;
    config.momentum = 0.9f;
    return config;
}

TEST(LinkPrediction, BeatsCoinFlipOnStructuredGraph)
{
    const FrontEnd fe = run_front_end(1);
    const LinkSplits splits = prepare_link_splits(
        fe.labeled.edges, fe.graph, SplitConfig{});
    const TaskResult result =
        run_link_prediction(splits, fe.embedding, fast_classifier());

    EXPECT_GT(result.test_accuracy, 0.6);
    EXPECT_GT(result.test_auc, 0.65);
    EXPECT_EQ(result.epochs_run, 25u);
    EXPECT_GT(result.train_seconds, 0.0);
    EXPECT_NEAR(result.seconds_per_epoch,
                result.train_seconds / result.epochs_run, 1e-9);
}

TEST(LinkPrediction, EarlyStopOnTargetAccuracy)
{
    const FrontEnd fe = run_front_end(2);
    const LinkSplits splits = prepare_link_splits(
        fe.labeled.edges, fe.graph, SplitConfig{});
    ClassifierConfig config = fast_classifier();
    config.max_epochs = 100;
    config.target_valid_accuracy = 0.55; // easily reached
    const TaskResult result =
        run_link_prediction(splits, fe.embedding, config);
    EXPECT_LT(result.epochs_run, 100u);
    EXPECT_GE(result.valid_accuracy, 0.55);
}

/// The util::Error message @p run fails with, or "" when it returns.
std::string
error_message(const std::function<void()>& run)
{
    try {
        run();
    } catch (const util::Error& error) {
        return error.what();
    }
    return "";
}

/// The message run_link_prediction fails with on the first @p count
/// edges of a chain, or "" when it trains.
std::string
tiny_edge_list_error(unsigned count)
{
    graph::EdgeList edges;
    for (unsigned i = 0; i < count; ++i) {
        edges.add(i, i + 1, static_cast<double>(i));
    }
    const graph::TemporalGraph graph =
        graph::GraphBuilder::build(edges, {.symmetrize = true});
    const LinkSplits splits =
        prepare_link_splits(edges, graph, SplitConfig{});
    embed::Embedding embedding(graph.num_nodes(), 4);
    return error_message([&] {
        run_link_prediction(splits, embedding, fast_classifier());
    });
}

TEST(LinkPrediction, OneEdgeListFailsOnTheEmptyTrainSplit)
{
    // floor(0.6 * 1) = 0 train rows: the epoch loss would be 0/0.
    EXPECT_NE(tiny_edge_list_error(1).find("train split is empty"),
              std::string::npos);
}

TEST(LinkPrediction, FourEdgeListFailsOnTheEmptyTestSplit)
{
    // floor(0.2 * 4) = 0 test rows: AUC 0.5 over nothing.
    EXPECT_NE(tiny_edge_list_error(4).find("test split is empty"),
              std::string::npos);
}

TEST(NodeClassification, OneNodeFailsOnTheEmptyTrainSplit)
{
    // floor(0.6 * 1) = 0 train rows: the epoch loss would be 0/0.
    const NodeSplits splits = prepare_node_splits(1, SplitConfig{});
    const std::vector<std::uint32_t> labels = {0};
    const embed::Embedding embedding(1, 4);
    EXPECT_NE(error_message([&] {
                  run_node_classification(splits, labels, 2, embedding,
                                          fast_classifier());
              }).find("train split is empty"),
              std::string::npos);
}

TEST(LinkProperty, OneEdgeFailsOnTheEmptyTrainSplit)
{
    graph::EdgeList edges;
    edges.add(0, 1, 0.0);
    const std::vector<std::uint32_t> labels = {0};
    const embed::Embedding embedding(2, 4);
    EXPECT_NE(error_message([&] {
                  run_link_property_prediction(edges, labels, 2, embedding,
                                               SplitConfig{},
                                               fast_classifier());
              }).find("train split is empty"),
              std::string::npos);
}

TEST(NodeClassification, RecoversCommunityLabels)
{
    const FrontEnd fe = run_front_end(3);
    const NodeSplits splits =
        prepare_node_splits(fe.graph.num_nodes(), SplitConfig{});
    const TaskResult result = run_node_classification(
        splits, fe.labeled.labels, 3, fe.embedding, fast_classifier());

    // Chance is 1/3; community structure should push far above it.
    EXPECT_GT(result.test_accuracy, 0.6);
    EXPECT_GT(result.test_macro_f1, 0.55);
}

TEST(NodeClassification, RandomEmbeddingIsNoBetterThanChance)
{
    // Control experiment: zero-information embeddings must not beat
    // chance by much — guards against metric/plumbing bugs that leak
    // labels into features.
    const FrontEnd fe = run_front_end(4);
    embed::Embedding random_embedding(fe.graph.num_nodes(), 8);
    rng::Random random(5);
    for (graph::NodeId u = 0; u < fe.graph.num_nodes(); ++u) {
        for (float& v : random_embedding.row(u)) {
            v = random.next_float() - 0.5f;
        }
    }
    const NodeSplits splits =
        prepare_node_splits(fe.graph.num_nodes(), SplitConfig{});
    const TaskResult result = run_node_classification(
        splits, fe.labeled.labels, 3, random_embedding,
        fast_classifier());
    EXPECT_LT(result.test_accuracy, 0.55);
}

TEST(LinkProperty, TimeBucketLabelsCoverClasses)
{
    const auto labeled = gen::generate_sbm({.num_nodes = 50,
                                            .num_edges = 1000,
                                            .num_communities = 2,
                                            .seed = 6});
    const auto labels = label_edges_by_time(labeled.edges, 4);
    ASSERT_EQ(labels.size(), 1000u);
    std::vector<int> counts(4, 0);
    for (std::uint32_t label : labels) {
        ASSERT_LT(label, 4u);
        ++counts[label];
    }
    for (int count : counts) {
        EXPECT_EQ(count, 250);
    }
}

TEST(LinkProperty, LabelsOrderedByTime)
{
    graph::EdgeList edges;
    edges.add(0, 1, 0.9);
    edges.add(0, 1, 0.1);
    edges.add(0, 1, 0.5);
    edges.add(0, 1, 0.7);
    const auto labels = label_edges_by_time(edges, 2);
    EXPECT_EQ(labels[1], 0u); // earliest
    EXPECT_EQ(labels[2], 0u);
    EXPECT_EQ(labels[3], 1u);
    EXPECT_EQ(labels[0], 1u); // latest
}

TEST(LinkProperty, EndToEndRuns)
{
    const FrontEnd fe = run_front_end(7);
    const auto labels = label_edges_by_time(fe.labeled.edges, 2);
    const TaskResult result = run_link_property_prediction(
        fe.labeled.edges, labels, 2, fe.embedding, SplitConfig{},
        fast_classifier());
    EXPECT_GT(result.test_accuracy, 0.4);
    EXPECT_EQ(result.epochs_run, 25u);
}

TEST(LinkProperty, MismatchedLabelsThrow)
{
    const FrontEnd fe = run_front_end(8);
    const std::vector<std::uint32_t> labels(3, 0); // wrong size
    EXPECT_THROW(run_link_property_prediction(fe.labeled.edges, labels,
                                              2, fe.embedding,
                                              SplitConfig{},
                                              fast_classifier()),
                 util::Error);
}

TEST(LinkProperty, ZeroClassesThrows)
{
    graph::EdgeList edges;
    edges.add(0, 1, 0.5);
    EXPECT_THROW(label_edges_by_time(edges, 0), util::Error);
}

/// The six pipeline.* phase spans of one traced run close once each,
/// in phase order without overlap, and the walk and word2vec layer
/// spans lie inside their phases.
void
expect_phase_trace(const std::function<void()>& run)
{
    obs::TraceSession session;
    session.start();
    run();
    session.stop();
    const std::vector<obs::TraceEvent> events = session.events();

    const std::vector<std::string> order = {
        "pipeline.build_graph", "pipeline.walk",  "pipeline.word2vec",
        "pipeline.data_prep",   "pipeline.train", "pipeline.test"};
    std::vector<const obs::TraceEvent*> phases;
    for (const obs::TraceEvent& event : events) {
        if (event.name.starts_with("pipeline.")) {
            phases.push_back(&event);
        }
    }
    ASSERT_EQ(phases.size(), order.size());
    // Timestamps are doubles in microseconds; allow their rounding.
    constexpr double kSlackUs = 0.01;
    for (std::size_t i = 0; i < order.size(); ++i) {
        EXPECT_EQ(phases[i]->name, order[i]);
        if (i > 0) {
            EXPECT_LE(phases[i - 1]->ts_us + phases[i - 1]->dur_us,
                      phases[i]->ts_us + kSlackUs)
                << order[i - 1] << " overlaps " << order[i];
        }
    }

    const auto expect_inside = [&](const std::string& child,
                                   const obs::TraceEvent& parent) {
        const auto it = std::find_if(
            events.begin(), events.end(),
            [&](const obs::TraceEvent& e) { return e.name == child; });
        ASSERT_NE(it, events.end()) << child;
        EXPECT_GE(it->ts_us + kSlackUs, parent.ts_us) << child;
        EXPECT_LE(it->ts_us + it->dur_us,
                  parent.ts_us + parent.dur_us + kSlackUs)
            << child;
    };
    expect_inside("walk.generate", *phases[1]);
    expect_inside("sgns.train", *phases[2]);
}

PipelineConfig
tiny_pipeline()
{
    PipelineConfig config;
    config.walk.walks_per_node = 2;
    config.walk.max_length = 4;
    config.sgns.dim = 4;
    config.sgns.epochs = 1;
    config.classifier.max_epochs = 2;
    return config;
}

TEST(PipelineTrace, LinkPredictionRecordsEachPhaseOnceInOrder)
{
    const auto labeled = gen::generate_sbm(
        {.num_nodes = 60, .num_edges = 600, .num_communities = 2,
         .seed = 9});
    expect_phase_trace([&] {
        run_link_prediction_pipeline(labeled.edges, tiny_pipeline());
    });
}

TEST(PipelineTrace, NodeClassificationRecordsEachPhaseOnceInOrder)
{
    const auto labeled = gen::generate_sbm(
        {.num_nodes = 60, .num_edges = 600, .num_communities = 2,
         .seed = 10});
    expect_phase_trace([&] {
        run_node_classification_pipeline(labeled.edges, labeled.labels, 2,
                                         tiny_pipeline());
    });
}

} // namespace
} // namespace tgl::core
