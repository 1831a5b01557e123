/// Failure-path tests: malformed inputs, invalid configurations, and
/// numeric divergence must all surface as tgl::util::Error with a
/// descriptive message — never a crash, an abort, or silent garbage.
#include "core/link_prediction.hpp"
#include "core/link_property_prediction.hpp"
#include "core/node_classification.hpp"
#include "core/pipeline.hpp"
#include "embed/embedding.hpp"
#include "embed/sigmoid_table.hpp"
#include "embed/trainer.hpp"
#include "graph/io.hpp"
#include "rng/random.hpp"
#include "util/error.hpp"
#include "walk/corpus.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace tgl {
namespace {

std::string
thrown_message(const std::function<void()>& action)
{
    try {
        action();
    } catch (const util::Error& error) {
        return error.what();
    }
    ADD_FAILURE() << "expected a tgl::util::Error";
    return "";
}

TEST(MalformedEdgeList, NanTimestampRejectedWithLineNumber)
{
    std::istringstream in("0 1 0.5\n1 2 nan\n");
    const std::string message =
        thrown_message([&] { graph::load_wel(in); });
    EXPECT_NE(message.find("line 2"), std::string::npos) << message;
    EXPECT_NE(message.find("non-finite"), std::string::npos) << message;
}

TEST(MalformedEdgeList, InfTimestampRejected)
{
    std::istringstream in("0 1 inf\n");
    EXPECT_THROW(graph::load_wel(in), util::Error);
}

TEST(MalformedEdgeList, NodeIdBeyond32BitsRejectedNotTruncated)
{
    // 2^32 would silently truncate to node 0 under a bare cast.
    std::istringstream in("4294967296 1 0.5\n");
    const std::string message =
        thrown_message([&] { graph::load_wel(in); });
    EXPECT_NE(message.find("4294967296"), std::string::npos) << message;
    EXPECT_NE(message.find("maximum"), std::string::npos) << message;
}

TEST(MalformedEdgeList, SentinelNodeIdRejected)
{
    // 2^32 - 1 is kInvalidNode and must not be accepted either.
    std::istringstream in("0 4294967295 0.5\n");
    EXPECT_THROW(graph::load_wel(in), util::Error);
}

TEST(MalformedEdgeList, OverlongNumericFieldRejected)
{
    std::istringstream in("1 2 " + std::string(1 << 20, '9') + "\n");
    EXPECT_THROW(graph::load_wel(in), util::Error);
}

TEST(MalformedEdgeList, MissingFieldReportsLineAndContent)
{
    std::istringstream in("0 1 0.5\n7\n");
    const std::string message =
        thrown_message([&] { graph::load_wel(in); });
    EXPECT_NE(message.find("line 2"), std::string::npos) << message;
}

TEST(MalformedArtifacts, TruncatedBinaryEmbeddingRejected)
{
    embed::Embedding original(4, 2);
    std::ostringstream out;
    original.save_binary(out);
    const std::string blob = out.str();
    std::istringstream in(blob.substr(0, blob.size() - 3));
    EXPECT_THROW(embed::Embedding::load_binary(in), util::Error);
}

TEST(MalformedArtifacts, WrongArtifactKindRejected)
{
    // A corpus artifact handed to the embedding loader must be refused
    // by its kind tag, not misparsed.
    walk::Corpus corpus;
    const graph::NodeId walk1[] = {0, 1, 2};
    corpus.add_walk(walk1);
    std::ostringstream out;
    corpus.save_binary(out);
    std::istringstream in(out.str());
    EXPECT_THROW(embed::Embedding::load_binary(in), util::Error);
}

TEST(InvalidConfig, EveryDiagnosticCollectedNotJustTheFirst)
{
    core::PipelineConfig config;
    config.walk.walks_per_node = 0;
    config.walk.max_length = 0;
    config.sgns.alpha = -1.0f;
    config.split.train_fraction = -0.5;
    config.classifier.lr = 0.0f;

    const std::vector<std::string> problems = config.validate();
    EXPECT_GE(problems.size(), 5u);

    const std::string message = thrown_message([&] {
        core::run_link_prediction_pipeline(graph::EdgeList{}, config);
    });
    EXPECT_NE(message.find("invalid pipeline configuration"),
              std::string::npos);
    EXPECT_NE(message.find("walk.walks_per_node"), std::string::npos)
        << message;
    EXPECT_NE(message.find("sgns.alpha"), std::string::npos) << message;
    EXPECT_NE(message.find("split.train_fraction"), std::string::npos)
        << message;
    EXPECT_NE(message.find("classifier.lr"), std::string::npos) << message;
}

TEST(InvalidConfig, ValidDefaultsPassEverywhere)
{
    EXPECT_TRUE(core::PipelineConfig{}.validate().empty());
    EXPECT_TRUE(walk::WalkConfig{}.validate().empty());
    EXPECT_TRUE(embed::SgnsConfig{}.validate().empty());
    EXPECT_TRUE(core::SplitConfig{}.validate().empty());
    EXPECT_TRUE(core::ClassifierConfig{}.validate().empty());
}

TEST(InvalidConfig, DroppedWalkContradictionExplained)
{
    walk::WalkConfig config;
    config.max_length = 2;
    config.min_walk_tokens = 10;
    const std::vector<std::string> problems = config.validate();
    ASSERT_EQ(problems.size(), 1u);
    EXPECT_NE(problems[0].find("every walk would be dropped"),
              std::string::npos);
}

TEST(NumericGuards, SigmoidSaturatesOnNonFiniteInput)
{
    // NaN/inf scores from a diverged model must saturate, not index the
    // lookup table out of bounds (casting NaN to int is UB).
    const embed::SigmoidTable& sigmoid = embed::SigmoidTable::instance();
    EXPECT_EQ(sigmoid(std::numeric_limits<float>::infinity()), 1.0f);
    EXPECT_EQ(sigmoid(-std::numeric_limits<float>::infinity()), 0.0f);
    EXPECT_EQ(sigmoid(std::numeric_limits<float>::quiet_NaN()), 1.0f);
}

TEST(NumericGuards, DivergingSgnsReportsEpochContext)
{
    walk::Corpus corpus;
    for (graph::NodeId base = 0; base < 8; ++base) {
        const graph::NodeId walk1[] = {base, (base + 1) % 8,
                                       (base + 2) % 8, (base + 3) % 8};
        corpus.add_walk(walk1);
    }
    embed::SgnsConfig config;
    config.dim = 4;
    config.epochs = 3;
    config.alpha = 1e30f; // guaranteed overflow within one epoch
    config.num_threads = 1;

    const std::string message = thrown_message(
        [&] { embed::train_sgns(corpus, 8, config); });
    EXPECT_NE(message.find("diverged"), std::string::npos) << message;
    EXPECT_NE(message.find("epoch"), std::string::npos) << message;
}

TEST(NumericGuards, PoisonedFeaturesCaughtByClassifierGuard)
{
    rng::Random random(3);
    embed::Embedding embedding(10, 4);
    for (graph::NodeId u = 0; u < 10; ++u) {
        auto row = embedding.row(u);
        for (unsigned i = 0; i < 4; ++i) {
            row[i] = random.next_float();
        }
    }
    // ReLU hidden layers absorb NaN inputs (NaN > 0 is false), so a
    // poisoned feature never reaches the loss guard — it must be
    // rejected up front with its coordinates.
    embedding.row(0)[0] = std::numeric_limits<float>::quiet_NaN();
    // Inputs for every task, each touching node 0. One class per node
    // also labels the edge leaving it.
    core::LinkSplits splits;
    core::NodeSplits nodes;
    std::vector<std::uint32_t> labels;
    graph::EdgeList edges;
    for (graph::NodeId u = 0; u < 10; ++u) {
        splits.train.push_back({u, (u + 1) % 10, u % 2 ? 1.0f : 0.0f});
        splits.test.push_back({u, (u + 3) % 10, u % 2 ? 0.0f : 1.0f});
        (u < 6 ? nodes.train : nodes.test).push_back(u);
        labels.push_back(u % 2);
        edges.add(u, (u + 1) % 10, static_cast<double>(u));
    }
    core::ClassifierConfig config;
    config.max_epochs = 5;

    // All three tasks train through the same guard; each must name
    // itself and the poisoned coordinate.
    const std::pair<const char*, std::function<void()>> tasks[] = {
        {"link prediction",
         [&] { core::run_link_prediction(splits, embedding, config); }},
        {"node classification",
         [&] {
             core::run_node_classification(nodes, labels, 2, embedding,
                                           config);
         }},
        {"link property prediction",
         [&] {
             core::run_link_property_prediction(
                 edges, labels, 2, embedding, core::SplitConfig{}, config);
         }},
    };
    for (const auto& [task, run] : tasks) {
        const std::string message = thrown_message(run);
        EXPECT_NE(message.find(task), std::string::npos) << message;
        EXPECT_NE(message.find("non-finite"), std::string::npos)
            << message;
        EXPECT_NE(message.find("column"), std::string::npos) << message;
    }
}

} // namespace
} // namespace tgl
