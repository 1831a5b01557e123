/// Unit + end-to-end tests for pipeline checkpoint/resume: artifact
/// roundtrips, stale/corrupt rejection, and fault-injected "kills"
/// between phases that a second run must resume from.
#include "core/checkpoint.hpp"

#include "core/pipeline.hpp"
#include "nn/mlp.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace tgl::core {
namespace {

/// Fresh scratch directory per test.
std::string
scratch_dir(const std::string& name)
{
    const std::string path = testing::TempDir() + "/tgl_ckpt_" + name;
    std::filesystem::remove_all(path);
    return path;
}

/// Small deterministic temporal graph: a ring with chords and
/// increasing timestamps.
graph::EdgeList
test_edges()
{
    graph::EdgeList edges;
    const graph::NodeId n = 40;
    for (graph::NodeId u = 0; u < n; ++u) {
        edges.add(u, (u + 1) % n, 0.01 * u);
        edges.add(u, (u + 7) % n, 0.01 * u + 0.005);
    }
    return edges;
}

/// Pipeline configuration whose every phase is deterministic, so a
/// resumed run must reproduce an uninterrupted run bit-for-bit.
PipelineConfig
test_config()
{
    PipelineConfig config;
    config.walk.walks_per_node = 4;
    config.walk.max_length = 6;
    config.sgns.dim = 4;
    config.sgns.epochs = 2;
    config.sgns.num_threads = 1; // Hogwild is deterministic only solo
    config.classifier.max_epochs = 3;
    config.classifier.batch_size = 16;
    return config;
}

walk::Corpus
test_corpus()
{
    walk::Corpus corpus;
    const graph::NodeId walk1[] = {0, 1, 2, 3};
    const graph::NodeId walk2[] = {5, 4};
    corpus.add_walk(walk1);
    corpus.add_walk(walk2);
    return corpus;
}

TEST(CheckpointManager, CorpusRoundTrip)
{
    const CheckpointManager manager(scratch_dir("corpus"));
    const walk::Corpus original = test_corpus();
    manager.store_corpus(123, original);

    walk::Corpus loaded;
    ASSERT_TRUE(manager.load_corpus(123, loaded));
    ASSERT_EQ(loaded.num_walks(), original.num_walks());
    EXPECT_EQ(loaded.num_tokens(), original.num_tokens());
    for (std::size_t i = 0; i < original.num_walks(); ++i) {
        const auto a = original.walk(i);
        const auto b = loaded.walk(i);
        ASSERT_EQ(a.size(), b.size());
        EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()));
    }
    std::filesystem::remove_all(manager.directory());
}

TEST(CheckpointManager, MissingAndStaleReturnFalse)
{
    const CheckpointManager manager(scratch_dir("stale"));
    walk::Corpus loaded;
    EXPECT_FALSE(manager.load_corpus(123, loaded)); // nothing stored

    manager.store_corpus(123, test_corpus());
    EXPECT_FALSE(manager.load_corpus(456, loaded)); // wrong fingerprint
    EXPECT_TRUE(manager.load_corpus(123, loaded));
    std::filesystem::remove_all(manager.directory());
}

TEST(CheckpointManager, EmbeddingRoundTrip)
{
    const CheckpointManager manager(scratch_dir("embedding"));
    embed::Embedding original(6, 3);
    for (graph::NodeId u = 0; u < 6; ++u) {
        auto row = original.row(u);
        for (unsigned i = 0; i < 3; ++i) {
            row[i] = static_cast<float>(u) + 0.1f * static_cast<float>(i);
        }
    }
    manager.store_embedding(99, original);

    embed::Embedding loaded;
    ASSERT_TRUE(manager.load_embedding(99, loaded));
    EXPECT_EQ(loaded.num_nodes(), original.num_nodes());
    EXPECT_EQ(loaded.dim(), original.dim());
    EXPECT_EQ(loaded.data(), original.data());
    EXPECT_FALSE(manager.load_embedding(100, loaded));
    std::filesystem::remove_all(manager.directory());
}

TEST(CheckpointManager, ClassifierRoundTripAndArchMismatch)
{
    const CheckpointManager manager(scratch_dir("classifier"));
    rng::Random random(7);
    nn::Mlp trained = nn::make_link_predictor(8, 4, random);
    manager.store_classifier("net", 5, trained);

    rng::Random random2(999); // different init, same architecture
    nn::Mlp restored = nn::make_link_predictor(8, 4, random2);
    ASSERT_TRUE(manager.load_classifier("net", 5, restored));
    std::ostringstream a;
    std::ostringstream b;
    trained.save_weights(a, 5);
    restored.save_weights(b, 5);
    EXPECT_EQ(a.str(), b.str());

    // Different architecture under the same name: treated as stale, and
    // the target network's weights stay untouched.
    rng::Random random3(1);
    nn::Mlp other_arch = nn::make_link_predictor(8, 16, random3);
    std::ostringstream before;
    other_arch.save_weights(before, 0);
    EXPECT_FALSE(manager.load_classifier("net", 5, other_arch));
    std::ostringstream after;
    other_arch.save_weights(after, 0);
    EXPECT_EQ(before.str(), after.str());
    std::filesystem::remove_all(manager.directory());
}

TEST(CheckpointManager, StaleLoadLeavesClassifierWeightsUntouched)
{
    const CheckpointManager manager(scratch_dir("stale_classifier"));
    rng::Random random(7);
    nn::Mlp stored = nn::make_link_predictor(8, 4, random);
    manager.store_classifier("net", 5, stored);

    rng::Random random2(8);
    nn::Mlp fresh = nn::make_link_predictor(8, 4, random2);
    std::ostringstream before;
    fresh.save_weights(before, 0);
    EXPECT_FALSE(manager.load_classifier("net", 777, fresh)); // stale
    std::ostringstream after;
    fresh.save_weights(after, 0);
    EXPECT_EQ(before.str(), after.str());
    std::filesystem::remove_all(manager.directory());
}

TEST(CheckpointManager, EveryByteFlipRejectedNotCrash)
{
    const CheckpointManager manager(scratch_dir("byteflip"));
    manager.store_corpus(42, test_corpus());
    const std::string path = manager.corpus_path();

    std::string blob;
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream buffer;
        buffer << in.rdbuf();
        blob = buffer.str();
    }
    ASSERT_FALSE(blob.empty());

    walk::Corpus loaded;
    for (std::size_t i = 0; i < blob.size(); ++i) {
        std::string corrupt = blob;
        corrupt[i] = static_cast<char>(corrupt[i] ^ 0xFF);
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out.write(corrupt.data(),
                      static_cast<std::streamsize>(corrupt.size()));
        }
        // Every flip must be swallowed as "regenerate" — never an
        // exception, never a crash, never a wrong successful load.
        EXPECT_FALSE(manager.load_corpus(42, loaded)) << "byte " << i;
    }
    std::filesystem::remove_all(manager.directory());
}

TEST(FingerprintChain, ConfigChangesChangeFingerprints)
{
    const graph::EdgeList edges = test_edges();
    const std::uint64_t base = fingerprint_edges(edges);

    graph::EdgeList other = test_edges();
    other[0].time += 1.0;
    EXPECT_NE(fingerprint_edges(other), base);

    util::Fingerprint a;
    a.mix(base);
    mix_config(a, test_config().walk);
    util::Fingerprint b;
    b.mix(base);
    walk::WalkConfig changed = test_config().walk;
    changed.walks_per_node += 1;
    mix_config(b, changed);
    EXPECT_NE(a.value(), b.value());
}

TEST(PipelineResume, KillAfterWord2vecResumesSkippingBothPhases)
{
    const std::string dir = scratch_dir("resume_w2v");
    const graph::EdgeList edges = test_edges();
    PipelineConfig config = test_config();

    // Uninterrupted baseline without any checkpointing.
    const PipelineResult baseline =
        run_link_prediction_pipeline(edges, config);

    // Run 1: killed right after the word2vec phase persisted its
    // artifact — the classifier never runs.
    config.checkpoint_dir = dir;
    util::FailpointRegistry::configure("pipeline.after-word2vec=error@1");
    EXPECT_THROW(run_link_prediction_pipeline(edges, config),
                 util::FaultInjected);
    util::FailpointRegistry::clear();

    // Run 2: resumes from the embedding checkpoint; the walk and
    // word2vec phases never execute (their timers are never started).
    const PipelineResult resumed =
        run_link_prediction_pipeline(edges, config);
    EXPECT_TRUE(resumed.checkpoints.embedding_loaded);
    EXPECT_FALSE(resumed.checkpoints.corpus_loaded);
    EXPECT_FALSE(resumed.checkpoints.embedding_stored);
    EXPECT_TRUE(resumed.checkpoints.classifier_stored);
    EXPECT_EQ(resumed.times.random_walk, 0.0);
    EXPECT_EQ(resumed.times.word2vec, 0.0);

    // Deterministic phases: the resumed run must reproduce the
    // uninterrupted run's metrics exactly.
    EXPECT_DOUBLE_EQ(resumed.task.test_accuracy,
                     baseline.task.test_accuracy);
    EXPECT_DOUBLE_EQ(resumed.task.test_auc, baseline.task.test_auc);
    EXPECT_DOUBLE_EQ(resumed.task.final_train_loss,
                     baseline.task.final_train_loss);

    // Run 3: everything is checkpointed, including the classifier —
    // the training loop is skipped outright.
    const PipelineResult warm = run_link_prediction_pipeline(edges, config);
    EXPECT_TRUE(warm.checkpoints.embedding_loaded);
    EXPECT_TRUE(warm.checkpoints.classifier_loaded);
    EXPECT_EQ(warm.task.epochs_run, 0u);
    EXPECT_DOUBLE_EQ(warm.task.test_accuracy, baseline.task.test_accuracy);
    EXPECT_DOUBLE_EQ(warm.task.test_auc, baseline.task.test_auc);
    std::filesystem::remove_all(dir);
}

TEST(PipelineResume, KillAfterWalkResumesCorpusOnly)
{
    const std::string dir = scratch_dir("resume_walk");
    const graph::EdgeList edges = test_edges();
    PipelineConfig config = test_config();
    config.checkpoint_dir = dir;

    util::FailpointRegistry::configure("pipeline.after-walk=error@1");
    EXPECT_THROW(run_link_prediction_pipeline(edges, config),
                 util::FaultInjected);
    util::FailpointRegistry::clear();

    const PipelineResult resumed =
        run_link_prediction_pipeline(edges, config);
    EXPECT_TRUE(resumed.checkpoints.corpus_loaded);
    EXPECT_FALSE(resumed.checkpoints.embedding_loaded);
    EXPECT_TRUE(resumed.checkpoints.embedding_stored);
    EXPECT_GT(resumed.corpus_walks, 0u);
    std::filesystem::remove_all(dir);
}

TEST(PipelineResume, ConfigChangeInvalidatesDownstreamOnly)
{
    const std::string dir = scratch_dir("resume_stale");
    const graph::EdgeList edges = test_edges();
    PipelineConfig config = test_config();
    config.checkpoint_dir = dir;

    const PipelineResult first = run_link_prediction_pipeline(edges, config);
    EXPECT_TRUE(first.checkpoints.corpus_stored);
    EXPECT_TRUE(first.checkpoints.embedding_stored);

    // Changing only the embedding seed keeps the corpus checkpoint
    // valid but makes the embedding (and classifier) stale.
    config.sgns.seed += 1;
    const PipelineResult second =
        run_link_prediction_pipeline(edges, config);
    EXPECT_TRUE(second.checkpoints.corpus_loaded);
    EXPECT_FALSE(second.checkpoints.embedding_loaded);
    EXPECT_TRUE(second.checkpoints.embedding_stored);
    EXPECT_FALSE(second.checkpoints.classifier_loaded);
    EXPECT_TRUE(second.checkpoints.classifier_stored);
    std::filesystem::remove_all(dir);
}

TEST(PipelineResume, CorruptCheckpointRegeneratedSilently)
{
    const std::string dir = scratch_dir("resume_corrupt");
    const graph::EdgeList edges = test_edges();
    PipelineConfig config = test_config();

    const PipelineResult baseline =
        run_link_prediction_pipeline(edges, config);

    config.checkpoint_dir = dir;
    run_link_prediction_pipeline(edges, config);

    // Flip one byte in the middle of the embedding artifact.
    const CheckpointManager manager(dir);
    const std::string path = manager.embedding_path();
    std::fstream file(path,
                      std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(file);
    file.seekg(0, std::ios::end);
    const std::streamoff size = file.tellg();
    ASSERT_GT(size, 40);
    file.seekp(size / 2);
    char byte = 0;
    file.seekg(size / 2);
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0xFF);
    file.seekp(size / 2);
    file.write(&byte, 1);
    file.close();

    // The corrupt artifact is rejected by its checksum and silently
    // regenerated — the run still succeeds with identical metrics.
    const PipelineResult regenerated =
        run_link_prediction_pipeline(edges, config);
    EXPECT_FALSE(regenerated.checkpoints.embedding_loaded);
    EXPECT_TRUE(regenerated.checkpoints.embedding_stored);
    EXPECT_DOUBLE_EQ(regenerated.task.test_accuracy,
                     baseline.task.test_accuracy);

    // And the regenerated artifact is valid again.
    const PipelineResult after = run_link_prediction_pipeline(edges, config);
    EXPECT_TRUE(after.checkpoints.embedding_loaded);
    std::filesystem::remove_all(dir);
}

TEST(PipelineResume, NodeClassificationCheckpointsClassifier)
{
    const std::string dir = scratch_dir("resume_nodes");
    const graph::EdgeList edges = test_edges();
    std::vector<std::uint32_t> labels(edges.num_nodes());
    for (std::size_t u = 0; u < labels.size(); ++u) {
        labels[u] = static_cast<std::uint32_t>(u % 3);
    }
    PipelineConfig config = test_config();
    config.checkpoint_dir = dir;

    const PipelineResult first =
        run_node_classification_pipeline(edges, labels, 3, config);
    EXPECT_TRUE(first.checkpoints.classifier_stored);

    const PipelineResult second =
        run_node_classification_pipeline(edges, labels, 3, config);
    EXPECT_TRUE(second.checkpoints.classifier_loaded);
    EXPECT_DOUBLE_EQ(second.task.test_accuracy, first.task.test_accuracy);

    // Different labels invalidate the classifier checkpoint.
    labels[0] = (labels[0] + 1) % 3;
    const PipelineResult third =
        run_node_classification_pipeline(edges, labels, 3, config);
    EXPECT_FALSE(third.checkpoints.classifier_loaded);
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace tgl::core
