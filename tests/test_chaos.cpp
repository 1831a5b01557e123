/// Chaos harness: the checkpointed pipeline under seeded failpoint
/// schedules. The invariant under test is the PR's acceptance bar —
/// every chaos run either completes with artifacts bit-identical to a
/// fault-free run, or fails cleanly with a checkpoint from which a
/// resumed run converges. Also covers cooperative cancellation.
///
/// Seeds are fixed (CI runs `ctest -L chaos` with TGL_CHAOS_SEED
/// unset → all three) so failures reproduce exactly.
#include "core/pipeline.hpp"

#include "core/checkpoint.hpp"
#include "rng/splitmix64.hpp"
#include "util/cancellation.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include <unistd.h>

namespace tgl::core {
namespace {

/// A checkpoint directory private to this process, removed when the
/// test ends, pass or fail. `ctest -j` runs the whole-binary
/// chaos/test_chaos entry beside the per-test entries; a shared path
/// would let one process resume the other's artifacts.
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string& name)
        : path_(testing::TempDir() + "/tgl_chaos_" +
                std::to_string(::getpid()) + "_" + name)
    {
        std::filesystem::remove_all(path_);
    }
    ~ScratchDir()
    {
        std::error_code ignored;
        std::filesystem::remove_all(path_, ignored);
    }
    ScratchDir(const ScratchDir&) = delete;
    ScratchDir& operator=(const ScratchDir&) = delete;

    const std::string& path() const { return path_; }

  private:
    std::string path_;
};

/// Small deterministic temporal graph: a ring with chords and
/// increasing timestamps (the checkpoint suite's workload).
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

/// Fully deterministic configuration: every phase reproduces
/// bit-for-bit, so a converged chaos run must match a fault-free run.
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

std::string
file_bytes(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

std::size_t
count_quarantined(const std::string& dir)
{
    std::size_t count = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator(dir)) {
        if (entry.path().filename().string().find(".corrupt.") !=
            std::string::npos) {
            ++count;
        }
    }
    return count;
}

void
remove_quarantined(const std::string& dir)
{
    for (const auto& entry :
         std::filesystem::directory_iterator(dir)) {
        if (entry.path().filename().string().find(".corrupt.") !=
            std::string::npos) {
            std::filesystem::remove(entry.path());
        }
    }
}

/// Randomized-but-seeded failpoint schedule: one terminal kill at a
/// phase boundary, one transient write hiccup the retry layer must
/// absorb, and one corrupted checkpoint load the quarantine path must
/// survive. Positions and counts vary with the seed; the site mix
/// exercises every self-healing layer on every run.
std::string
schedule_for_seed(std::uint64_t seed)
{
    rng::SplitMix64 rng(seed);
    std::string spec;
    spec += rng.next() % 2 == 0 ? "pipeline.after-walk=error@1"
                                : "pipeline.after-word2vec=error@1";
    spec += ";artifact_io.write=error:transient@" +
            std::to_string(1 + rng.next() % 3);
    spec += ";checkpoint.load=corrupt@" +
            std::to_string(1 + rng.next() % 2);
    return spec;
}

class ChaosTest : public testing::Test
{
  protected:
    void TearDown() override
    {
        util::FailpointRegistry::clear();
        util::reset_cancellation();
    }
};

/// The E2E chaos invariant, one fixed seed per instantiation.
class ChaosSchedule : public ChaosTest,
                      public testing::WithParamInterface<std::uint64_t>
{
};

TEST_P(ChaosSchedule, ConvergesToFaultFreeArtifacts)
{
    const std::uint64_t seed = GetParam();
    const graph::EdgeList edges = test_edges();

    // Fault-free reference run, checkpointed so its artifacts can be
    // compared byte-for-byte.
    const ScratchDir reference_dir("ref_" + std::to_string(seed));
    PipelineConfig config = test_config();
    config.checkpoint_dir = reference_dir.path();
    const PipelineResult reference =
        run_link_prediction_pipeline(edges, config);
    ASSERT_TRUE(reference.checkpoints.embedding_stored);

    // Chaos runs: the armed schedule kills, delays, and corrupts; each
    // failed run must leave a checkpoint the next attempt extends.
    // Every @N trigger deactivates after firing, so the sequence is
    // guaranteed to run out of faults.
    const ScratchDir chaos_dir("chaos_" + std::to_string(seed));
    config.checkpoint_dir = chaos_dir.path();
    util::FailpointRegistry::configure(schedule_for_seed(seed), seed);

    PipelineResult converged;
    unsigned clean_failures = 0;
    unsigned quarantined = 0;
    bool completed = false;
    for (int attempt = 0; attempt < 8 && !completed; ++attempt) {
        try {
            converged = run_link_prediction_pipeline(edges, config);
            completed = true;
        } catch (const util::FaultInjected&) {
            ++clean_failures; // terminal kill: checkpoints stay intact
        } catch (const util::TransientError&) {
            ++clean_failures; // retry budget exhausted: same contract
        }
        quarantined += converged.checkpoints.artifacts_quarantined;
    }
    ASSERT_TRUE(completed) << "schedule " << schedule_for_seed(seed)
                           << " did not converge in 8 attempts";
    EXPECT_GE(clean_failures, 1u) << "the terminal kill never fired";
    EXPECT_GE(util::FailpointRegistry::hits("artifact_io.write"), 1u);

    // Converged metrics match the fault-free run exactly.
    EXPECT_DOUBLE_EQ(converged.task.test_accuracy,
                     reference.task.test_accuracy);
    EXPECT_DOUBLE_EQ(converged.task.test_auc, reference.task.test_auc);

    // And the persisted artifacts are bit-identical to the fault-free
    // run's. A final fault-free pass reuses them untouched.
    util::FailpointRegistry::clear();
    const CheckpointManager reference_manager(reference_dir.path());
    const CheckpointManager chaos_manager(chaos_dir.path());
    EXPECT_EQ(file_bytes(chaos_manager.corpus_path()),
              file_bytes(reference_manager.corpus_path()));
    EXPECT_EQ(file_bytes(chaos_manager.embedding_path()),
              file_bytes(reference_manager.embedding_path()));

    const PipelineResult warm = run_link_prediction_pipeline(edges, config);
    EXPECT_TRUE(warm.checkpoints.embedding_loaded);
    EXPECT_DOUBLE_EQ(warm.task.test_accuracy,
                     reference.task.test_accuracy);

    // Quarantined corrupt artifacts are renamed aside, never deleted —
    // and nothing else may linger once they are swept.
    EXPECT_LE(count_quarantined(chaos_dir.path()), quarantined + 1u);
    remove_quarantined(chaos_dir.path());
    EXPECT_EQ(count_quarantined(chaos_dir.path()), 0u);
}

INSTANTIATE_TEST_SUITE_P(FixedSeeds, ChaosSchedule,
                         testing::Values(101u, 202u, 303u));

TEST_F(ChaosTest, TransientWriteFaultAbsorbedByRetry)
{
    const ScratchDir dir("transient_write");
    const graph::EdgeList edges = test_edges();
    PipelineConfig config = test_config();
    config.checkpoint_dir = dir.path();

    util::FailpointRegistry::configure(
        "artifact_io.write=error:transient@1");
    const PipelineResult result =
        run_link_prediction_pipeline(edges, config);
    // The first store hit the injected hiccup (the @1 site deactivates
    // after firing, so only the faulted pass is counted) and the retry
    // completed the write.
    EXPECT_EQ(util::FailpointRegistry::hits("artifact_io.write"), 1u);
    EXPECT_TRUE(result.checkpoints.corpus_stored);
    EXPECT_EQ(result.checkpoints.artifacts_quarantined, 0u);
}

TEST_F(ChaosTest, CorruptCheckpointQuarantinedAndRegenerated)
{
    const ScratchDir dir("quarantine");
    const graph::EdgeList edges = test_edges();
    PipelineConfig config = test_config();
    config.checkpoint_dir = dir.path();

    const PipelineResult first =
        run_link_prediction_pipeline(edges, config);
    ASSERT_TRUE(first.checkpoints.corpus_stored);

    // Every load in the second run reads a freshly byte-flipped
    // artifact: all of them must be quarantined and regenerated, and
    // the run must still succeed with identical results.
    util::FailpointRegistry::configure("checkpoint.load=corrupt");
    const PipelineResult healed =
        run_link_prediction_pipeline(edges, config);
    util::FailpointRegistry::clear();
    EXPECT_GE(healed.checkpoints.artifacts_quarantined, 1u);
    EXPECT_GE(healed.checkpoints.artifacts_regenerated,
              healed.checkpoints.artifacts_quarantined);
    EXPECT_FALSE(healed.checkpoints.corpus_loaded);
    EXPECT_TRUE(healed.checkpoints.corpus_stored);
    EXPECT_DOUBLE_EQ(healed.task.test_accuracy,
                     first.task.test_accuracy);
    EXPECT_GE(count_quarantined(dir.path()),
              healed.checkpoints.artifacts_quarantined);

    // With the fault gone the regenerated artifacts load cleanly (the
    // embedding resume short-circuits the corpus load entirely).
    const PipelineResult after =
        run_link_prediction_pipeline(edges, config);
    EXPECT_TRUE(after.checkpoints.embedding_loaded);
    EXPECT_TRUE(after.checkpoints.classifier_loaded);
    EXPECT_EQ(after.checkpoints.artifacts_quarantined, 0u);
}

TEST_F(ChaosTest, CancellationStopsAtPhaseBoundaryWithCheckpoints)
{
    const ScratchDir dir("cancel");
    const graph::EdgeList edges = test_edges();
    PipelineConfig config = test_config();
    config.checkpoint_dir = dir.path();

    // A pending request (what a SIGINT handler records) stops the run
    // at the first safe point as Cancelled, not as a generic Error.
    util::request_cancellation("unit test interrupt");
    EXPECT_THROW(run_link_prediction_pipeline(edges, config),
                 util::Cancelled);
    util::reset_cancellation();

    // Nothing half-written: the rerun completes from whatever phase
    // boundary the cancellation unwound at.
    const PipelineResult resumed =
        run_link_prediction_pipeline(edges, config);
    EXPECT_TRUE(resumed.checkpoints.classifier_stored);
}

} // namespace
} // namespace tgl::core
