/// @file
/// End-to-end pipeline runner: temporal random walk -> word2vec ->
/// data preparation -> classifier, with per-phase wall-clock timing —
/// the four RW-P1..P4 phases whose breakdown Table III reports.
#pragma once

#include "core/checkpoint.hpp"
#include "core/link_prediction.hpp"
#include "core/node_classification.hpp"
#include "embed/batched_trainer.hpp"
#include "embed/trainer.hpp"
#include "gen/catalog.hpp"
#include "walk/engine.hpp"

#include <string>

namespace tgl::core {

/// Which word2vec execution mode the pipeline uses.
enum class W2vMode
{
    kHogwild, ///< the paper's CPU implementation
    kBatched, ///< the paper's GPU execution model (see batched_trainer)
};

/// All pipeline hyperparameters. Defaults are the paper's optimal
/// operating point: K = 10 walks, length 6, d = 8 (SVII-A).
struct PipelineConfig
{
    walk::WalkConfig walk;
    embed::SgnsConfig sgns;
    W2vMode w2v_mode = W2vMode::kHogwild;
    std::size_t w2v_batch_size = 16384; ///< used in kBatched mode
    SplitConfig split;
    ClassifierConfig classifier;
    bool symmetrize_graph = true;
    /// Directory for crash-safe phase checkpoints (empty disables
    /// checkpointing). On restart, artifacts whose fingerprints match
    /// the current configuration and input are reloaded and their
    /// phases skipped; stale or corrupt artifacts are regenerated
    /// (corrupt ones quarantined as *.corrupt.<ts>).
    std::string checkpoint_dir;

    /// All configuration problems across every sub-config, each
    /// prefixed with its section ("walk.", "sgns.", ...). The pipeline
    /// entry points refuse to run (tgl::util::Error listing every
    /// diagnostic) when this is non-empty.
    std::vector<std::string> validate() const;
};

/// Wall-clock seconds per phase (Table III columns).
struct PhaseTimes
{
    double build_graph = 0.0;
    double random_walk = 0.0;
    double word2vec = 0.0;
    double data_prep = 0.0;
    double train = 0.0;
    double train_per_epoch = 0.0;
    double test = 0.0;

    double
    total() const
    {
        return build_graph + random_walk + word2vec + data_prep + train +
               test;
    }
};

/// Which phase artifacts were restored from / persisted to the
/// checkpoint directory (all false when checkpointing is disabled).
struct CheckpointStatus
{
    bool corpus_loaded = false;
    bool corpus_stored = false;
    bool cache_loaded = false;
    bool cache_stored = false;
    bool embedding_loaded = false;
    bool embedding_stored = false;
    bool classifier_loaded = false;
    bool classifier_stored = false;
    /// Corrupt artifacts quarantined (renamed *.corrupt.<ts>) during
    /// this run; each one was regenerated from scratch.
    unsigned artifacts_quarantined = 0;
    /// Artifacts that failed to load (corrupt or unreadable) and were
    /// regenerated.
    unsigned artifacts_regenerated = 0;
};

/// Everything a pipeline run produces.
struct PipelineResult
{
    PhaseTimes times;
    TaskResult task;
    walk::WalkProfile walk_profile;
    embed::TrainStats w2v_stats;
    CheckpointStatus checkpoints;
    std::size_t corpus_walks = 0;
    std::size_t corpus_tokens = 0;
    graph::NodeId num_nodes = 0;
    graph::EdgeId num_edges = 0;
};

/// Run the full link-prediction pipeline on a temporal edge list.
PipelineResult run_link_prediction_pipeline(const graph::EdgeList& edges,
                                            const PipelineConfig& config);

/// Run the full node-classification pipeline.
PipelineResult run_node_classification_pipeline(
    const graph::EdgeList& edges, const std::vector<std::uint32_t>& labels,
    std::uint32_t num_classes, const PipelineConfig& config);

/// Run whichever task a catalog dataset defines.
PipelineResult run_pipeline(const gen::Dataset& dataset,
                            const PipelineConfig& config);

/// One-line phase-time summary.
std::string format_phase_times(const PhaseTimes& times);

} // namespace tgl::core
