/// @file
/// The link-prediction downstream task (SIV-B): a 2-layer FNN over
/// concatenated endpoint embeddings trained with SGD + binary
/// cross-entropy to separate temporal-graph edges from sampled
/// non-edges.
#pragma once

#include "core/checkpoint.hpp"
#include "core/data_prep.hpp"
#include "core/metrics.hpp"
#include "embed/embedding.hpp"

#include <cstdint>
#include <vector>

namespace tgl::core {

/// Classifier hyperparameters (shared by every task).
struct ClassifierConfig
{
    /// Hidden width of the 2-layer link predictor.
    std::size_t hidden_dim = 16;
    /// Hidden widths of the 3-layer node classifier.
    std::size_t hidden1 = 32;
    std::size_t hidden2 = 16;
    unsigned max_epochs = 30;
    std::size_t batch_size = 256;
    float lr = 0.05f;
    float momentum = 0.9f;
    float weight_decay = 0.0f;
    /// Stop once validation accuracy reaches this level (1.0 disables).
    double target_valid_accuracy = 1.0;
    /// Use the SVIII-A residual architecture for link prediction
    /// instead of the plain 2-layer FNN.
    bool residual = false;
    /// Residual depth when residual is set.
    std::size_t residual_blocks = 2;
    std::uint64_t seed = 11;

    /// All configuration problems, empty when the config is usable.
    std::vector<std::string> validate() const;
};

/// Outcome of training + testing one classifier.
struct TaskResult
{
    double final_train_loss = 0.0;
    double valid_accuracy = 0.0;
    double test_accuracy = 0.0;
    double test_auc = 0.0;      ///< binary tasks only
    double test_macro_f1 = 0.0; ///< multi-class tasks only
    unsigned epochs_run = 0;
    double train_seconds = 0.0;
    double test_seconds = 0.0;
    /// Mean per-epoch training time (the unit Table III reports).
    double seconds_per_epoch = 0.0;
};

/// Train and evaluate the link-prediction FNN on prepared splits.
/// With @p checkpoint set, a matching stored network skips the
/// training loop entirely (epochs_run = 0) and a freshly trained one
/// is persisted for the next run.
TaskResult run_link_prediction(const LinkSplits& splits,
                               const embed::Embedding& embedding,
                               const ClassifierConfig& config,
                               ClassifierCheckpoint* checkpoint = nullptr);

} // namespace tgl::core
