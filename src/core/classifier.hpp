/// @file
/// The classifier stage (RW-P4) shared by every downstream task.
///
/// SVIII-B adds a task by swapping data preparation only; the stage
/// that trains and scores the classifier stays the same. Each task
/// entry point builds its datasets and network and hands them here, so
/// the input guards, the SGD epoch loop, early stopping, checkpointing
/// and the classifier.* telemetry exist once. Internal to core: the
/// task functions are the API.
#pragma once

#include "core/link_prediction.hpp" // ClassifierConfig, TaskResult
#include "nn/data_loader.hpp"
#include "nn/mlp.hpp"

#include <cstdint>
#include <string_view>

namespace tgl::core {

/// Train @p net on @p train, then score it on @p valid and @p test.
///
/// Binary labels (TaskDataset::binary_labels) train with binary
/// cross-entropy and report accuracy plus ROC-AUC; the plain link
/// predictor (binary, not config.residual) runs on the fused
/// nn::LinkKernel. Class labels train with NLL and report accuracy
/// plus macro-F1 over @p num_classes.
///
/// Throws util::Error when train or test is empty, when a feature is
/// non-finite, or when the training loss diverges.
///
/// @param loader_seed shuffle seed of the mini-batch loader
/// @param checkpoint  optional stored-network resume hookup (see
///        run_link_prediction)
/// @param task        snake_case task name: names the
///        `classifier.<task>` span and, with spaces for underscores,
///        prefixes every error message
TaskResult train_classifier(nn::Mlp& net, const nn::TaskDataset& train,
                            const nn::TaskDataset& valid,
                            const nn::TaskDataset& test,
                            std::uint32_t num_classes,
                            const ClassifierConfig& config,
                            std::uint64_t loader_seed,
                            ClassifierCheckpoint* checkpoint,
                            std::string_view task);

} // namespace tgl::core
