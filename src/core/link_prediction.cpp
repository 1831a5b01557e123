#include "core/link_prediction.hpp"

#include "core/classifier.hpp"
#include "nn/mlp.hpp"
#include "rng/random.hpp"

#include <cmath>

namespace tgl::core {

std::vector<std::string>
ClassifierConfig::validate() const
{
    std::vector<std::string> problems;
    if (hidden_dim == 0) {
        problems.push_back("hidden_dim must be >= 1");
    }
    if (hidden1 == 0 || hidden2 == 0) {
        problems.push_back("hidden1 and hidden2 must be >= 1");
    }
    if (max_epochs == 0) {
        problems.push_back("max_epochs must be >= 1");
    }
    if (batch_size == 0) {
        problems.push_back("batch_size must be >= 1");
    }
    if (!(lr > 0.0f) || !std::isfinite(lr)) {
        problems.push_back("lr must be positive and finite, got " +
                           std::to_string(lr));
    }
    if (!std::isfinite(momentum) || momentum < 0.0f || momentum >= 1.0f) {
        problems.push_back("momentum must be in [0, 1), got " +
                           std::to_string(momentum));
    }
    if (!std::isfinite(weight_decay) || weight_decay < 0.0f) {
        problems.push_back("weight_decay must be >= 0 and finite");
    }
    if (!std::isfinite(target_valid_accuracy) ||
        target_valid_accuracy <= 0.0 || target_valid_accuracy > 1.0) {
        problems.push_back(
            "target_valid_accuracy must be in (0, 1], got " +
            std::to_string(target_valid_accuracy));
    }
    if (residual && residual_blocks == 0) {
        problems.push_back(
            "residual_blocks must be >= 1 when residual is set");
    }
    return problems;
}

TaskResult
run_link_prediction(const LinkSplits& splits,
                    const embed::Embedding& embedding,
                    const ClassifierConfig& config,
                    ClassifierCheckpoint* checkpoint)
{
    rng::Random random(config.seed);
    nn::Mlp net =
        config.residual
            ? nn::make_residual_link_predictor(2 * embedding.dim(),
                                               config.hidden_dim,
                                               config.residual_blocks,
                                               random)
            : nn::make_link_predictor(2 * embedding.dim(),
                                      config.hidden_dim, random);
    return train_classifier(net, make_edge_dataset(splits.train, embedding),
                            make_edge_dataset(splits.valid, embedding),
                            make_edge_dataset(splits.test, embedding), 2,
                            config, config.seed ^ 0x11, checkpoint,
                            "link_prediction");
}

} // namespace tgl::core
