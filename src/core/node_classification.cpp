#include "core/node_classification.hpp"

#include "core/classifier.hpp"
#include "nn/mlp.hpp"
#include "rng/random.hpp"

namespace tgl::core {

TaskResult
run_node_classification(const NodeSplits& splits,
                        const std::vector<std::uint32_t>& labels,
                        std::uint32_t num_classes,
                        const embed::Embedding& embedding,
                        const ClassifierConfig& config,
                        ClassifierCheckpoint* checkpoint)
{
    rng::Random random(config.seed);
    nn::Mlp net =
        nn::make_node_classifier(embedding.dim(), config.hidden1,
                                 config.hidden2, num_classes, random);
    return train_classifier(
        net, make_node_dataset(splits.train, labels, embedding),
        make_node_dataset(splits.valid, labels, embedding),
        make_node_dataset(splits.test, labels, embedding), num_classes,
        config, config.seed ^ 0x22, checkpoint, "node_classification");
}

} // namespace tgl::core
