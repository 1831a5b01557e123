#include "core/link_property_prediction.hpp"

#include "core/classifier.hpp"
#include "nn/mlp.hpp"
#include "rng/random.hpp"
#include "util/error.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

namespace tgl::core {

std::vector<std::uint32_t>
label_edges_by_time(const graph::EdgeList& edges, std::uint32_t num_classes)
{
    if (num_classes == 0) {
        util::fatal("label_edges_by_time: need at least one class");
    }
    const std::size_t m = edges.size();
    std::vector<std::uint32_t> order(m);
    std::iota(order.begin(), order.end(), 0u);
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                         return edges[a].time < edges[b].time;
                     });
    std::vector<std::uint32_t> labels(m);
    for (std::size_t rank = 0; rank < m; ++rank) {
        labels[order[rank]] = static_cast<std::uint32_t>(
            std::min<std::size_t>(num_classes - 1,
                                  rank * num_classes / std::max<std::size_t>(
                                                           m, 1)));
    }
    return labels;
}

TaskResult
run_link_property_prediction(const graph::EdgeList& edges,
                             const std::vector<std::uint32_t>& edge_labels,
                             std::uint32_t num_classes,
                             const embed::Embedding& embedding,
                             const SplitConfig& split,
                             const ClassifierConfig& config)
{
    if (edges.size() != edge_labels.size()) {
        util::fatal("run_link_property_prediction: labels/edges mismatch");
    }
    // A random edge split: this task has explicit labels, so the
    // negative sampling of Fig. 7 is unnecessary. The node split's
    // shuffle and cuts apply unchanged to edge indices.
    if (edges.size() > std::numeric_limits<graph::NodeId>::max()) {
        util::fatal("run_link_property_prediction: too many edges");
    }
    const NodeSplits splits = prepare_node_splits(
        static_cast<graph::NodeId>(edges.size()), split);

    // Each row is an edge's [f(u), f(v)] features with its property
    // class as the label.
    const auto dataset = [&](const std::vector<graph::NodeId>& rows) {
        std::vector<EdgeSample> samples;
        std::vector<std::uint32_t> classes;
        samples.reserve(rows.size());
        classes.reserve(rows.size());
        for (const graph::NodeId row : rows) {
            samples.push_back({edges[row].src, edges[row].dst, 0.0f});
            classes.push_back(edge_labels[row]);
        }
        nn::TaskDataset data = make_edge_dataset(samples, embedding);
        data.binary_labels.clear();
        data.class_labels = std::move(classes);
        return data;
    };

    rng::Random random(config.seed);
    nn::Mlp net =
        nn::make_node_classifier(2 * embedding.dim(), config.hidden1,
                                 config.hidden2, num_classes, random);
    return train_classifier(net, dataset(splits.train),
                            dataset(splits.valid), dataset(splits.test),
                            num_classes, config, config.seed ^ 0x33,
                            nullptr, "link_property_prediction");
}

} // namespace tgl::core
