/// Bit-exact battery for the fused link-predictor kernel
/// (nn/link_kernel.hpp) against the layered nn::Mlp path it replaces.
///
/// The kernel claims identity, not closeness: per-epoch losses, final
/// weights and test probabilities must match the Linear/ReLU/Sigmoid
/// stack bit for bit across input/hidden widths (including a hidden
/// width that is not a multiple of the vector width), momentum, weight
/// decay, a short last batch and early stop. predict() runs on the
/// thread pool, so the battery also carries the `threading` label.
#include "nn/link_kernel.hpp"

#include "core/link_prediction.hpp"
#include "core/metrics.hpp"
#include "nn/loss.hpp"
#include "nn/optim.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>

namespace tgl {
namespace {

bool
same_bits(const nn::Tensor& a, const nn::Tensor& b)
{
    return a.same_shape(b) &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// A synthetic link-prediction task whose labels depend on the
/// embeddings, so training moves every weight.
struct Task
{
    embed::Embedding embedding;
    core::LinkSplits splits;
    nn::TaskDataset train, valid, test;
};

Task
make_task(unsigned dim, std::uint64_t seed)
{
    constexpr graph::NodeId kNodes = 200;
    Task task{embed::Embedding(kNodes, dim), {}, {}, {}, {}};
    rng::Random random(seed);
    for (graph::NodeId u = 0; u < kNodes; ++u) {
        for (float& value : task.embedding.row(u)) {
            value = random.next_float() * 2.0f - 1.0f;
        }
    }
    const auto draw = [&](std::size_t count) {
        std::vector<core::EdgeSample> samples;
        for (std::size_t i = 0; i < count; ++i) {
            const auto u =
                static_cast<graph::NodeId>(random.next_index(kNodes));
            const auto v =
                static_cast<graph::NodeId>(random.next_index(kNodes));
            float dot = 0.0f;
            for (unsigned c = 0; c < dim; ++c) {
                dot += task.embedding.row(u)[c] * task.embedding.row(v)[c];
            }
            samples.push_back({u, v, dot > 0.0f ? 1.0f : 0.0f});
        }
        return samples;
    };
    // 1000 train rows at batch 64 leave a short last batch of 40; 600
    // test rows span several predict() blocks.
    task.splits.train = draw(1000);
    task.splits.valid = draw(300);
    task.splits.test = draw(600);
    task.train = core::make_edge_dataset(task.splits.train, task.embedding);
    task.valid = core::make_edge_dataset(task.splits.valid, task.embedding);
    task.test = core::make_edge_dataset(task.splits.test, task.embedding);
    return task;
}

core::ClassifierConfig
make_config(std::size_t hidden, float momentum, float weight_decay)
{
    core::ClassifierConfig config;
    config.hidden_dim = hidden;
    config.max_epochs = 6;
    config.batch_size = 64;
    config.momentum = momentum;
    config.weight_decay = weight_decay;
    config.seed = 5;
    return config;
}

/// run_link_prediction's network, initialized the way it does.
nn::Mlp
initial_net(const Task& task, const core::ClassifierConfig& config)
{
    rng::Random random(config.seed);
    return nn::make_link_predictor(task.train.features.cols(),
                                   config.hidden_dim, random);
}

/// run_link_prediction's training loop on the layered path, with valid
/// accuracy after every epoch.
struct LayeredRun
{
    nn::Mlp net;
    std::vector<double> losses;
    std::vector<double> valid_accuracy;
};

LayeredRun
train_layered(nn::Mlp net, const Task& task,
              const core::ClassifierConfig& config)
{
    LayeredRun run{std::move(net), {}, {}};
    nn::Sgd optimizer(run.net.parameters(), config.lr, config.momentum,
                      config.weight_decay);
    nn::DataLoader loader(task.train, config.batch_size, true,
                          config.seed ^ 0x11);
    nn::Tensor features;
    std::vector<float> binary;
    std::vector<std::uint32_t> classes;
    for (unsigned epoch = 0; epoch < config.max_epochs; ++epoch) {
        loader.start_epoch();
        double total = 0.0;
        for (std::size_t b = 0; b < loader.num_batches(); ++b) {
            loader.batch(b, features, binary, classes);
            const nn::LossResult loss = nn::binary_cross_entropy(
                run.net.forward(features), binary);
            total += loss.loss;
            optimizer.zero_grad();
            run.net.backward(loss.grad);
            optimizer.step();
        }
        run.losses.push_back(total /
                             static_cast<double>(loader.num_batches()));
        run.valid_accuracy.push_back(core::binary_accuracy(
            run.net.forward(task.valid.features), task.valid.binary_labels));
        if (config.target_valid_accuracy < 1.0 &&
            run.valid_accuracy.back() >= config.target_valid_accuracy) {
            break;
        }
    }
    return run;
}

/// The same loop on the kernel; returns the per-epoch losses and leaves
/// the trained weights in @p kernel.
std::vector<double>
train_kernel(nn::LinkKernel& kernel, const Task& task,
             const core::ClassifierConfig& config)
{
    nn::Sgd optimizer(kernel.parameters(), config.lr, config.momentum,
                      config.weight_decay);
    nn::DataLoader loader(task.train, config.batch_size, true,
                          config.seed ^ 0x11);
    std::vector<double> losses;
    for (unsigned epoch = 0; epoch < config.max_epochs; ++epoch) {
        loader.start_epoch();
        double total = 0.0;
        for (std::size_t b = 0; b < loader.num_batches(); ++b) {
            total += kernel.train_step(task.train, loader.indices(b));
            optimizer.step();
        }
        losses.push_back(total / static_cast<double>(loader.num_batches()));
    }
    return losses;
}

void
expect_same_parameters(nn::Mlp& actual, nn::Mlp& expected)
{
    const auto a = actual.parameters();
    const auto e = expected.parameters();
    ASSERT_EQ(a.size(), e.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_TRUE(same_bits(a[i]->value, e[i]->value)) << a[i]->name;
    }
}

/// (embedding dim, hidden width); the input width is 2 * dim.
using Widths = std::pair<unsigned, std::size_t>;
/// (widths, momentum, weight decay).
using Case = std::tuple<Widths, float, float>;

class LinkKernelExact : public testing::TestWithParam<Case>
{
};

TEST_P(LinkKernelExact, TrainingMatchesLayeredPathBitForBit)
{
    const auto [widths, momentum, weight_decay] = GetParam();
    const auto [dim, hidden] = widths;
    const Task task = make_task(dim, 17);
    const core::ClassifierConfig config =
        make_config(hidden, momentum, weight_decay);

    LayeredRun reference = train_layered(initial_net(task, config), task,
                                         config);
    nn::Mlp net = initial_net(task, config);
    nn::LinkKernel kernel(net);
    EXPECT_EQ(train_kernel(kernel, task, config), reference.losses);

    kernel.store(net);
    expect_same_parameters(net, reference.net);

    nn::Tensor probabilities;
    kernel.predict(task.test.features, probabilities);
    const nn::Tensor& expected = reference.net.forward(task.test.features);
    EXPECT_TRUE(same_bits(probabilities, expected));
    EXPECT_EQ(core::roc_auc(probabilities, task.test.binary_labels),
              core::roc_auc(expected, task.test.binary_labels));

    // The stored weights reload into a fresh make_link_predictor whose
    // layered forward reproduces the kernel's.
    std::stringstream artifact;
    net.save_weights(artifact);
    rng::Random other(99);
    nn::Mlp reloaded = nn::make_link_predictor(2 * dim, hidden, other);
    reloaded.load_weights(artifact);
    EXPECT_TRUE(same_bits(reloaded.forward(task.test.features),
                          probabilities));
}

TEST_P(LinkKernelExact, RunLinkPredictionMatchesLayeredPath)
{
    const auto [widths, momentum, weight_decay] = GetParam();
    const auto [dim, hidden] = widths;
    const Task task = make_task(dim, 23);
    const core::ClassifierConfig config =
        make_config(hidden, momentum, weight_decay);

    LayeredRun reference = train_layered(initial_net(task, config), task,
                                         config);
    const core::TaskResult result =
        core::run_link_prediction(task.splits, task.embedding, config);
    const nn::Tensor& test_out = reference.net.forward(task.test.features);
    EXPECT_EQ(result.epochs_run, config.max_epochs);
    EXPECT_EQ(result.final_train_loss, reference.losses.back());
    EXPECT_EQ(result.valid_accuracy, reference.valid_accuracy.back());
    EXPECT_EQ(result.test_accuracy,
              core::binary_accuracy(test_out, task.test.binary_labels));
    EXPECT_EQ(result.test_auc,
              core::roc_auc(test_out, task.test.binary_labels));
}

std::string
case_name(const testing::TestParamInfo<Case>& test)
{
    const Widths widths = std::get<0>(test.param);
    return util::strcat("in", 2 * widths.first, "_hidden", widths.second,
                        std::get<1>(test.param) > 0.0f ? "_momentum" : "",
                        std::get<2>(test.param) > 0.0f ? "_decay" : "");
}

INSTANTIATE_TEST_SUITE_P(
    Widths, LinkKernelExact,
    testing::Combine(testing::Values(Widths{8, 16}, Widths{3, 13},
                                     Widths{32, 32}),
                     testing::Values(0.0f, 0.9f),
                     testing::Values(0.0f, 1e-4f)),
    case_name);

TEST(LinkKernel, EarlyStopMatchesLayeredPath)
{
    const Task task = make_task(8, 29);
    core::ClassifierConfig config = make_config(16, 0.9f, 0.0f);
    config.max_epochs = 8;
    // Aim for the accuracy the layered run reaches by epoch 4, so the
    // stop lands mid-run.
    const double target =
        train_layered(initial_net(task, config), task, config)
            .valid_accuracy[3];
    ASSERT_LT(target, 1.0);
    config.target_valid_accuracy = target;

    LayeredRun reference = train_layered(initial_net(task, config), task,
                                         config);
    ASSERT_LT(reference.losses.size(), config.max_epochs);
    const core::TaskResult result =
        core::run_link_prediction(task.splits, task.embedding, config);
    EXPECT_EQ(result.epochs_run, reference.losses.size());
    EXPECT_EQ(result.final_train_loss, reference.losses.back());
    EXPECT_EQ(result.valid_accuracy, reference.valid_accuracy.back());
    EXPECT_EQ(result.test_auc,
              core::roc_auc(reference.net.forward(task.test.features),
                            task.test.binary_labels));
}

TEST(LinkKernel, NanPreActivationsMatchLayeredRelu)
{
    // A NaN weight makes hidden unit 0 NaN on every row; ReLU must map
    // it to +0 in the forward and mask it in the backward exactly like
    // `v > 0 ? v : 0` and `y <= 0` do in the layers.
    const Task task = make_task(3, 31);
    core::ClassifierConfig config = make_config(13, 0.9f, 0.0f);
    config.max_epochs = 2;
    const auto poisoned = [&] {
        nn::Mlp net = initial_net(task, config);
        net.parameters()[0]->value(0, 0) =
            std::numeric_limits<float>::quiet_NaN();
        return net;
    };

    LayeredRun reference = train_layered(poisoned(), task, config);
    nn::Mlp net = poisoned();
    nn::LinkKernel kernel(net);
    EXPECT_EQ(train_kernel(kernel, task, config), reference.losses);
    nn::Tensor probabilities;
    kernel.predict(task.test.features, probabilities);
    EXPECT_TRUE(same_bits(probabilities,
                          reference.net.forward(task.test.features)));
}

TEST(LinkKernel, LoaderIndicesMatchBatch)
{
    const Task task = make_task(3, 37);
    nn::DataLoader loader(task.train, 64, true, 3);
    loader.start_epoch();
    nn::Tensor features;
    std::vector<float> binary;
    std::vector<std::uint32_t> classes;
    for (std::size_t b = 0; b < loader.num_batches(); ++b) {
        loader.batch(b, features, binary, classes);
        const std::span<const std::uint32_t> rows = loader.indices(b);
        ASSERT_EQ(rows.size(), features.rows());
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const auto expected = task.train.features.row(rows[i]);
            EXPECT_EQ(std::memcmp(features.row(i).data(), expected.data(),
                                  expected.size_bytes()),
                      0);
            EXPECT_EQ(binary[i], task.train.binary_labels[rows[i]]);
        }
    }
    EXPECT_EQ(loader.indices(loader.num_batches() - 1).size(), 1000u % 64);
}

TEST(LinkKernel, RejectsOtherArchitectures)
{
    rng::Random random(1);
    nn::Mlp residual = nn::make_residual_link_predictor(16, 16, 2, random);
    EXPECT_THROW(nn::LinkKernel{residual}, util::Error);
    nn::Mlp node = nn::make_node_classifier(16, 32, 16, 4, random);
    EXPECT_THROW(nn::LinkKernel{node}, util::Error);
}

} // namespace
} // namespace tgl
