#include "core/classifier.hpp"

#include "core/data_prep.hpp"
#include "core/metrics.hpp"
#include "nn/link_kernel.hpp"
#include "nn/loss.hpp"
#include "nn/optim.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/cancellation.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>

namespace tgl::core {

TaskResult
train_classifier(nn::Mlp& net, const nn::TaskDataset& train,
                 const nn::TaskDataset& valid, const nn::TaskDataset& test,
                 std::uint32_t num_classes, const ClassifierConfig& config,
                 std::uint64_t loader_seed, ClassifierCheckpoint* checkpoint,
                 std::string_view task)
{
    std::string label(task);
    std::replace(label.begin(), label.end(), '_', ' ');

    // An input too short for the split fractions leaves a split empty:
    // training would average a loss over zero rows (NaN) and the test
    // metrics would describe zero rows.
    if (const char* empty = train.size() == 0  ? "train"
                            : test.size() == 0 ? "test"
                                               : nullptr) {
        util::fatal(util::strcat(
            label, ": the ", empty,
            " split is empty — too few examples for the split fractions"));
    }
    check_finite_features(train, label.c_str());
    check_finite_features(valid, label.c_str());
    check_finite_features(test, label.c_str());

    const bool binary = !train.binary_labels.empty();
    nn::DataLoader loader(train, config.batch_size, true, loader_seed);
    const bool restored =
        checkpoint != nullptr && checkpoint->manager != nullptr &&
        checkpoint->manager->load_classifier(
            checkpoint->name, checkpoint->fingerprint, net);
    if (checkpoint != nullptr) {
        checkpoint->loaded = restored;
    }

    // Pick the training step and the forward once. The plain link
    // predictor runs on the fused kernel, which is bit-identical to the
    // layered path (DESIGN.md §16); every other network stays on
    // nn::Mlp.
    std::optional<nn::LinkKernel> kernel;
    if (binary && !config.residual) {
        kernel.emplace(net);
    }
    nn::Sgd optimizer(kernel ? kernel->parameters() : net.parameters(),
                      config.lr, config.momentum, config.weight_decay);
    nn::Tensor batch_features;
    std::vector<float> batch_binary;
    std::vector<std::uint32_t> batch_classes;
    nn::Tensor probabilities;
    const auto train_batch = [&](std::size_t b) {
        if (kernel) {
            return kernel->train_step(train, loader.indices(b));
        }
        loader.batch(b, batch_features, batch_binary, batch_classes);
        const nn::Tensor& output = net.forward(batch_features);
        const nn::LossResult loss =
            binary ? nn::binary_cross_entropy(output, batch_binary)
                   : nn::nll_loss(output, batch_classes);
        optimizer.zero_grad();
        net.backward(loss.grad);
        return loss.loss;
    };
    const auto predict =
        [&](const nn::Tensor& features) -> const nn::Tensor& {
        if (!kernel) {
            return net.forward(features);
        }
        kernel->predict(features, probabilities);
        return probabilities;
    };
    const auto accuracy = [&](const nn::TaskDataset& data) {
        const nn::Tensor& output = predict(data.features);
        return binary ? binary_accuracy(output, data.binary_labels)
                      : multiclass_accuracy(output, data.class_labels);
    };

    const obs::Span span(util::strcat("classifier.", task));
    // Registration interns by name, so every task feeds the same cells.
    obs::Registry& registry = obs::Registry::global();
    obs::Counter epochs_counter = registry.counter("classifier.epochs");
    obs::Counter batches_counter = registry.counter("classifier.batches");
    obs::Histogram batch_hist = registry.histogram(
        "classifier.batch_seconds",
        {0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
         0.05, 0.1, 0.25, 0.5, 1.0});

    TaskResult result;
    {
        // The classifier runs on the calling thread, so the span's
        // per-thread counter scope captures the whole loop.
        const obs::Span train_span("pipeline.train", "train");
        util::Timer train_timer;
        for (unsigned epoch = 0; !restored && epoch < config.max_epochs;
             ++epoch) {
            util::check_cancellation("the classifier epoch loop");
            const obs::Span epoch_span("classifier.epoch");
            loader.start_epoch();
            double epoch_loss = 0.0;
            for (std::size_t b = 0; b < loader.num_batches(); ++b) {
                util::Timer batch_timer;
                const double loss = train_batch(b);
                if (!std::isfinite(loss)) {
                    util::fatal(util::strcat(
                        label, ": non-finite training loss at epoch ",
                        epoch + 1, ", batch ", b + 1,
                        " — the classifier diverged (lower lr or check "
                        "the input features)"));
                }
                epoch_loss += loss;
                optimizer.step();
                batches_counter.inc();
                batch_hist.observe(batch_timer.seconds());
            }
            epochs_counter.inc();
            result.final_train_loss =
                epoch_loss / static_cast<double>(loader.num_batches());
            result.epochs_run = epoch + 1;
            registry.gauge("classifier.train_loss")
                .set(result.final_train_loss);

            // Validation-accuracy early stop (the artifact's target
            // accuracy knob).
            if (config.target_valid_accuracy < 1.0 && valid.size() > 0) {
                result.valid_accuracy = accuracy(valid);
                if (result.valid_accuracy >= config.target_valid_accuracy) {
                    break;
                }
            }
        }
        result.train_seconds = train_timer.seconds();
    }
    result.seconds_per_epoch =
        result.epochs_run == 0 ? 0.0
                               : result.train_seconds / result.epochs_run;

    if (!restored && checkpoint != nullptr &&
        checkpoint->manager != nullptr) {
        if (kernel) {
            kernel->store(net);
        }
        checkpoint->manager->store_classifier(
            checkpoint->name, checkpoint->fingerprint, net);
        checkpoint->stored = true;
    }

    if (valid.size() > 0) {
        result.valid_accuracy = accuracy(valid);
    }
    registry.gauge("classifier.valid_accuracy").set(result.valid_accuracy);

    util::Timer test_timer;
    const obs::Span test_span("pipeline.test", "test");
    const nn::Tensor& test_out = predict(test.features);
    if (binary) {
        result.test_accuracy = binary_accuracy(test_out, test.binary_labels);
        result.test_auc = roc_auc(test_out, test.binary_labels);
    } else {
        result.test_accuracy =
            multiclass_accuracy(test_out, test.class_labels);
        result.test_macro_f1 =
            macro_f1(test_out, test.class_labels, num_classes);
    }
    result.test_seconds = test_timer.seconds();
    return result;
}

} // namespace tgl::core
