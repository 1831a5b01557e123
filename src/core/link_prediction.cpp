#include "core/link_prediction.hpp"

#include "nn/link_kernel.hpp"
#include "nn/loss.hpp"
#include "nn/mlp.hpp"
#include "nn/optim.hpp"
#include "obs/metrics.hpp"
#include "obs/perf_events.hpp"
#include "obs/trace.hpp"
#include "util/cancellation.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

#include <cmath>
#include <functional>
#include <optional>

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
    // An edge list too short for the split fractions leaves a split
    // empty: training would average a loss over zero rows (NaN) and the
    // test metrics would describe zero rows.
    if (const char* empty = splits.train.empty()  ? "train"
                            : splits.test.empty() ? "test"
                                                  : nullptr) {
        util::fatal(util::strcat(
            "link prediction: the ", empty,
            " split is empty — too few edges for the split fractions"));
    }

    TaskResult result;
    rng::Random random(config.seed);

    const nn::TaskDataset train_set =
        make_edge_dataset(splits.train, embedding);
    const nn::TaskDataset valid_set =
        make_edge_dataset(splits.valid, embedding);
    const nn::TaskDataset test_set =
        make_edge_dataset(splits.test, embedding);
    check_finite_features(train_set, "link prediction");
    check_finite_features(valid_set, "link prediction");
    check_finite_features(test_set, "link prediction");

    nn::Mlp net =
        config.residual
            ? nn::make_residual_link_predictor(2 * embedding.dim(),
                                               config.hidden_dim,
                                               config.residual_blocks,
                                               random)
            : nn::make_link_predictor(2 * embedding.dim(),
                                      config.hidden_dim, random);
    nn::DataLoader loader(train_set, config.batch_size, true,
                          config.seed ^ 0x11);

    const bool restored =
        checkpoint != nullptr && checkpoint->manager != nullptr &&
        checkpoint->manager->load_classifier(
            checkpoint->name, checkpoint->fingerprint, net);
    if (checkpoint != nullptr) {
        checkpoint->loaded = restored;
    }

    // Pick the training step and the forward once, from the
    // architecture. The plain predictor runs on the fused kernel, which
    // is bit-identical to the layered path (DESIGN.md §16); the residual
    // one has no kernel and stays on nn::Mlp.
    std::optional<nn::LinkKernel> kernel;
    if (!config.residual) {
        kernel.emplace(net);
    }
    nn::Sgd optimizer(kernel ? kernel->parameters() : net.parameters(),
                      config.lr, config.momentum, config.weight_decay);
    std::function<double(std::size_t)> train_batch;
    std::function<const nn::Tensor&(const nn::Tensor&)> predict;
    nn::Tensor batch_features;
    std::vector<float> batch_binary;
    std::vector<std::uint32_t> batch_classes;
    nn::Tensor probabilities;
    if (kernel) {
        train_batch = [&](std::size_t b) {
            return kernel->train_step(train_set, loader.indices(b));
        };
        predict = [&](const nn::Tensor& features) -> const nn::Tensor& {
            kernel->predict(features, probabilities);
            return probabilities;
        };
    } else {
        train_batch = [&](std::size_t b) {
            loader.batch(b, batch_features, batch_binary, batch_classes);
            const nn::LossResult loss = nn::binary_cross_entropy(
                net.forward(batch_features), batch_binary);
            optimizer.zero_grad();
            net.backward(loss.grad);
            return loss.loss;
        };
        predict = [&](const nn::Tensor& features) -> const nn::Tensor& {
            return net.forward(features);
        };
    }

    const obs::Span span("classifier.link_prediction");
    // Shared handles: registration interns by name, so both classifier
    // entry points feed the same registry cells.
    obs::Registry& registry = obs::Registry::global();
    obs::Counter epochs_counter = registry.counter("classifier.epochs");
    obs::Counter batches_counter = registry.counter("classifier.batches");
    obs::Histogram batch_hist = registry.histogram(
        "classifier.batch_seconds",
        {0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
         0.05, 0.1, 0.25, 0.5, 1.0});

    util::Timer train_timer;
    const auto train_begin = std::chrono::steady_clock::now();
    // The MLP runs on the calling thread, so a plain per-thread scope
    // captures the whole training loop.
    obs::PerfScope train_perf("train");

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
                    "link prediction: non-finite training loss at epoch ",
                    epoch + 1, ", batch ", b + 1,
                    " — the classifier diverged (lower lr or check the "
                    "input features)"));
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
        if (config.target_valid_accuracy < 1.0 && !splits.valid.empty()) {
            result.valid_accuracy = binary_accuracy(
                predict(valid_set.features), valid_set.binary_labels);
            if (result.valid_accuracy >= config.target_valid_accuracy) {
                break;
            }
        }
    }
    result.train_seconds = train_timer.seconds();
    const obs::PerfSample train_sample = train_perf.close();
    if (obs::TraceSession* session = obs::TraceSession::current()) {
        session->record("pipeline.train", train_begin,
                        std::chrono::steady_clock::now(),
                        obs::perf_span_args(train_sample));
    }
    result.seconds_per_epoch =
        result.epochs_run == 0
            ? 0.0
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

    if (!splits.valid.empty()) {
        result.valid_accuracy = binary_accuracy(
            predict(valid_set.features), valid_set.binary_labels);
    }

    registry.gauge("classifier.valid_accuracy")
        .set(result.valid_accuracy);

    util::Timer test_timer;
    const obs::Span test_span("pipeline.test", "test");
    const nn::Tensor& test_out = predict(test_set.features);
    result.test_accuracy =
        binary_accuracy(test_out, test_set.binary_labels);
    result.test_auc = roc_auc(test_out, test_set.binary_labels);
    result.test_seconds = test_timer.seconds();
    return result;
}

} // namespace tgl::core
