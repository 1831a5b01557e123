#include "pipeline_stage.hpp"

#include "core/checkpoint.hpp"
#include "graph/builder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"

#include <cmath>
#include <filesystem>
#include <utility>

namespace tglbench {

using namespace tgl;

namespace {

/// Time @p fn as one bench-side span named @p name; returns seconds.
template <typename Fn>
double
timed_span(const char* name, Fn&& fn)
{
    const Clock::time_point begin = Clock::now();
    std::forward<Fn>(fn)();
    const Clock::time_point end = Clock::now();
    if (obs::TraceSession* session = obs::TraceSession::current()) {
        session->record(name, begin, end);
    }
    return seconds_between(begin, end);
}

bool
all_finite(const embed::Embedding& embedding)
{
    for (graph::NodeId u = 0; u < embedding.num_nodes(); ++u) {
        for (const float value : embedding.row(u)) {
            if (!std::isfinite(value)) {
                return false;
            }
        }
    }
    return true;
}

void
check_quality(const gen::Dataset& dataset, const core::TaskResult& task,
              Report& report)
{
    const double quality = task_quality(dataset, task);
    const double chance = dataset.task == gen::Task::kLinkPrediction
                              ? 0.5
                              : 1.0 / dataset.num_classes;
    if (!(quality > chance)) {
        report.fail(util::strcat(dataset.name, ": test quality ", quality,
                                 " is not above chance (", chance, ")"));
    }
}

double
counter_value(const char* name)
{
    return obs::Registry::global().snapshot().value(name);
}

} // namespace

core::PipelineConfig
pipeline_config(std::uint64_t seed)
{
    core::PipelineConfig config;
    config.walk.seed = seed;
    config.walk.batch_width = 0;
    config.sgns.seed = seed;
    config.split.seed = seed;
    config.classifier.seed = seed;
    return config;
}

gen::Dataset
make_dataset_timed(const std::string& name, double scale, std::uint64_t seed,
                   int min_reps, double min_seconds,
                   std::vector<double>& seconds)
{
    gen::Dataset dataset;
    double total = 0.0;
    while (seconds.size() < static_cast<std::size_t>(min_reps) ||
           total < min_seconds) {
        seconds.push_back(timed_span("bench.gen.make_dataset", [&] {
            dataset = gen::make_dataset(name, scale, seed);
        }));
        total += seconds.back();
    }
    return dataset;
}

double
task_quality(const gen::Dataset& dataset, const core::TaskResult& task)
{
    return dataset.task == gen::Task::kLinkPrediction ? task.test_auc
                                                      : task.test_macro_f1;
}

PipelineCall
run_pipeline_checked(const gen::Dataset& dataset, core::PipelineConfig config,
                     const std::string& dir, Report& report)
{
    std::filesystem::remove_all(dir);
    config.checkpoint_dir = dir;
    report.count(1);

    PipelineCall call;
    const Clock::time_point begin = Clock::now();
    call.result = core::run_pipeline(dataset, config);
    call.seconds = seconds_since(begin);
    call.quality = task_quality(dataset, call.result.task);

    check_quality(dataset, call.result.task, report);
    const embed::Embedding embedding = embed::Embedding::load_binary_file(
        core::CheckpointManager(dir).embedding_path());
    if (embedding.num_nodes() != call.result.num_nodes ||
        !all_finite(embedding)) {
        report.fail(dataset.name + ": stored embedding is not a finite " +
                    "row per node");
    }
    return call;
}

LayerSample
run_decomposed(const gen::Dataset& dataset, const core::PipelineConfig& config,
               const core::PipelineResult& reference, Report& report)
{
    report.count(1);
    LayerSample sample;
    const Clock::time_point begin = Clock::now();

    graph::TemporalGraph graph;
    sample.build_s = timed_span("bench.graph.build", [&] {
        graph::BuildOptions options;
        options.symmetrize = config.symmetrize_graph;
        graph = graph::GraphBuilder::build(dataset.edges, options);
    });
    sample.edges = static_cast<double>(dataset.edges.size());

    walk::TransitionCache cache;
    const walk::TransitionCache* cache_ptr = nullptr;
    if (walk::use_transition_cache(config.walk, graph)) {
        sample.cache_s = timed_span("bench.walk.cache_build", [&] {
            cache = walk::TransitionCache::build(
                graph, config.walk.transition, config.walk.num_threads);
        });
        cache_ptr = &cache;
    }
    walk::Corpus corpus;
    sample.walk_s = timed_span("bench.walk.generate", [&] {
        corpus = walk::generate_walks(graph, config.walk, cache_ptr,
                                      &sample.walk);
    });
    sample.tokens = static_cast<double>(corpus.num_tokens());

    embed::Embedding embedding;
    embed::TrainStats train_stats;
    sample.embed_s = timed_span("bench.embed.train_sgns", [&] {
        embedding = embed::train_sgns(corpus, graph.num_nodes(),
                                      config.sgns, &train_stats);
    });
    sample.pairs = static_cast<double>(train_stats.pairs_trained);

    core::TaskResult task;
    if (dataset.task == gen::Task::kLinkPrediction) {
        const double attempts_before =
            counter_value("dataprep.negative_attempts");
        const double collisions_before =
            counter_value("dataprep.negative_collisions");
        core::LinkSplits splits;
        sample.split_s = timed_span("bench.data_prep.link_splits", [&] {
            splits = core::prepare_link_splits(dataset.edges, graph,
                                               config.split);
        });
        sample.negative_attempts =
            counter_value("dataprep.negative_attempts") - attempts_before;
        sample.negatives_accepted =
            sample.negative_attempts -
            (counter_value("dataprep.negative_collisions") -
             collisions_before);
        sample.classify_s = timed_span("bench.classify.link_prediction", [&] {
            task = core::run_link_prediction(splits, embedding,
                                             config.classifier);
        });
        sample.wall_s = seconds_since(begin);
        sample.features_s = timed_span("bench.classify.features", [&] {
            const nn::TaskDataset features =
                core::make_edge_dataset(splits.train, embedding);
        });
    } else {
        core::NodeSplits splits;
        sample.split_s = timed_span("bench.data_prep.node_splits", [&] {
            splits = core::prepare_node_splits(graph.num_nodes(),
                                               config.split);
        });
        sample.classify_s =
            timed_span("bench.classify.node_classification", [&] {
                task = core::run_node_classification(
                    splits, dataset.labels, dataset.num_classes, embedding,
                    config.classifier);
            });
        sample.wall_s = seconds_since(begin);
        sample.features_s = timed_span("bench.classify.features", [&] {
            const nn::TaskDataset features = core::make_node_dataset(
                splits.train, dataset.labels, embedding);
        });
    }
    sample.epochs = task.epochs_run;
    sample.epoch_s = task.seconds_per_epoch;

    check_quality(dataset, task, report);
    if (!all_finite(embedding)) {
        report.fail(dataset.name + ": decomposed embedding is not finite");
    }
    // The decomposition guard: the same calls on the same config must
    // reproduce run_pipeline's deterministic counts, or the per-layer
    // times describe some other pipeline.
    const auto guard = [&](const char* what, double got, double want) {
        if (got != want) {
            report.fail(util::strcat(
                dataset.name, ": decomposition drifted from run_pipeline: ",
                what, " ", got, " != ", want));
        }
    };
    guard("num_edges", static_cast<double>(graph.num_edges()),
          static_cast<double>(reference.num_edges));
    guard("corpus tokens", sample.tokens,
          static_cast<double>(reference.corpus_tokens));
    guard("walks kept", static_cast<double>(sample.walk.walks_kept),
          static_cast<double>(reference.walk_profile.walks_kept));
    guard("walk steps", static_cast<double>(sample.walk.steps_taken),
          static_cast<double>(reference.walk_profile.steps_taken));
    return sample;
}

} // namespace tglbench
