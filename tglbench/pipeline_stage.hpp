/// @file
/// Pipeline side of the benchmark: dataset set-up, checked
/// core::run_pipeline calls, and the traced per-layer decomposition of
/// one pipeline run into calls on each layer's public functions.
#pragma once

#include "report.hpp"

#include "core/pipeline.hpp"
#include "gen/catalog.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace tglbench {

/// The benchmark's pipeline configuration: library defaults, every seed
/// field from @p seed, and walk.batch_width = 0 (auto), as the command
/// line front end passes it. Callers add only a checkpoint directory.
tgl::core::PipelineConfig pipeline_config(std::uint64_t seed);

/// Generate catalog dataset @p name from @p seed at least @p min_reps
/// times and for at least @p min_seconds in total; appends each
/// generation's wall time to @p seconds and returns the dataset.
tgl::gen::Dataset make_dataset_timed(const std::string& name, double scale,
                                     std::uint64_t seed, int min_reps,
                                     double min_seconds,
                                     std::vector<double>& seconds);

/// The model-quality figure of a task: test AUC for link prediction,
/// test macro-F1 for node classification.
double task_quality(const tgl::gen::Dataset& dataset,
                    const tgl::core::TaskResult& task);

/// One timed run_pipeline call.
struct PipelineCall
{
    double seconds = 0.0;
    double quality = 0.0;
    tgl::core::PipelineResult result;
};

/// Time core::run_pipeline with its artifacts written to the fresh
/// directory @p dir (which it leaves in place for serving), then check
/// the outputs: the stored embedding is finite and the model beats
/// chance. Counts as one attempted operation in @p report.
PipelineCall run_pipeline_checked(const tgl::gen::Dataset& dataset,
                                  tgl::core::PipelineConfig config,
                                  const std::string& dir, Report& report);

/// Wall time of each layer call in one decomposed pipeline run, plus
/// the layers' own work counts.
struct LayerSample
{
    double build_s = 0.0;
    double cache_s = 0.0;
    double walk_s = 0.0;
    double embed_s = 0.0;
    double split_s = 0.0;
    double classify_s = 0.0;
    /// The decomposed run end to end (layer calls and the
    /// benchmark's own bookkeeping between them).
    double wall_s = 0.0;
    /// A separate make_edge_dataset / make_node_dataset call on the
    /// same splits (outside wall_s: run_pipeline makes none).
    double features_s = 0.0;
    double edges = 0.0;
    tgl::walk::WalkProfile walk;
    double tokens = 0.0;
    double pairs = 0.0;
    double negatives_accepted = 0.0;
    double negative_attempts = 0.0;
    unsigned epochs = 0;
    double epoch_s = 0.0;

    double
    layer_sum() const
    {
        return build_s + cache_s + walk_s + embed_s + split_s + classify_s;
    }
};

/// Re-run the pipeline as separate calls to GraphBuilder::build,
/// TransitionCache::build, generate_walks, train_sgns, the split
/// function and the classifier task, each recorded as a span in the
/// active obs::TraceSession. Fails a check in @p report unless the
/// deterministic counts (edges, walks kept, walk steps, corpus tokens)
/// match @p reference, a run_pipeline result for the same config.
LayerSample run_decomposed(const tgl::gen::Dataset& dataset,
                           const tgl::core::PipelineConfig& config,
                           const tgl::core::PipelineResult& reference,
                           Report& report);

} // namespace tglbench
