#include "core/pipeline.hpp"

#include "graph/builder.hpp"
#include "obs/trace.hpp"
#include "util/cancellation.hpp"
#include "util/fault_injection.hpp"
#include "util/logging.hpp"
#include "util/string_util.hpp"
#include "util/timer.hpp"

#include <optional>
#include <string_view>

namespace tgl::core {

std::vector<std::string>
PipelineConfig::validate() const
{
    std::vector<std::string> problems;
    const auto collect = [&problems](const char* section,
                                     std::vector<std::string> section_problems) {
        for (std::string& problem : section_problems) {
            problems.push_back(std::string(section) + "." +
                               std::move(problem));
        }
    };
    collect("walk", walk.validate());
    collect("sgns", sgns.validate());
    collect("split", split.validate());
    collect("classifier", classifier.validate());
    if (w2v_mode == W2vMode::kBatched && w2v_batch_size == 0) {
        problems.push_back(
            "w2v_batch_size must be >= 1 in batched word2vec mode");
    }
    return problems;
}

namespace {

/// Refuse to start a multi-phase run on a bad configuration; the error
/// lists every diagnostic so one round of fixes suffices.
void
enforce_valid(const PipelineConfig& config)
{
    const std::vector<std::string> problems = config.validate();
    if (problems.empty()) {
        return;
    }
    std::string message = "invalid pipeline configuration:";
    for (const std::string& problem : problems) {
        message += "\n  - " + problem;
    }
    util::fatal(message);
}

/// The phase-artifact dependency chain: edges -> walk corpus ->
/// embedding. Each stage fingerprint folds in its predecessor, so any
/// upstream change invalidates every downstream checkpoint.
struct PipelineFingerprints
{
    std::uint64_t walk = 0;
    std::uint64_t embed = 0;
    /// Keys the prefix-CDF table, which depends only on the CSR layout
    /// (edges + symmetrize) and the transition kind — NOT on the seed
    /// or walk counts, so reseeded runs reuse the same artifact.
    std::uint64_t cache = 0;
};

PipelineFingerprints
compute_fingerprints(const graph::EdgeList& edges,
                     const PipelineConfig& config)
{
    const std::uint64_t edges_fp = fingerprint_edges(edges);

    util::Fingerprint walk_fp;
    walk_fp.mix(edges_fp);
    walk_fp.mix(static_cast<std::uint8_t>(config.symmetrize_graph));
    mix_config(walk_fp, config.walk);

    util::Fingerprint cache_fp;
    cache_fp.mix(std::string_view("trcache"));
    cache_fp.mix(edges_fp);
    cache_fp.mix(static_cast<std::uint8_t>(config.symmetrize_graph));
    cache_fp.mix(static_cast<std::uint32_t>(config.walk.transition));

    util::Fingerprint embed_fp;
    embed_fp.mix(walk_fp.value());
    mix_config(embed_fp, config.sgns);
    embed_fp.mix(static_cast<std::uint32_t>(config.w2v_mode));
    if (config.w2v_mode == W2vMode::kBatched) {
        embed_fp.mix(static_cast<std::uint64_t>(config.w2v_batch_size));
    }
    return {walk_fp.value(), embed_fp.value(), cache_fp.value()};
}

/// Shared front-end: build CSR, walk, embed. Fills times/profiles and
/// returns the embedding plus the built graph (needed for negative
/// sampling downstream). With @p checkpoints set, a stored embedding
/// whose fingerprint matches skips both the walk and word2vec phases;
/// a stored corpus skips just the walk phase.
embed::Embedding
run_front_end(const graph::EdgeList& edges, const PipelineConfig& config,
              graph::TemporalGraph& graph, PipelineResult& result,
              const CheckpointManager* checkpoints,
              const PipelineFingerprints& fingerprints)
{
    // Build runs on the calling thread, so its span measures the
    // phase's counters. The walk and word2vec spans carry none: their
    // work runs on the pool, and the child spans walk.generate and
    // sgns.train carry the team's counters. A calling-thread scope
    // around them would take those counts away from the children
    // whenever the team is this thread alone.
    util::check_cancellation("the build-graph phase boundary");
    util::Timer timer;
    graph::BuildOptions build_options;
    build_options.symmetrize = config.symmetrize_graph;
    {
        const obs::Span span("pipeline.build_graph", "build_graph");
        graph = graph::GraphBuilder::build(edges, build_options);
        result.times.build_graph = timer.seconds();
    }
    result.num_nodes = graph.num_nodes();
    result.num_edges = graph.num_edges();

    embed::Embedding embedding;
    if (checkpoints != nullptr &&
        checkpoints->load_embedding(fingerprints.embed, embedding)) {
        // Both upstream phases are covered by the embedding artifact;
        // their timers stay ~0 and the corpus is never materialized.
        result.checkpoints.embedding_loaded = true;
        return embedding;
    }

    util::check_cancellation("the walk phase boundary");
    timer.reset();
    walk::Corpus corpus;
    {
        const obs::Span span("pipeline.walk");
        if (checkpoints != nullptr &&
            checkpoints->load_corpus(fingerprints.walk, corpus)) {
            result.checkpoints.corpus_loaded = true;
        } else {
            // The prefix-CDF table is itself a resumable artifact: it is
            // keyed only by the graph and transition kind, so a run that
            // was reseeded (or crashed mid-walk) skips the O(E) exp pass.
            walk::TransitionCache cache;
            const walk::TransitionCache* cache_ptr = nullptr;
            if (walk::use_transition_cache(config.walk, graph)) {
                if (checkpoints != nullptr &&
                    checkpoints->load_transition_cache(fingerprints.cache,
                                                       cache)) {
                    result.checkpoints.cache_loaded = true;
                } else {
                    cache = walk::TransitionCache::build(
                        graph, config.walk.transition,
                        config.walk.num_threads);
                    if (checkpoints != nullptr) {
                        checkpoints->store_transition_cache(
                            fingerprints.cache, cache);
                        result.checkpoints.cache_stored = true;
                    }
                }
                cache_ptr = &cache;
            }

            corpus = walk::generate_walks(graph, config.walk, cache_ptr,
                                          &result.walk_profile);
            if (checkpoints != nullptr) {
                checkpoints->store_corpus(fingerprints.walk, corpus);
                result.checkpoints.corpus_stored = true;
            }
        }
        result.times.random_walk = timer.seconds();
    }
    result.corpus_walks = corpus.num_walks();
    result.corpus_tokens = corpus.num_tokens();
    util::fault_point("pipeline.after-walk");

    util::check_cancellation("the word2vec phase boundary");
    timer.reset();
    {
        const obs::Span span("pipeline.word2vec");
        if (config.w2v_mode == W2vMode::kHogwild) {
            embedding = embed::train_sgns(corpus, graph.num_nodes(),
                                          config.sgns, &result.w2v_stats);
        } else {
            embed::BatchedSgnsConfig batched;
            batched.sgns = config.sgns;
            batched.batch_size = config.w2v_batch_size;
            embedding = embed::train_sgns_batched(
                corpus, graph.num_nodes(), batched, &result.w2v_stats);
        }
        if (checkpoints != nullptr) {
            checkpoints->store_embedding(fingerprints.embed, embedding);
            result.checkpoints.embedding_stored = true;
        }
        result.times.word2vec = timer.seconds();
    }
    util::fault_point("pipeline.after-word2vec");
    return embedding;
}

/// The body both task pipelines share: the front end, then @p prepare
/// (the task's splits from the built graph, timed as the
/// data-preparation phase) and @p classify (the task call, given its
/// classifier checkpoint). The classifier fingerprint covers the
/// embedding chain, data preparation, the classifier configuration,
/// @p task_tag and, when given, the node labels.
template <typename Prepare, typename Classify>
PipelineResult
run_task_pipeline(const graph::EdgeList& edges, const PipelineConfig& config,
                  std::string_view task_tag,
                  const std::vector<std::uint32_t>* labels,
                  std::uint32_t num_classes, Prepare prepare,
                  Classify classify)
{
    enforce_valid(config);
    PipelineResult result;
    std::optional<CheckpointManager> manager;
    PipelineFingerprints fingerprints;
    if (!config.checkpoint_dir.empty()) {
        manager.emplace(config.checkpoint_dir);
        fingerprints = compute_fingerprints(edges, config);
    }
    graph::TemporalGraph graph;
    const embed::Embedding embedding =
        run_front_end(edges, config, graph, result,
                      manager ? &*manager : nullptr, fingerprints);

    util::check_cancellation("the data-preparation phase boundary");
    const auto splits = [&] {
        const obs::Span span("pipeline.data_prep", "data_prep");
        const util::Timer timer;
        auto prepared = prepare(graph);
        result.times.data_prep = timer.seconds();
        return prepared;
    }();

    ClassifierCheckpoint checkpoint;
    if (manager) {
        util::Fingerprint fp;
        fp.mix(fingerprints.embed);
        mix_config(fp, config.split);
        mix_config(fp, config.classifier);
        fp.mix(task_tag);
        if (labels != nullptr) {
            fp.mix(static_cast<std::uint64_t>(labels->size()));
            fp.mix_bytes(labels->data(),
                         labels->size() * sizeof(std::uint32_t));
            fp.mix(num_classes);
        }
        checkpoint = {&*manager, std::string(task_tag), fp.value()};
    }
    result.task =
        classify(splits, embedding, manager ? &checkpoint : nullptr);
    result.checkpoints.classifier_loaded = checkpoint.loaded;
    result.checkpoints.classifier_stored = checkpoint.stored;
    result.times.train = result.task.train_seconds;
    result.times.train_per_epoch = result.task.seconds_per_epoch;
    result.times.test = result.task.test_seconds;
    if (manager) {
        // The metrics snapshot carries the recovery.* counters; this
        // makes the same numbers part of the structured result.
        result.checkpoints.artifacts_quarantined =
            manager->quarantined_count();
        result.checkpoints.artifacts_regenerated =
            manager->regenerated_count();
    }
    util::fault_point("pipeline.after-train");
    return result;
}

} // namespace

PipelineResult
run_link_prediction_pipeline(const graph::EdgeList& edges,
                             const PipelineConfig& config)
{
    return run_task_pipeline(
        edges, config, "link-predictor", nullptr, 0,
        [&](const graph::TemporalGraph& graph) {
            return prepare_link_splits(edges, graph, config.split);
        },
        [&](const LinkSplits& splits, const embed::Embedding& embedding,
            ClassifierCheckpoint* checkpoint) {
            return run_link_prediction(splits, embedding,
                                       config.classifier, checkpoint);
        });
}

PipelineResult
run_node_classification_pipeline(const graph::EdgeList& edges,
                                 const std::vector<std::uint32_t>& labels,
                                 std::uint32_t num_classes,
                                 const PipelineConfig& config)
{
    return run_task_pipeline(
        edges, config, "node-classifier", &labels, num_classes,
        [&](const graph::TemporalGraph& graph) {
            return prepare_node_splits(graph.num_nodes(), config.split);
        },
        [&](const NodeSplits& splits, const embed::Embedding& embedding,
            ClassifierCheckpoint* checkpoint) {
            return run_node_classification(splits, labels, num_classes,
                                           embedding, config.classifier,
                                           checkpoint);
        });
}

PipelineResult
run_pipeline(const gen::Dataset& dataset, const PipelineConfig& config)
{
    if (dataset.task == gen::Task::kLinkPrediction) {
        return run_link_prediction_pipeline(dataset.edges, config);
    }
    return run_node_classification_pipeline(
        dataset.edges, dataset.labels, dataset.num_classes, config);
}

std::string
format_phase_times(const PhaseTimes& times)
{
    return util::strcat(
        "build ", util::format_fixed(times.build_graph, 3), "s | rwalk ",
        util::format_fixed(times.random_walk, 3), "s | word2vec ",
        util::format_fixed(times.word2vec, 3), "s | prep ",
        util::format_fixed(times.data_prep, 3), "s | train ",
        util::format_fixed(times.train, 3), "s (",
        util::format_fixed(times.train_per_epoch, 3), "s/epoch) | test ",
        util::format_fixed(times.test, 3), "s");
}

} // namespace tgl::core
