/// @file
/// Umbrella header: the full public API of the tgl library.
///
/// tgl reproduces the random-walk temporal graph learning pipeline of
/// Talati et al., "A Deep Dive Into Understanding The Random Walk-Based
/// Temporal Graph Learning" (IISWC 2021): temporal random walks over a
/// CSR temporal graph, skip-gram node embeddings, and FNN classifiers
/// for link prediction and node classification, plus the workload-
/// characterization substrate the paper's evaluation uses.
///
/// Quick start:
/// @code
///   auto dataset = tgl::gen::make_dataset("ia-email", 0.05);
///   tgl::core::PipelineConfig config; // paper-optimal defaults
///   auto result = tgl::core::run_pipeline(dataset, config);
/// @endcode
#pragma once

// util: errors, logging, timing, threading, crash-safe artifact I/O
#include "util/artifact_io.hpp"
#include "util/cancellation.hpp"
#include "util/cli.hpp"
#include "util/env.hpp"
#include "util/error.hpp"
#include "util/fault_injection.hpp"
#include "util/logging.hpp"
#include "util/parallel_for.hpp"
#include "util/retry.hpp"
#include "util/string_util.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

// rng: generators and samplers
#include "rng/alias_table.hpp"
#include "rng/discrete_sampler.hpp"
#include "rng/random.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro256.hpp"

// obs: metrics registry + tracing spans (pipeline-wide telemetry)
#include "obs/exposition.hpp"
#include "obs/metrics.hpp"
#include "obs/perf_events.hpp"
#include "obs/process_stats.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

// graph: temporal CSR substrate
#include "graph/builder.hpp"
#include "graph/edge_list.hpp"
#include "graph/io.hpp"
#include "graph/stats.hpp"
#include "graph/temporal_graph.hpp"
#include "graph/types.hpp"

// gen: synthetic temporal graph generators
#include "gen/barabasi_albert.hpp"
#include "gen/catalog.hpp"
#include "gen/erdos_renyi.hpp"
#include "gen/rmat.hpp"
#include "gen/sbm.hpp"
#include "gen/timestamps.hpp"

// walk: temporal random walk engine
#include "walk/config.hpp"
#include "walk/corpus.hpp"
#include "walk/engine.hpp"
#include "walk/stats.hpp"
#include "walk/transition.hpp"
#include "walk/transition_cache.hpp"

// embed: word2vec (skip-gram negative sampling)
#include "embed/batched_trainer.hpp"
#include "embed/embedding.hpp"
#include "embed/kernels.hpp"
#include "embed/negative_table.hpp"
#include "embed/sgns_model.hpp"
#include "embed/sigmoid_table.hpp"
#include "embed/trainer.hpp"
#include "embed/vocab.hpp"

// nn: classifier substrate
#include "nn/data_loader.hpp"
#include "nn/gemm.hpp"
#include "nn/init.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/mlp.hpp"
#include "nn/optim.hpp"
#include "nn/tensor.hpp"

// core: the end-to-end pipeline and downstream tasks
#include "core/checkpoint.hpp"
#include "core/data_prep.hpp"
#include "core/link_prediction.hpp"
#include "core/link_property_prediction.hpp"
#include "core/metrics.hpp"
#include "core/node_classification.hpp"
#include "core/pipeline.hpp"

// serve: high-QPS online inference over published embedding snapshots
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"

// profiling: workload characterization substrate
#include "profiling/comparison_kernels.hpp"
#include "profiling/op_counters.hpp"
#include "profiling/stall_model.hpp"
