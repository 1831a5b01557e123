/// @file
/// tgl_cli — a multi-command driver exposing each pipeline stage as a
/// shell command, replacing the artifact repository's collection of
/// Python helper scripts (preprocess_dataset.py, generate_synthetic.py,
/// the run scripts) with one self-contained binary.
///
/// Commands:
///   generate  — synthesize a temporal graph and write a .wel file
///   preprocess— normalize/clean an existing edge list (the
///               preprocess_dataset.py equivalent)
///   stats     — print structural statistics of a .wel graph
///   walk      — generate a temporal walk corpus from a .wel graph
///   embed     — train node embeddings from a corpus (or a graph)
///   neighbors — query nearest neighbors in an embedding
///   pipeline  — run the end-to-end pipeline, optionally resuming
///               phase artifacts from a crash-safe checkpoint directory
///   serve     — long-running TCP server answering link-score / kNN
///               queries over a trained checkpoint (see DESIGN.md §14)
///
/// Examples:
///   ./tgl_cli generate --kind ba --nodes 10000 --out g.wel
///   ./tgl_cli preprocess --input raw.txt --out g.wel
///   ./tgl_cli stats --input g.wel
///   ./tgl_cli walk --input g.wel --out corpus.txt
///   ./tgl_cli embed --input g.wel --out emb.txt
///   ./tgl_cli neighbors --embeddings emb.txt --node 7 --k 5
///   ./tgl_cli pipeline --input g.wel --checkpoint-dir ckpt/
///   ./tgl_cli serve --checkpoint-dir ckpt/ --port 7411 --quant int8
#include "tgl/tgl.hpp"

#include "bench/bench_json.hpp"

#include <cstdio>
#include <fstream>

namespace {

using namespace tgl;

int
cmd_generate(int argc, const char* const* argv)
{
    util::CliParser cli("tgl_cli generate",
                        "synthesize a temporal graph (.wel)");
    cli.add_flag("kind", "er", "er | ba | rmat | sbm | drifting-sbm");
    cli.add_flag("nodes", "10000", "number of nodes");
    cli.add_flag("edges", "100000",
                 "number of edges (er/rmat/sbm) — ba derives it");
    cli.add_flag("edges-per-node", "3", "ba attachment parameter");
    cli.add_flag("communities", "4", "sbm community count");
    cli.add_flag("timestamps", "uniform", "uniform | arrival | bursty");
    cli.add_flag("seed", "1", "random seed");
    cli.add_flag("out", "graph.wel", "output path");
    cli.add_flag("labels-out", "",
                 "write 'node label' lines here (sbm kinds only)");
    if (!cli.parse(argc, argv)) {
        return 0;
    }

    const std::string kind = cli.get_string("kind");
    const auto nodes =
        static_cast<graph::NodeId>(cli.get_int("nodes"));
    const auto edges =
        static_cast<graph::EdgeId>(cli.get_int("edges"));
    const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    const auto stamps =
        gen::parse_timestamp_model(cli.get_string("timestamps"));

    graph::EdgeList result;
    std::vector<std::uint32_t> labels;
    if (kind == "er") {
        result = gen::generate_erdos_renyi(
            {.num_nodes = nodes, .num_edges = edges,
             .timestamps = stamps, .seed = seed});
    } else if (kind == "ba") {
        result = gen::generate_barabasi_albert(
            {.num_nodes = nodes,
             .edges_per_node =
                 static_cast<unsigned>(cli.get_int("edges-per-node")),
             .timestamps = stamps,
             .seed = seed});
    } else if (kind == "rmat") {
        unsigned scale = 0;
        while ((graph::NodeId{1} << scale) < nodes) {
            ++scale;
        }
        result = gen::generate_rmat({.scale = scale,
                                     .num_edges = edges,
                                     .timestamps = stamps,
                                     .seed = seed});
    } else if (kind == "sbm" || kind == "drifting-sbm") {
        const auto communities =
            static_cast<unsigned>(cli.get_int("communities"));
        gen::LabeledGraph labeled;
        if (kind == "sbm") {
            labeled = gen::generate_sbm({.num_nodes = nodes,
                                         .num_edges = edges,
                                         .num_communities = communities,
                                         .timestamps = stamps,
                                         .seed = seed});
        } else {
            labeled = gen::generate_drifting_sbm(
                {.num_nodes = nodes, .num_edges = edges,
                 .num_communities = communities, .seed = seed});
        }
        result = std::move(labeled.edges);
        labels = std::move(labeled.labels);
    } else {
        util::fatal("unknown --kind (er | ba | rmat | sbm | drifting-sbm)");
    }

    graph::save_wel_file(cli.get_string("out"), result);
    std::printf("wrote %zu edges over %u nodes to %s\n", result.size(),
                result.num_nodes(), cli.get_string("out").c_str());
    if (const std::string labels_out = cli.get_string("labels-out");
        !labels_out.empty()) {
        if (labels.empty()) {
            util::fatal("--labels-out needs an sbm kind");
        }
        std::ofstream out(labels_out);
        if (!out) {
            util::fatal("cannot open " + labels_out);
        }
        for (graph::NodeId u = 0; u < labels.size(); ++u) {
            out << u << ' ' << labels[u] << '\n';
        }
        std::printf("wrote %zu labels to %s\n", labels.size(),
                    labels_out.c_str());
    }
    return 0;
}

int
cmd_preprocess(int argc, const char* const* argv)
{
    util::CliParser cli("tgl_cli preprocess",
                        "clean an edge list: strip comments, normalize "
                        "timestamps to [0,1] (preprocess_dataset.py)");
    cli.add_flag("input", "", "raw edge list (src dst [time] per line)");
    cli.add_flag("out", "graph.wel", "output path");
    cli.add_switch("allow-missing-timestamps",
                   "use arrival order when the time column is absent");
    if (!cli.parse(argc, argv)) {
        return 0;
    }
    const graph::EdgeList edges = graph::load_wel_file(
        cli.get_string("input"),
        {.normalize_timestamps = true,
         .allow_missing_timestamps =
             cli.get_switch("allow-missing-timestamps")});
    graph::save_wel_file(cli.get_string("out"), edges);
    std::printf("wrote %zu normalized edges to %s\n", edges.size(),
                cli.get_string("out").c_str());
    return 0;
}

int
cmd_stats(int argc, const char* const* argv)
{
    util::CliParser cli("tgl_cli stats", "structural statistics");
    cli.add_flag("input", "", ".wel edge list");
    cli.add_switch("symmetrize", "treat edges as undirected");
    if (!cli.parse(argc, argv)) {
        return 0;
    }
    const graph::EdgeList edges =
        graph::load_wel_file(cli.get_string("input"));
    const auto graph = graph::GraphBuilder::build(
        edges, {.symmetrize = cli.get_switch("symmetrize")});
    std::printf("%s\n",
                graph::format_stats(graph::compute_stats(graph)).c_str());
    return 0;
}

int
cmd_walk(int argc, const char* const* argv)
{
    util::CliParser cli("tgl_cli walk", "generate a temporal walk corpus");
    cli.add_flag("input", "", ".wel edge list");
    cli.add_flag("out", "corpus.txt", "corpus output path");
    cli.add_flag("walks", "10", "K: walks per node");
    cli.add_flag("length", "6", "N: max walk length");
    cli.add_flag("transition", "exp",
                 "uniform | exp | exp-decay | linear");
    cli.add_flag("transition-cache", "auto",
                 "prefix-CDF sampling cache: on | off | auto");
    cli.add_flag("start", "node", "node | edge");
    cli.add_flag("seed", "1", "random seed");
    cli.add_switch("static", "ignore timestamps (DeepWalk baseline)");
    cli.add_switch("histogram", "also print the Fig. 4 length table");
    if (!cli.parse(argc, argv)) {
        return 0;
    }
    const graph::EdgeList edges =
        graph::load_wel_file(cli.get_string("input"));
    const auto graph =
        graph::GraphBuilder::build(edges, {.symmetrize = true});

    walk::WalkConfig config;
    config.walks_per_node = static_cast<unsigned>(cli.get_int("walks"));
    config.max_length = static_cast<unsigned>(cli.get_int("length"));
    config.transition =
        walk::parse_transition(cli.get_string("transition"));
    config.transition_cache = walk::parse_transition_cache_mode(
        cli.get_string("transition-cache"));
    config.temporal = !cli.get_switch("static");
    config.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    if (cli.get_string("start") == "edge") {
        config.start = walk::StartKind::kTemporalEdge;
    } else if (cli.get_string("start") != "node") {
        util::fatal("--start must be node or edge");
    }

    const walk::Corpus corpus = walk::generate_walks(graph, config);
    corpus.save_file(cli.get_string("out"));
    std::printf("wrote %zu walks (%zu tokens) to %s\n",
                corpus.num_walks(), corpus.num_tokens(),
                cli.get_string("out").c_str());
    if (cli.get_switch("histogram")) {
        std::printf("%s\n",
                    walk::format_length_distribution(
                        walk::length_distribution(corpus)).c_str());
    }
    return 0;
}

int
cmd_embed(int argc, const char* const* argv)
{
    util::CliParser cli("tgl_cli embed",
                        "train skip-gram node embeddings");
    cli.add_flag("input", "", ".wel graph (walked internally) ...");
    cli.add_flag("corpus", "", "... or a pre-generated corpus file");
    cli.add_flag("out", "embeddings.txt", "embedding output path");
    cli.add_flag("dim", "8", "embedding dimension");
    cli.add_flag("epochs", "5", "training epochs");
    cli.add_flag("walks", "10", "walks per node (with --input)");
    cli.add_flag("length", "6", "walk length (with --input)");
    cli.add_flag("seed", "1", "random seed");
    cli.add_flag("sgns-backend", "auto",
                 "SGNS kernel backend: auto | scalar | simd");
    cli.add_switch("batched", "use the batched (GPU-model) trainer");
    if (!cli.parse(argc, argv)) {
        return 0;
    }

    walk::Corpus corpus;
    graph::NodeId num_nodes = 0;
    if (const std::string corpus_path = cli.get_string("corpus");
        !corpus_path.empty()) {
        corpus = walk::Corpus::load_file(corpus_path);
        for (graph::NodeId node : corpus.tokens()) {
            num_nodes = std::max(num_nodes, node + 1);
        }
    } else {
        const graph::EdgeList edges =
            graph::load_wel_file(cli.get_string("input"));
        const auto graph =
            graph::GraphBuilder::build(edges, {.symmetrize = true});
        num_nodes = graph.num_nodes();
        walk::WalkConfig config;
        config.walks_per_node =
            static_cast<unsigned>(cli.get_int("walks"));
        config.max_length =
            static_cast<unsigned>(cli.get_int("length"));
        config.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
        corpus = walk::generate_walks(graph, config);
    }

    embed::SgnsConfig sgns;
    sgns.dim = static_cast<unsigned>(cli.get_int("dim"));
    sgns.epochs = static_cast<unsigned>(cli.get_int("epochs"));
    sgns.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    if (const auto backend = embed::kernels::parse_sgns_backend(
            cli.get_string("sgns-backend"))) {
        sgns.backend = *backend;
    } else {
        util::fatal("--sgns-backend expects auto | scalar | simd");
    }

    embed::TrainStats stats;
    embed::Embedding embedding;
    if (cli.get_switch("batched")) {
        embed::BatchedSgnsConfig batched;
        batched.sgns = sgns;
        embedding = embed::train_sgns_batched(corpus, num_nodes, batched,
                                              &stats);
    } else {
        embedding = embed::train_sgns(corpus, num_nodes, sgns, &stats);
    }
    embedding.save_file(cli.get_string("out"));
    std::printf("trained %u-d embeddings for %u nodes (%llu pairs, "
                "%.2fs) -> %s\n",
                embedding.dim(), embedding.num_nodes(),
                static_cast<unsigned long long>(stats.pairs_trained),
                stats.seconds, cli.get_string("out").c_str());
    return 0;
}

int
cmd_neighbors(int argc, const char* const* argv)
{
    util::CliParser cli("tgl_cli neighbors",
                        "nearest nodes by embedding cosine");
    cli.add_flag("embeddings", "", "embedding file from `embed`");
    cli.add_flag("node", "0", "query node id");
    cli.add_flag("k", "10", "neighbors to print");
    if (!cli.parse(argc, argv)) {
        return 0;
    }
    const embed::Embedding embedding =
        embed::Embedding::load_file(cli.get_string("embeddings"));
    const auto node = static_cast<graph::NodeId>(cli.get_int("node"));
    if (node >= embedding.num_nodes()) {
        util::fatal("node id out of range");
    }
    for (const graph::NodeId v : embedding.nearest(
             node, static_cast<unsigned>(cli.get_int("k")))) {
        std::printf("%u\t%.4f\n", v, embedding.cosine(node, v));
    }
    return 0;
}

/// Re-emit the pipeline phase breakdown in the shared BENCH_*.json
/// schema (bench/bench_json.hpp) so CI asserts on pipeline runs the
/// same way it asserts on the micro benches.
void
write_pipeline_bench(const std::string& path,
                     const core::PipelineResult& result,
                     bool link_prediction)
{
    const double total = result.times.total();
    const auto rate = [](double items, double seconds) {
        return seconds > 0.0 ? items / seconds : 0.0;
    };
    std::vector<bench::BenchEntry> entries;
    entries.push_back({"pipeline/build_graph", result.times.build_graph,
                       rate(static_cast<double>(result.num_edges),
                            result.times.build_graph),
                       {{"num_nodes",
                         static_cast<double>(result.num_nodes)},
                        {"num_edges",
                         static_cast<double>(result.num_edges)}}});
    entries.push_back(
        {"pipeline/walk", result.times.random_walk,
         rate(static_cast<double>(result.walk_profile.steps_taken),
              result.times.random_walk),
         {{"walks_kept",
           static_cast<double>(result.walk_profile.walks_kept)},
          {"steps_taken",
           static_cast<double>(result.walk_profile.steps_taken)},
          {"cached_steps",
           static_cast<double>(result.walk_profile.cached_steps)},
          {"corpus_tokens",
           static_cast<double>(result.corpus_tokens)}}});
    entries.push_back(
        {"pipeline/word2vec", result.times.word2vec,
         rate(static_cast<double>(result.w2v_stats.pairs_trained),
              result.times.word2vec),
         {{"pairs_trained",
           static_cast<double>(result.w2v_stats.pairs_trained)},
          {"tokens_processed",
           static_cast<double>(result.w2v_stats.tokens_processed)}}});
    entries.push_back({"pipeline/data_prep", result.times.data_prep,
                       0.0,
                       {}});
    entries.push_back(
        {"pipeline/train", result.times.train,
         rate(static_cast<double>(result.task.epochs_run),
              result.times.train),
         {{"epochs_run", static_cast<double>(result.task.epochs_run)},
          {"final_train_loss", result.task.final_train_loss},
          {"valid_accuracy", result.task.valid_accuracy}}});
    // Only the task's own quality metric: AUC or macro-F1.
    entries.push_back({"pipeline/test", result.times.test, 0.0,
                       {{"test_accuracy", result.task.test_accuracy},
                        {link_prediction ? "test_auc" : "test_macro_f1",
                         link_prediction ? result.task.test_auc
                                         : result.task.test_macro_f1}}});
    entries.push_back({"pipeline/total", total, 0.0, {}});
    bench::write_bench_json(path, "pipeline", entries);
}

int
cmd_pipeline(int argc, const char* const* argv)
{
    util::CliParser cli("tgl_cli pipeline",
                        "walk -> word2vec -> classifier end to end, "
                        "with optional checkpoint/resume");
    cli.add_flag("input", "", ".wel edge list (link prediction) ...");
    cli.add_flag("dataset", "", "... or a catalog dataset name");
    cli.add_flag("scale", "0.1", "catalog dataset scale");
    cli.add_flag("walks", "10", "K: walks per node");
    cli.add_flag("length", "6", "N: max walk length");
    cli.add_flag("dim", "8", "embedding dimension");
    cli.add_flag("epochs", "12", "word2vec epochs");
    cli.add_flag("w2v-threads", "0",
                 "word2vec team size (1 = deterministic resume)");
    cli.add_flag("transition-cache", "auto",
                 "prefix-CDF sampling cache: on | off | auto");
    cli.add_flag("seed", "1", "random seed");
    cli.add_flag("checkpoint-dir", "",
                 "resume phase artifacts from / persist them to this "
                 "directory (empty disables checkpointing)");
    cli.add_flag("metrics-out", "",
                 "write the end-of-run metrics registry snapshot (JSON) "
                 "to this path");
    cli.add_flag("metrics-text-out", "",
                 "write the end-of-run metrics in the Prometheus text "
                 "exposition format to this path");
    cli.add_flag("trace-out", "",
                 "write a chrome://tracing / Perfetto trace (JSON) to "
                 "this path");
    cli.add_flag("bench-out", "",
                 "write the phase breakdown as BENCH_pipeline.json "
                 "(shared bench schema) to this path");
    cli.add_flag("perf", "on",
                 "hardware counters (perf_event_open) per phase: on | "
                 "off (on degrades to no-ops when unavailable; see "
                 "README for perf_event_paranoid)");
    cli.add_flag("failpoints", "",
                 "chaos-testing fault spec: site=action[:param][@N] "
                 "entries joined by ';' (overrides TGL_FAILPOINTS; see "
                 "README)");
    cli.add_flag("failpoints-seed", "0",
                 "seed for probabilistic failpoint triggers");
    cli.add_flag("sgns-backend", "auto",
                 "SGNS kernel backend: auto | scalar | simd");
    cli.add_switch("batched", "use the batched (GPU-model) trainer");
    if (!cli.parse(argc, argv)) {
        return 0;
    }

    core::PipelineConfig config;
    config.walk.walks_per_node =
        static_cast<unsigned>(cli.get_int("walks"));
    config.walk.max_length = static_cast<unsigned>(cli.get_int("length"));
    config.walk.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    config.walk.transition_cache = walk::parse_transition_cache_mode(
        cli.get_string("transition-cache"));
    config.sgns.dim = static_cast<unsigned>(cli.get_int("dim"));
    config.sgns.epochs = static_cast<unsigned>(cli.get_int("epochs"));
    config.sgns.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    config.sgns.num_threads =
        static_cast<unsigned>(cli.get_int("w2v-threads"));
    if (const auto backend = embed::kernels::parse_sgns_backend(
            cli.get_string("sgns-backend"))) {
        config.sgns.backend = *backend;
    } else {
        util::fatal("--sgns-backend expects auto | scalar | simd");
    }
    if (cli.get_switch("batched")) {
        config.w2v_mode = core::W2vMode::kBatched;
    }
    config.checkpoint_dir = cli.get_string("checkpoint-dir");
    if (const auto mode =
            obs::parse_perf_mode(cli.get_string("perf"))) {
        obs::set_perf_mode(*mode);
    } else {
        util::fatal("--perf expects on | off");
    }
    if (const std::string failpoints = cli.get_string("failpoints");
        !failpoints.empty()) {
        util::FailpointRegistry::configure(
            failpoints,
            static_cast<std::uint64_t>(cli.get_int("failpoints-seed")));
    }

    const std::string metrics_out = cli.get_string("metrics-out");
    const std::string metrics_text_out =
        cli.get_string("metrics-text-out");
    const std::string trace_out = cli.get_string("trace-out");
    const std::string bench_out = cli.get_string("bench-out");

    // Telemetry covers exactly this run: clear any previously scraped
    // registry state and trace only while the pipeline executes.
    obs::Registry::global().reset();
    obs::perf_reset_phase_totals();
    obs::TraceSession session;
    if (!trace_out.empty()) {
        session.start();
    }

    // Ctrl-C / SIGTERM cancel cooperatively: the run stops at the next
    // phase boundary with checkpoints intact, telemetry still flushes
    // below, and the exit code is 130 (interrupted shell job).
    util::install_signal_handlers();

    core::PipelineResult result;
    bool link_prediction = true;
    std::string cancelled;
    try {
        if (const std::string dataset_name = cli.get_string("dataset");
            !dataset_name.empty()) {
            const gen::Dataset dataset = gen::make_dataset(
                dataset_name, util::parse_double(cli.get_string("scale")),
                static_cast<std::uint64_t>(cli.get_int("seed")));
            link_prediction = dataset.task == gen::Task::kLinkPrediction;
            result = core::run_pipeline(dataset, config);
        } else if (!cli.get_string("input").empty()) {
            const graph::EdgeList edges =
                graph::load_wel_file(cli.get_string("input"));
            result = core::run_link_prediction_pipeline(edges, config);
        } else {
            util::fatal("pipeline needs --input or --dataset");
        }
    } catch (const util::Cancelled& interrupt) {
        cancelled = interrupt.what();
    }

    session.stop();
    if (!metrics_out.empty()) {
        obs::record_process_gauges(obs::Registry::global());
        obs::Registry::global().write_json(metrics_out);
        std::printf("wrote metrics snapshot to %s\n",
                    metrics_out.c_str());
    }
    if (!metrics_text_out.empty()) {
        obs::record_process_gauges(obs::Registry::global());
        obs::write_prometheus_file(obs::Registry::global(),
                                   metrics_text_out);
        std::printf("wrote Prometheus exposition to %s\n",
                    metrics_text_out.c_str());
    }
    if (!trace_out.empty()) {
        session.write_chrome_json(trace_out);
        std::printf("wrote trace (%zu spans) to %s\n",
                    session.events().size(), trace_out.c_str());
    }
    if (!cancelled.empty()) {
        // Partial run: metrics/trace above reflect the work actually
        // done, but the phase/accuracy summary and bench JSON would be
        // misleading, so skip them.
        std::fprintf(stderr, "interrupted: %s\n", cancelled.c_str());
        return 130;
    }
    if (!bench_out.empty()) {
        write_pipeline_bench(bench_out, result, link_prediction);
    }

    std::printf("%s\n", core::format_phase_times(result.times).c_str());
    std::printf("test accuracy %.4f | %s %.4f (%u epochs)\n",
                result.task.test_accuracy,
                link_prediction ? "auc" : "macro-f1",
                link_prediction ? result.task.test_auc
                                : result.task.test_macro_f1,
                result.task.epochs_run);
    if (!config.checkpoint_dir.empty()) {
        const core::CheckpointStatus& s = result.checkpoints;
        std::printf("checkpoints: corpus %s | transition-cache %s | "
                    "embedding %s | classifier %s\n",
                    s.corpus_loaded ? "resumed"
                    : s.corpus_stored ? "stored" : "skipped",
                    s.cache_loaded ? "resumed"
                    : s.cache_stored ? "stored" : "skipped",
                    s.embedding_loaded ? "resumed"
                    : s.embedding_stored ? "stored" : "skipped",
                    s.classifier_loaded ? "resumed"
                    : s.classifier_stored ? "stored" : "skipped");
        if (s.artifacts_quarantined > 0 || s.artifacts_regenerated > 0) {
            std::printf("recovery: %u artifacts quarantined, "
                        "%u regenerated\n",
                        s.artifacts_quarantined, s.artifacts_regenerated);
        }
    }
    return 0;
}

int
cmd_serve(int argc, const char* const* argv)
{
    util::CliParser cli("tgl_cli serve",
                        "serve link scores and kNN queries over a "
                        "trained model (length-prefixed TCP protocol; "
                        "SIGTERM drains gracefully)");
    cli.add_flag("checkpoint-dir", "",
                 "pipeline checkpoint directory holding embedding.tgla "
                 "and link-predictor.tgla");
    cli.add_flag("embeddings", "",
                 "embedding file (.tgla binary or text) — overrides the "
                 "checkpoint directory's embedding");
    cli.add_flag("classifier", "",
                 "classifier weights (.tgla) — overrides the checkpoint "
                 "directory's link-predictor");
    cli.add_flag("hidden", "16",
                 "classifier hidden width (must match training)");
    cli.add_switch("residual",
                   "classifier was trained with the residual "
                   "architecture");
    cli.add_flag("residual-blocks", "2",
                 "residual depth (with --residual)");
    cli.add_flag("host", "127.0.0.1", "bind address (loopback only by "
                                      "default; no auth layer)");
    cli.add_flag("port", "0",
                 "TCP port (0 = ephemeral; the bound port is printed "
                 "on the 'listening on' line)");
    cli.add_flag("quant", "fp32", "snapshot storage: fp32 | int8");
    cli.add_flag("scorer-threads", "2",
                 "classifier scorer threads (each owns a private model "
                 "replica)");
    cli.add_flag("max-batch-pairs", "256",
                 "coalescing cap: pairs per scorer batch");
    cli.add_flag("metrics-out", "",
                 "write the end-of-run metrics registry snapshot (JSON) "
                 "to this path after the drain");
    cli.add_flag("tracing", "on",
                 "per-request stage tracing (serve.stage.* histograms "
                 "and the slow-request log): on | off");
    cli.add_flag("timeseries", "on",
                 "background flight recorder feeding the kTimeseries "
                 "opcode: on | off");
    cli.add_flag("sample-interval-ms", "100",
                 "flight-recorder sampler period");
    cli.add_flag("timeseries-out", "",
                 "write the flight-recorder windowed rollups (JSON) to "
                 "this path after the drain");
    if (!cli.parse(argc, argv)) {
        return 0;
    }

    const std::string checkpoint_dir = cli.get_string("checkpoint-dir");
    std::string embeddings_path = cli.get_string("embeddings");
    std::string classifier_file = cli.get_string("classifier");
    if (!checkpoint_dir.empty()) {
        const core::CheckpointManager manager(checkpoint_dir);
        if (embeddings_path.empty()) {
            embeddings_path = manager.embedding_path();
        }
        if (classifier_file.empty()) {
            classifier_file = manager.classifier_path("link-predictor");
        }
    }
    if (embeddings_path.empty() || classifier_file.empty()) {
        util::fatal("serve needs --checkpoint-dir, or both --embeddings "
                    "and --classifier");
    }

    const bool binary_embedding =
        embeddings_path.size() >= 5 &&
        embeddings_path.compare(embeddings_path.size() - 5, 5, ".tgla") ==
            0;
    std::uint64_t fingerprint = 0;
    const embed::Embedding embedding =
        binary_embedding
            ? embed::Embedding::load_binary_file(embeddings_path,
                                                 &fingerprint)
            : embed::Embedding::load_file(embeddings_path);

    const auto hidden =
        static_cast<std::size_t>(cli.get_int("hidden"));
    const bool residual = cli.get_switch("residual");
    const auto residual_blocks =
        static_cast<std::size_t>(cli.get_int("residual-blocks"));
    const unsigned dim = embedding.dim();
    const auto classifier_factory = [classifier_file, dim, hidden,
                                     residual, residual_blocks]() {
        rng::Random random(1);
        nn::Mlp net =
            residual ? nn::make_residual_link_predictor(
                           2 * std::size_t{dim}, hidden, residual_blocks,
                           random)
                     : nn::make_link_predictor(2 * std::size_t{dim},
                                               hidden, random);
        net.load_weights_file(classifier_file);
        return net;
    };
    classifier_factory(); // fail fast on a weights/architecture mismatch

    serve::ServeConfig config;
    config.host = cli.get_string("host");
    config.port = static_cast<std::uint16_t>(cli.get_int("port"));
    config.scorer_threads =
        static_cast<unsigned>(cli.get_int("scorer-threads"));
    config.max_batch_pairs =
        static_cast<std::size_t>(cli.get_int("max-batch-pairs"));
    if (const auto quant =
            serve::parse_quant_mode(cli.get_string("quant"))) {
        config.quant = *quant;
    } else {
        util::fatal("--quant expects fp32 | int8");
    }
    const auto parse_on_off = [](const std::string& value,
                                 const char* flag) -> bool {
        if (value == "off") {
            return false;
        }
        if (value != "on") {
            util::fatal(util::strcat("--", flag, " expects on | off"));
        }
        return true;
    };
    config.request_tracing =
        parse_on_off(cli.get_string("tracing"), "tracing");
    config.timeseries =
        parse_on_off(cli.get_string("timeseries"), "timeseries");
    config.sample_interval_ms =
        static_cast<unsigned>(cli.get_int("sample-interval-ms"));
    const std::string timeseries_out = cli.get_string("timeseries-out");
    if (!timeseries_out.empty() && !config.timeseries) {
        util::fatal("--timeseries-out needs --timeseries on");
    }

    auto snapshot = serve::EmbeddingSnapshot::build(
        embedding, config.quant, /*epoch=*/1, fingerprint);
    serve::Server server(config, std::move(snapshot), classifier_factory);

    // SIGTERM / Ctrl-C request a graceful drain: stop accepting, let
    // every in-flight request flush its response, then exit 0 (unlike
    // `pipeline`, where an interrupt aborts the job with 130 — here the
    // drain IS the normal way to stop the process).
    util::install_signal_handlers();
    server.start();
    std::printf("tgl_serve listening on %s:%u (epoch 1, %s, %u nodes, "
                "dim %u)\n",
                config.host.c_str(), server.port(),
                serve::quant_mode_name(config.quant),
                embedding.num_nodes(), dim);
    std::fflush(stdout); // scripts parse the port from a pipe
    server.run_until_cancelled();

    if (const std::string metrics_out = cli.get_string("metrics-out");
        !metrics_out.empty()) {
        obs::record_process_gauges(obs::Registry::global());
        obs::Registry::global().write_json(metrics_out);
        std::printf("wrote metrics snapshot to %s\n", metrics_out.c_str());
    }
    if (!timeseries_out.empty()) {
        std::ofstream out(timeseries_out);
        if (!out) {
            util::fatal("cannot open " + timeseries_out + " for writing");
        }
        out << server.timeseries_json();
        std::printf("wrote timeseries rollups to %s\n",
                    timeseries_out.c_str());
    }
    if (config.request_tracing) {
        const auto slow = server.slow_log().entries();
        const std::size_t shown = std::min<std::size_t>(slow.size(), 5);
        if (shown > 0) {
            std::printf("slowest requests (top %zu of %zu traced):\n",
                        shown, slow.size());
        }
        for (std::size_t i = 0; i < shown; ++i) {
            const serve::SlowRequestRecord& r = slow[i];
            std::printf("  id %llu  pairs %zu  total %.3fms  "
                        "(queue %.3fms, forward %.3fms)\n",
                        static_cast<unsigned long long>(r.request_id),
                        r.pairs, r.total_seconds * 1e3,
                        r.queue_seconds * 1e3, r.forward_seconds * 1e3);
        }
    }
    std::printf("tgl_serve drained cleanly\n");
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    if (argc < 2) {
        std::fputs(
            "usage: tgl_cli <generate|preprocess|stats|walk|embed|"
            "neighbors|pipeline|serve> [flags]\n"
            "(each command supports --help)\n",
            stderr);
        return 1;
    }
    const std::string command = argv[1];
    // Shift argv so each command parses its own flags.
    const int sub_argc = argc - 1;
    const char* const* sub_argv = argv + 1;
    try {
        // Every command honors TGL_FAILPOINTS so chaos schedules can
        // target single-stage invocations, not just `pipeline`.
        tgl::util::FailpointRegistry::configure_from_env();
        if (command == "generate") {
            return cmd_generate(sub_argc, sub_argv);
        }
        if (command == "preprocess") {
            return cmd_preprocess(sub_argc, sub_argv);
        }
        if (command == "stats") {
            return cmd_stats(sub_argc, sub_argv);
        }
        if (command == "walk") {
            return cmd_walk(sub_argc, sub_argv);
        }
        if (command == "embed") {
            return cmd_embed(sub_argc, sub_argv);
        }
        if (command == "neighbors") {
            return cmd_neighbors(sub_argc, sub_argv);
        }
        if (command == "pipeline") {
            return cmd_pipeline(sub_argc, sub_argv);
        }
        if (command == "serve") {
            return cmd_serve(sub_argc, sub_argv);
        }
        std::fprintf(stderr, "unknown command: %s\n", command.c_str());
        return 1;
    } catch (const tgl::util::Error& error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 1;
    } catch (const std::exception& error) {
        // Unexpected library failures (bad_alloc, filesystem_error, ...)
        // must still exit non-zero with a message, never abort via an
        // unhandled exception.
        std::fprintf(stderr, "unexpected error: %s\n", error.what());
        return 1;
    }
}
