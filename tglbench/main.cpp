/// @file
/// tglbench: the repository benchmark. One invocation runs one workload
/// for --seconds and prints its metrics, ending with a one-line JSON
/// result. --trace 0 reports the end-to-end metrics; --trace 1 reports
/// the per-layer metrics from a decomposed, traced run. README.md in
/// this directory describes the workloads and every metric.
///
///   tglbench --workload lp-email|nc-brain|serve-mixed --seed N
///            --seconds S --trace 0|1 [--workdir DIR]
#include "pipeline_stage.hpp"
#include "report.hpp"
#include "serve_stage.hpp"

#include "core/checkpoint.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>

namespace {

using namespace tgl;
using namespace tglbench;

struct Workload
{
    const char* name;
    const char* dataset;
    double scale;
    /// Train the served model in set-up and spend the whole window
    /// serving (serve-mixed); otherwise the window repeats
    /// run_pipeline and then serves what the last call trained. Either
    /// way the last of at least kMinPipelineCalls calls is served.
    bool train_in_setup;
    /// Share of the window spent serving.
    double serve_share;
};

constexpr Workload kWorkloads[] = {
    {"lp-email", "ia-email", 0.2, false, 0.35},
    {"nc-brain", "brain", 1.0, false, 0.35},
    {"serve-mixed", "ia-email", 0.2, true, 1.0},
};

/// Dataset generations per set-up, at least (setup_s reports their
/// median): kSetupReps, and as many more as fit in kSetupSeconds.
constexpr int kSetupReps = 5;
constexpr double kSetupSeconds = 0.5;
/// run_pipeline calls per run, at least (pipeline_s is their median).
constexpr std::size_t kMinPipelineCalls = 2;
/// Share of a traced run's serve budget spent at the nominal rate; the
/// rest climbs the SLO ladder. An untraced run serves at the nominal
/// rate throughout.
constexpr double kNominalShare = 0.4;

struct Args
{
    const Workload* workload = nullptr;
    std::uint64_t seed = 1;
    double seconds = 30.0;
    bool trace = false;
    std::string workdir = ".bench_build/work";
};

Args
parse_args(int argc, char** argv)
{
    Args args;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string_view flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--workload") {
            for (const Workload& workload : kWorkloads) {
                if (value == workload.name) {
                    args.workload = &workload;
                }
            }
        } else if (flag == "--seed") {
            args.seed = std::stoull(value);
        } else if (flag == "--seconds") {
            args.seconds = std::stod(value);
        } else if (flag == "--trace") {
            args.trace = value == "1";
        } else if (flag == "--workdir") {
            args.workdir = value;
        } else {
            util::fatal("unknown flag " + std::string(flag));
        }
    }
    if (args.workload == nullptr || !(args.seconds > 0.0)) {
        util::fatal("usage: tglbench --workload lp-email|nc-brain|"
                    "serve-mixed --seed N --seconds S --trace 0|1 "
                    "[--workdir DIR]");
    }
    return args;
}

/// Medians over the decomposed runs of a traced invocation.
struct LayerMedians
{
    std::vector<LayerSample> samples;

    template <typename Field>
    double
    operator()(Field field) const
    {
        std::vector<double> values;
        for (const LayerSample& sample : samples) {
            values.push_back(field(sample));
        }
        return median(values);
    }
};

double
ratio(double part, double whole)
{
    return whole > 0.0 ? part / whole : 0.0;
}

void
add_layer_metrics(Report& report, const LayerMedians& m,
                  double make_dataset_s, double pipeline_s)
{
    report.add("gen.make_dataset_s", make_dataset_s, "s");
    report.add("graph.build_s", m([](auto& s) { return s.build_s; }), "s");
    report.add("graph.edges_per_s",
               m([](auto& s) { return ratio(s.edges, s.build_s); }), "1/s");
    report.add("walk.cache_build_s", m([](auto& s) { return s.cache_s; }),
               "s");
    report.add("walk.generate_s", m([](auto& s) { return s.walk_s; }), "s");
    const auto steps = [](const LayerSample& s) {
        return static_cast<double>(s.walk.steps_taken);
    };
    const auto started = [](const LayerSample& s) {
        return static_cast<double>(s.walk.walks_started);
    };
    report.add("walk.steps", m(steps), "count");
    report.add("walk.steps_per_s",
               m([&](auto& s) { return ratio(steps(s), s.walk_s); }), "1/s");
    report.add("walk.tokens", m([](auto& s) { return s.tokens; }), "count");
    report.add("walk.kept_ratio", m([&](auto& s) {
                   return ratio(static_cast<double>(s.walk.walks_kept),
                                started(s));
               }),
               "ratio");
    report.add("walk.dead_end_ratio", m([&](auto& s) {
                   return ratio(static_cast<double>(s.walk.dead_ends),
                                started(s));
               }),
               "ratio");
    report.add("walk.batched_ratio", m([&](auto& s) {
                   return ratio(static_cast<double>(s.walk.batched_steps),
                                steps(s));
               }),
               "ratio");
    report.add("embed.train_s", m([](auto& s) { return s.embed_s; }), "s");
    report.add("embed.pairs", m([](auto& s) { return s.pairs; }), "count");
    report.add("embed.pairs_per_s",
               m([](auto& s) { return ratio(s.pairs, s.embed_s); }), "1/s");
    report.add("data_prep.split_s", m([](auto& s) { return s.split_s; }),
               "s");
    // Node classification draws no negatives: nothing is wasted.
    report.add("data_prep.negative_accept_ratio", m([](auto& s) {
                   return s.negative_attempts > 0.0
                              ? s.negatives_accepted / s.negative_attempts
                              : 1.0;
               }),
               "ratio");
    report.add("classify.run_s", m([](auto& s) { return s.classify_s; }),
               "s");
    report.add("classify.epochs",
               m([](auto& s) { return static_cast<double>(s.epochs); }),
               "count");
    report.add("classify.epoch_s", m([](auto& s) { return s.epoch_s; }),
               "s");
    report.add("classify.features_s",
               m([](auto& s) { return s.features_s; }), "s");
    report.add("core.layer_coverage",
               ratio(m([](auto& s) { return s.layer_sum(); }), pipeline_s),
               "ratio");
    report.add("obs.trace_overhead_pct",
               (ratio(m([](auto& s) { return s.wall_s; }), pipeline_s) -
                1.0) * 100.0,
               "%");
}

void
add_serve_layer_metrics(Report& report, ServeBench& serve,
                        const WindowStats& window, double slo_qps)
{
    const double slice = ServeBench::kSliceSeconds;
    report.add("serve.link_rtt_us", median(window.link_rtt) * 1e6, "us");
    report.add("serve.knn_rtt_us", median(window.knn_rtt) * 1e6, "us");
    report.add("serve.reload_rtt_ms", serve.reload_median() * 1e3, "ms");
    report.add("serve.admission_us", window.admission * 1e6, "us");
    report.add("serve.queue_us", window.queue * 1e6, "us");
    report.add("serve.forward_us", window.forward * 1e6, "us");
    report.add("serve.serialize_us", window.serialize * 1e6, "us");
    report.add("serve.batch_pairs", window.batch_pairs, "pairs");
    report.add("serve.gen_lag_us", window.gen_lag * 1e6, "us");
    report.add("serve.score_p50_us",
               window.score_latency.sliced(0.5, slice) * 1e6, "us");
    report.add("serve.score_p90_us",
               window.score_latency.sliced(0.9, slice) * 1e6, "us");
    report.add("serve.score_p99_us",
               window.score_latency.sliced(0.99, slice) * 1e6, "us");
    report.add("serve.knn_p90_us",
               window.knn_latency.sliced(0.9, slice) * 1e6, "us");
    report.add("serve.knn_p99_us",
               window.knn_latency.sliced(0.99, slice) * 1e6, "us");
    report.add("serve.slo_qps", slo_qps, "1/s");
}

int
run(const Args& args)
{
    const Workload& workload = *args.workload;
    util::set_log_level(util::LogLevel::kWarn);
    std::printf("tglbench %s seed %llu, %.0fs, trace %d\n", workload.name,
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    std::printf("host %s\n", host_fingerprint_json().c_str());

    Report report;
    const core::PipelineConfig config = pipeline_config(args.seed);
    const std::filesystem::path workdir =
        std::filesystem::path(args.workdir) /
        util::strcat(workload.name, "-", args.seed);
    std::filesystem::remove_all(workdir);

    // Set-up: the dataset, generated several times.
    std::vector<double> gen_s;
    const gen::Dataset dataset =
        make_dataset_timed(workload.dataset, workload.scale, args.seed,
                           kSetupReps, kSetupSeconds, gen_s);
    double setup_s = median(gen_s);

    // One trained model: a checked run_pipeline call whose artifacts
    // become the served model, followed in a traced invocation by the
    // decomposed run that must reproduce it.
    std::vector<double> pipeline_s;
    std::vector<double> quality;
    LayerMedians layers;
    std::string trace_json;
    std::string served_dir;
    const auto train = [&] {
        const std::string dir =
            (workdir / std::to_string(pipeline_s.size())).string();
        const PipelineCall call =
            run_pipeline_checked(dataset, config, dir, report);
        pipeline_s.push_back(call.seconds);
        quality.push_back(call.quality);
        if (!served_dir.empty()) {
            std::filesystem::remove_all(served_dir);
        }
        served_dir = dir;
        if (args.trace) {
            obs::TraceSession session;
            session.start();
            layers.samples.push_back(
                run_decomposed(dataset, config, call.result, report));
            session.stop();
            trace_json = session.to_chrome_json();
        }
    };
    const auto start_serving = [&] {
        const core::CheckpointManager artifacts(served_dir);
        ServedModel model;
        model.embedding_path = artifacts.embedding_path();
        if (dataset.task == gen::Task::kLinkPrediction) {
            model.classifier_path =
                artifacts.classifier_path("link-predictor");
        }
        model.hidden_dim = config.classifier.hidden_dim;
        model.seed = args.seed;
        const Clock::time_point begin = Clock::now();
        auto serve = std::make_unique<ServeBench>(model, report);
        return std::pair{std::move(serve), seconds_since(begin)};
    };

    std::unique_ptr<ServeBench> serve;
    if (workload.train_in_setup) {
        // Set-up also covers training, snapshot build and server start
        // (not the decomposed run, which is measurement).
        while (pipeline_s.size() < kMinPipelineCalls) {
            train();
        }
        double start_s = 0.0;
        std::tie(serve, start_s) = start_serving();
        setup_s += median(pipeline_s) + start_s;
    }

    const Clock::time_point window_begin = Clock::now();
    if (!workload.train_in_setup) {
        const double budget = args.seconds * (1.0 - workload.serve_share);
        double last = 0.0;
        do {
            const Clock::time_point begin = Clock::now();
            train();
            last = seconds_since(begin);
        } while (pipeline_s.size() < kMinPipelineCalls ||
                 seconds_since(window_begin) + last <= budget);
        serve = start_serving().first;
    }
    const double serve_budget =
        std::max(args.seconds - seconds_since(window_begin),
                 args.seconds * workload.serve_share);
    const double nominal_s =
        args.trace ? kNominalShare * serve_budget : serve_budget;
    const WindowStats nominal =
        serve->run_window(ServeBench::kNominalRate, nominal_s);
    const double slo_qps =
        args.trace ? serve->slo_ladder(nominal, serve_budget - nominal_s)
                   : 0.0;
    serve->verify_scores();

    for (std::size_t i = 0; i < pipeline_s.size(); ++i) {
        std::printf("run_pipeline call %zu: %.3fs, test quality %.4f\n", i,
                    pipeline_s[i], quality[i]);
    }
    std::printf("samples: %zu run_pipeline calls | %zu link-score and %zu "
                "kNN requests at the nominal rate | %zu reloads\n",
                pipeline_s.size(), nominal.score_latency.samples.size(),
                nominal.knn_latency.samples.size(),
                nominal.reload_rtt.size());
    if (args.trace) {
        add_layer_metrics(report, layers, median(gen_s),
                          median(pipeline_s));
        add_serve_layer_metrics(report, *serve, nominal, slo_qps);
        std::ofstream(std::filesystem::path(args.workdir) /
                      util::strcat("trace-", workload.name, "-", args.seed,
                                   ".json"))
            << trace_json;
    } else {
        report.add("setup_s", setup_s, "s");
        report.add("pipeline_s", median(pipeline_s), "s");
        report.add("test_quality", median(quality), "score");
        report.add("serve_cpu_us", nominal.cpu_per_request * 1e6, "us");
        report.add("peak_rss_mb", peak_rss_mb(), "MB");
    }
    serve.reset();
    std::filesystem::remove_all(workdir);
    report.print();
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    try {
        return run(parse_args(argc, argv));
    } catch (const std::exception& error) {
        std::fprintf(stderr, "tglbench: %s\n", error.what());
        return 1;
    }
}
