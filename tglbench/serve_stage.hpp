/// @file
/// Serve side of the benchmark: an in-process serve::Server over a
/// trained embedding, driven open loop over loopback by at most four
/// client threads, one serve::Client connection each.
///
/// The mix: 90% link-score requests of 16 random pairs, 10% kNN
/// queries with k = 10, and one reload of the served embedding file
/// every 2 s (issued by the first connection). Requests are due on a
/// fixed schedule at the offered rate, whether or not earlier ones have
/// finished; each is timed from its due time, so a stall also charges
/// the requests queued behind it.
#pragma once

#include "report.hpp"

#include "embed/embedding.hpp"
#include "nn/mlp.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace tglbench {

/// What to serve: a stored embedding (reloaded from the same file by
/// the mix) and link-predictor weights. An empty @p classifier_path
/// serves a link predictor initialized from @p seed.
struct ServedModel
{
    std::string embedding_path;
    std::string classifier_path;
    std::size_t hidden_dim = 16;
    std::uint64_t seed = 1;
};

/// Sent / succeeded / failed requests of one op type.
struct OpCounts
{
    std::uint64_t sent = 0;
    std::uint64_t ok = 0;
    std::uint64_t failed = 0;
};

/// Latencies from due time to response (failed requests: +inf), each
/// tagged with its due time, seconds from the window start.
struct Latencies
{
    std::vector<std::pair<double, double>> samples;

    /// The @p p quantile within each @p slice_seconds of due time, and
    /// the median of those over the window's slices: a stall moves only
    /// the slices it falls in.
    double sliced(double p, double slice_seconds) const;
};

/// Client-side measurements of one open-loop window.
struct WindowStats
{
    double rate = 0.0;
    Latencies score_latency;
    Latencies knn_latency;
    /// Send-to-response round trips of successful requests.
    std::vector<double> link_rtt;
    std::vector<double> knn_rtt;
    std::vector<double> reload_rtt;
    OpCounts link;
    OpCounts knn;
    OpCounts reload;
    /// Mean of (send time - due time): how late the generator ran.
    double gen_lag = 0.0;
    /// Requests due but not yet sent, at each quarter of the window.
    std::array<std::size_t, 4> backlog{};
    /// Server stage means over the window (serve.stage.* histogram
    /// deltas read through Client::stats_json), in seconds, and the
    /// mean pairs per scorer batch.
    double admission = 0.0;
    double queue = 0.0;
    double forward = 0.0;
    double serialize = 0.0;
    double batch_pairs = 0.0;
    /// CPU time of the whole process (server and load generator) over
    /// the window per answered request, seconds. Unlike the latencies,
    /// it does not grow while the host withholds the CPU.
    double cpu_per_request = 0.0;

    /// The window meets the service objective: score p99 within 1 ms
    /// (failures count as misses) and no growing backlog.
    bool meets_slo() const;
};

class ServeBench
{
  public:
    /// Nominal offered rate of the mix, requests per second.
    static constexpr double kNominalRate = 5000.0;
    /// Latency quantiles are taken per slice of due time this long,
    /// then combined over the window (Latencies::sliced).
    static constexpr double kSliceSeconds = 0.25;

    /// Set-up: load the embedding and weights, build the fp32 snapshot,
    /// start the server and connect the clients.
    ServeBench(const ServedModel& model, Report& report);
    ~ServeBench();

    ServeBench(const ServeBench&) = delete;
    ServeBench& operator=(const ServeBench&) = delete;

    /// One open-loop window of @p seconds at @p rate requests/s.
    WindowStats run_window(double rate, double seconds);

    /// Within @p budget_seconds, find the offered rate at which the
    /// mix stops meeting the objective. The rates form a geometric
    /// ladder above the nominal rate, rungs 4% apart, walked as an
    /// up-down staircase: four rungs up after each met rung until the
    /// first miss, then one rung up after a met rung and one down
    /// after a missed one. Returns the median rate of the rungs run
    /// from the first miss on. @p nominal is the nominal window.
    double slo_ladder(const WindowStats& nominal, double budget_seconds);

    /// Median reload round trip over every window so far, seconds.
    double reload_median() const { return median(reload_rtt_); }

    /// Compare the sampled served link scores with an in-process
    /// forward of the same weights on the same embedding.
    void verify_scores();

  private:
    struct ThreadLog;
    struct StageTotals;

    StageTotals read_stages();
    void client_loop(unsigned index, ThreadLog& log, double rate,
                     Clock::time_point start, Clock::time_point end);
    void reload(ThreadLog& log);

    Report& report_;
    tgl::embed::Embedding embedding_;
    std::string embedding_path_;
    std::function<tgl::nn::Mlp()> classifier_factory_;
    std::unique_ptr<tgl::serve::Server> server_;
    std::vector<std::unique_ptr<tgl::serve::Client>> clients_;
    std::uint64_t seed_ = 1;
    std::uint64_t windows_ = 0;
    std::uint64_t epoch_ = 0;
    Clock::time_point next_reload_{};
    std::vector<double> reload_rtt_;

    struct ScoreSample
    {
        std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
        std::vector<float> scores;
    };
    std::vector<ScoreSample> score_samples_;
};

} // namespace tglbench
