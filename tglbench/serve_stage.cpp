#include "serve_stage.hpp"

#include "rng/random.hpp"
#include "util/logging.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <thread>

#include <sys/prctl.h>
#include <sys/resource.h>

namespace tglbench {

using namespace tgl;

namespace {

constexpr unsigned kConnections = 4;
constexpr std::size_t kPairsPerRequest = 16;
constexpr std::uint32_t kNeighbors = 10;
constexpr double kKnnShare = 0.10;
constexpr auto kReloadPeriod = std::chrono::seconds(2);
constexpr double kScoreSloSeconds = 1e-3;
/// Backlog growth (requests) that disqualifies a rate: more than four
/// requests per connection, in both halves of the window.
constexpr std::size_t kBacklogSlack = 16;
/// Every Nth link request of a connection is kept for verify_scores.
constexpr std::uint64_t kSampleEvery = 64;
constexpr std::size_t kMaxSamples = 4096;
/// SLO ladder: rungs kRungStep apart, kRungSeconds each, climbed
/// kClimbRungs at a time until the first miss.
constexpr double kRungStep = 1.04;
constexpr double kRungSeconds = 0.4;
constexpr int kClimbRungs = 4;

constexpr std::array<const char*, 5> kStageHistograms = {
    "serve.stage.admission_seconds", "serve.stage.queue_seconds",
    "serve.stage.forward_seconds", "serve.stage.serialize_seconds",
    "serve.batch.pairs"};

const double kInf = std::numeric_limits<double>::infinity();

/// User plus system CPU time of this process so far, seconds.
double
process_cpu_seconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto seconds = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

/// Count and sum of histogram @p name in a Client::stats_json document.
std::pair<double, double>
histogram_totals(const std::string& json, const char* name)
{
    const std::size_t at =
        json.find(std::string("\"name\": \"") + name + "\"");
    if (at == std::string::npos) {
        return {0.0, 0.0};
    }
    const auto field = [&](const char* key) {
        const std::size_t pos = json.find(key, at);
        return pos == std::string::npos
                   ? 0.0
                   : std::strtod(json.c_str() + pos + std::strlen(key),
                                 nullptr);
    };
    return {field("\"count\": "), field("\"sum\": ")};
}

} // namespace

struct ServeBench::StageTotals
{
    std::array<double, kStageHistograms.size()> count{};
    std::array<double, kStageHistograms.size()> sum{};
};

struct ServeBench::ThreadLog
{
    std::vector<std::pair<double, double>> score_latency;
    std::vector<std::pair<double, double>> knn_latency;
    std::vector<double> link_rtt;
    std::vector<double> knn_rtt;
    std::vector<double> reload_rtt;
    /// (due, sent) of every request, seconds from window start.
    std::vector<std::pair<double, double>> due_sent;
    OpCounts link;
    OpCounts knn;
    OpCounts reload;
    double lag_sum = 0.0;
    std::vector<std::string> errors;
    std::vector<std::string> wrong;
    std::vector<ScoreSample> samples;
};

double
Latencies::sliced(double p, double slice_seconds) const
{
    std::vector<std::vector<double>> slices;
    for (const auto& [due, latency] : samples) {
        const auto slice = static_cast<std::size_t>(due / slice_seconds);
        if (slice >= slices.size()) {
            slices.resize(slice + 1);
        }
        slices[slice].push_back(latency);
    }
    std::vector<double> quantiles;
    for (std::vector<double>& slice : slices) {
        if (!slice.empty()) {
            quantiles.push_back(percentile(std::move(slice), p));
        }
    }
    return median(std::move(quantiles));
}

bool
WindowStats::meets_slo() const
{
    const bool backlog_grows = backlog[2] > backlog[0] + kBacklogSlack &&
                               backlog[3] > backlog[1] + kBacklogSlack;
    return !backlog_grows &&
           score_latency.sliced(0.99, ServeBench::kSliceSeconds) <=
               kScoreSloSeconds;
}

ServeBench::ServeBench(const ServedModel& model, Report& report)
    : report_(report), embedding_path_(model.embedding_path),
      seed_(model.seed)
{
    std::uint64_t fingerprint = 0;
    embedding_ = embed::Embedding::load_binary_file(model.embedding_path,
                                                    &fingerprint);
    classifier_factory_ = [dim = std::size_t{embedding_.dim()},
                           path = model.classifier_path,
                           hidden = model.hidden_dim, seed = model.seed] {
        rng::Random random(seed);
        nn::Mlp net = nn::make_link_predictor(2 * dim, hidden, random);
        if (!path.empty()) {
            net.load_weights_file(path);
        }
        return net;
    };
    classifier_factory_(); // fail fast on a weights/shape mismatch
    server_ = std::make_unique<serve::Server>(
        serve::ServeConfig{},
        serve::EmbeddingSnapshot::build(embedding_, serve::QuantMode::kFp32,
                                        1, fingerprint),
        classifier_factory_);
    server_->start();
    for (unsigned c = 0; c < kConnections; ++c) {
        clients_.push_back(
            std::make_unique<serve::Client>("127.0.0.1", server_->port()));
    }
    epoch_ = clients_[0]->ping().epoch;
    next_reload_ = Clock::now() + kReloadPeriod;
}

ServeBench::~ServeBench()
{
    clients_.clear();
    server_->stop();
}

ServeBench::StageTotals
ServeBench::read_stages()
{
    const std::string json = clients_[0]->stats_json();
    StageTotals totals;
    for (std::size_t i = 0; i < kStageHistograms.size(); ++i) {
        std::tie(totals.count[i], totals.sum[i]) =
            histogram_totals(json, kStageHistograms[i]);
    }
    return totals;
}

void
ServeBench::reload(ThreadLog& log)
{
    const Clock::time_point due = next_reload_;
    next_reload_ = std::max(due + kReloadPeriod, Clock::now());
    ++log.reload.sent;
    try {
        const Clock::time_point sent = Clock::now();
        const std::uint64_t epoch = clients_[0]->reload(embedding_path_);
        log.reload_rtt.push_back(seconds_since(sent));
        const std::uint64_t pinged = clients_[0]->ping().epoch;
        if (epoch != epoch_ + 1 || pinged != epoch) {
            log.wrong.push_back(util::strcat(
                "reload moved the epoch from ", epoch_, " to ", epoch,
                " (ping reports ", pinged, "), not by exactly one"));
        }
        epoch_ = epoch;
        ++log.reload.ok;
    } catch (const std::exception& error) {
        ++log.reload.failed;
        log.errors.push_back(std::string("reload: ") + error.what());
    }
}

void
ServeBench::client_loop(unsigned index, ThreadLog& log, double rate,
                        Clock::time_point start, Clock::time_point end)
{
    // The default 50us timer slack would make every sleep_until wake
    // late, charging the generator's own lateness to the server.
    prctl(PR_SET_TIMERSLACK, 1UL);
    rng::Random random(seed_ * 0x9e3779b97f4a7c15ULL + windows_ * 64 +
                       index);
    const graph::NodeId num_nodes = embedding_.num_nodes();
    std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs(
        kPairsPerRequest);
    std::uint64_t link_index = 0;
    for (std::uint64_t i = index;; i += kConnections) {
        const Clock::time_point due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            static_cast<double>(i) / rate));
        if (due >= end) {
            break;
        }
        if (Clock::now() >= end) {
            // Overloaded: the window is over, and what is still due was
            // never sent. Each such request is backlog and a miss.
            log.due_sent.emplace_back(seconds_between(start, due), kInf);
            log.score_latency.emplace_back(seconds_between(start, due),
                                           kInf);
            continue;
        }
        std::this_thread::sleep_until(due);
        if (index == 0 && Clock::now() >= next_reload_) {
            reload(log);
        }
        const bool knn = random.next_double() < kKnnShare;
        const auto node =
            static_cast<std::uint32_t>(random.next_index(num_nodes));
        if (!knn) {
            for (auto& [u, v] : pairs) {
                u = static_cast<std::uint32_t>(random.next_index(num_nodes));
                v = static_cast<std::uint32_t>(random.next_index(num_nodes));
            }
        }
        OpCounts& counts = knn ? log.knn : log.link;
        ++counts.sent;
        const Clock::time_point sent = Clock::now();
        log.due_sent.emplace_back(seconds_between(start, due),
                                  seconds_between(start, sent));
        log.lag_sum += seconds_between(due, sent);
        try {
            if (knn) {
                const auto neighbors =
                    clients_[index]->knn(node, kNeighbors);
                const Clock::time_point done = Clock::now();
                log.knn_latency.emplace_back(seconds_between(start, due),
                                             seconds_between(due, done));
                log.knn_rtt.push_back(seconds_between(sent, done));
                bool ordered = neighbors.size() == kNeighbors;
                for (std::size_t j = 0; ordered && j < neighbors.size();
                     ++j) {
                    ordered = neighbors[j].first != node &&
                              (j == 0 || neighbors[j - 1].second >=
                                             neighbors[j].second);
                }
                if (!ordered) {
                    log.wrong.push_back(util::strcat(
                        "knn(", node, ") is not ", kNeighbors,
                        " other nodes in descending cosine order"));
                }
            } else {
                std::vector<float> scores = clients_[index]->link_scores(
                    pairs);
                const Clock::time_point done = Clock::now();
                log.score_latency.emplace_back(
                    seconds_between(start, due), seconds_between(due, done));
                log.link_rtt.push_back(seconds_between(sent, done));
                if (scores.size() != pairs.size()) {
                    log.wrong.push_back("link_scores answered " +
                                        std::to_string(scores.size()) +
                                        " scores for 16 pairs");
                } else if (link_index++ % kSampleEvery == 0) {
                    log.samples.push_back({pairs, std::move(scores)});
                }
            }
            ++counts.ok;
        } catch (const std::exception& error) {
            ++counts.failed;
            (knn ? log.knn_latency : log.score_latency)
                .emplace_back(seconds_between(start, due), kInf);
            log.errors.push_back(error.what());
            try {
                clients_[index] = std::make_unique<serve::Client>(
                    "127.0.0.1", server_->port());
            } catch (const std::exception&) {
                // Retried on the next failure; the request is counted.
            }
        }
    }
}

WindowStats
ServeBench::run_window(double rate, double seconds)
{
    const StageTotals before = read_stages();
    const double cpu_before = process_cpu_seconds();
    std::array<ThreadLog, kConnections> logs;
    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(2);
    const Clock::time_point end =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(seconds));
    {
        std::vector<std::jthread> threads;
        for (unsigned c = 0; c < kConnections; ++c) {
            threads.emplace_back([&, c] {
                client_loop(c, logs[c], rate, start, end);
            });
        }
    }
    ++windows_;
    const double cpu_seconds = process_cpu_seconds() - cpu_before;
    const StageTotals after = read_stages();

    WindowStats stats;
    stats.rate = rate;
    std::uint64_t requests = 0;
    for (ThreadLog& log : logs) {
        const auto append = [](std::vector<double>& to,
                               const std::vector<double>& from) {
            to.insert(to.end(), from.begin(), from.end());
        };
        stats.score_latency.samples.insert(
            stats.score_latency.samples.end(), log.score_latency.begin(),
            log.score_latency.end());
        stats.knn_latency.samples.insert(stats.knn_latency.samples.end(),
                                         log.knn_latency.begin(),
                                         log.knn_latency.end());
        append(stats.link_rtt, log.link_rtt);
        append(stats.knn_rtt, log.knn_rtt);
        append(stats.reload_rtt, log.reload_rtt);
        append(reload_rtt_, log.reload_rtt);
        for (const auto& [mine, theirs] :
             {std::pair{&stats.link, &log.link},
              std::pair{&stats.knn, &log.knn},
              std::pair{&stats.reload, &log.reload}}) {
            mine->sent += theirs->sent;
            mine->ok += theirs->ok;
            mine->failed += theirs->failed;
        }
        stats.gen_lag += log.lag_sum;
        requests += log.due_sent.size();
        // Backlog at each quarter mark: due by then, not yet sent.
        for (std::size_t q = 0; q < stats.backlog.size(); ++q) {
            const double at =
                seconds * static_cast<double>(q + 1) / stats.backlog.size();
            for (const auto& [due, sent] : log.due_sent) {
                stats.backlog[q] += due <= at && sent > at ? 1 : 0;
            }
        }
        for (const std::string& error : log.errors) {
            report_.fail(error, /*check=*/false);
        }
        for (const std::string& wrong : log.wrong) {
            report_.fail(wrong);
        }
        for (ScoreSample& sample : log.samples) {
            if (score_samples_.size() < kMaxSamples) {
                score_samples_.push_back(std::move(sample));
            }
        }
    }
    report_.count(stats.link.sent + stats.knn.sent + stats.reload.sent);
    stats.gen_lag /= static_cast<double>(std::max<std::uint64_t>(requests, 1));
    const auto stage_mean = [&](std::size_t i) {
        const double n = after.count[i] - before.count[i];
        return n > 0.0 ? (after.sum[i] - before.sum[i]) / n : 0.0;
    };
    stats.admission = stage_mean(0);
    stats.queue = stage_mean(1);
    stats.forward = stage_mean(2);
    stats.serialize = stage_mean(3);
    stats.batch_pairs = stage_mean(4);
    const std::uint64_t answered =
        stats.link.ok + stats.knn.ok + stats.reload.ok;
    stats.cpu_per_request =
        cpu_seconds /
        static_cast<double>(std::max<std::uint64_t>(answered, 1));

    std::printf(
        "serve window %7.0f req/s %5.2fs: link %llu sent %llu ok %llu "
        "failed | knn %llu/%llu/%llu | reload %llu/%llu/%llu | score p50 "
        "%.1fus p99 %.1fus | gen lag %.1fus | backlog %zu %zu %zu %zu | "
        "%s\n",
        rate, seconds, static_cast<unsigned long long>(stats.link.sent),
        static_cast<unsigned long long>(stats.link.ok),
        static_cast<unsigned long long>(stats.link.failed),
        static_cast<unsigned long long>(stats.knn.sent),
        static_cast<unsigned long long>(stats.knn.ok),
        static_cast<unsigned long long>(stats.knn.failed),
        static_cast<unsigned long long>(stats.reload.sent),
        static_cast<unsigned long long>(stats.reload.ok),
        static_cast<unsigned long long>(stats.reload.failed),
        stats.score_latency.sliced(0.5, kSliceSeconds) * 1e6,
        stats.score_latency.sliced(0.99, kSliceSeconds) * 1e6,
        stats.gen_lag * 1e6,
        stats.backlog[0], stats.backlog[1], stats.backlog[2],
        stats.backlog[3], stats.meets_slo() ? "meets SLO" : "misses SLO");
    return stats;
}

double
ServeBench::slo_ladder(const WindowStats& nominal, double budget_seconds)
{
    const Clock::time_point begin = Clock::now();
    bool missed = !nominal.meets_slo();
    std::vector<double> visited;
    if (missed) {
        visited.push_back(kNominalRate);
    }
    double highest = kNominalRate;
    for (int rung = missed ? -1 : kClimbRungs;
         seconds_since(begin) + kRungSeconds <= budget_seconds;) {
        const double rate = kNominalRate * std::pow(kRungStep, rung);
        const bool met = run_window(rate, kRungSeconds).meets_slo();
        highest = std::max(highest, rate);
        missed = missed || !met;
        if (missed) {
            visited.push_back(rate);
        }
        rung += met ? (missed ? 1 : kClimbRungs) : -1;
    }
    if (visited.empty()) {
        std::printf("serve ladder: the SLO was never missed; slo_qps is "
                    "a lower bound\n");
        return highest;
    }
    return median(visited);
}

void
ServeBench::verify_scores()
{
    nn::Mlp net = classifier_factory_();
    const std::size_t dim = embedding_.dim();
    for (const ScoreSample& sample : score_samples_) {
        nn::Tensor features(sample.pairs.size(), 2 * dim);
        for (std::size_t row = 0; row < sample.pairs.size(); ++row) {
            const auto [u, v] = sample.pairs[row];
            std::copy_n(embedding_.row(u).data(), dim,
                        features.row(row).data());
            std::copy_n(embedding_.row(v).data(), dim,
                        features.row(row).data() + dim);
        }
        const nn::Tensor& output = net.forward(features);
        for (std::size_t row = 0; row < sample.pairs.size(); ++row) {
            if (!(std::abs(output(row, 0) - sample.scores[row]) <= 1e-5f)) {
                report_.fail(util::strcat(
                    "served score ", sample.scores[row], " for (",
                    sample.pairs[row].first, ", ", sample.pairs[row].second,
                    ") != in-process forward ", output(row, 0)));
            }
        }
    }
    std::printf("serve: verified %zu sampled link-score requests against "
                "an in-process forward\n",
                score_samples_.size());
}

} // namespace tglbench
