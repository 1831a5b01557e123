#include "embed/streaming_trainer.hpp"

#include "obs/metrics.hpp"
#include "obs/perf_events.hpp"
#include "obs/trace.hpp"
#include "rng/splitmix64.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/parallel_for.hpp"
#include "util/rank_slots.hpp"
#include "util/timer.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <thread>

namespace tgl::embed {

namespace {

/// Epoch-0 sentences draw from a stream tag distinct from the replay
/// epochs so no (epoch, sentence) stream is ever reused across the two
/// schedules.
constexpr std::uint64_t kStreamTag = 0xA5F152ED0C0FFEE1ULL;

/// train_sentence (trainer.cpp) minus the vocab mapping: with word id
/// == node id and neither min-count filtering nor subsampling, the
/// sentence IS the word sequence. The window-shrink RNG draws line up
/// with the sequential trainer's. Returns the number of pairs trained.
std::uint64_t
train_identity_sentence(SgnsModel& model, const NegativeTable& negatives,
                        const SgnsConfig& config,
                        const kernels::SgnsBackendOps& ops,
                        std::span<const graph::NodeId> sentence,
                        float alpha, rng::Random& random,
                        SgnsPairScratch& scratch)
{
    const std::size_t len = sentence.size();
    std::uint64_t pairs = 0;
    for (std::size_t pos = 0; pos < len; ++pos) {
        // word2vec shrinks the window uniformly per position.
        const unsigned shrink =
            static_cast<unsigned>(random.next_index(config.window));
        const unsigned effective = config.window - shrink;
        const std::size_t lo = pos >= effective ? pos - effective : 0;
        const std::size_t hi = std::min(len, pos + effective + 1);
        for (std::size_t c = lo; c < hi; ++c) {
            if (c == pos) {
                continue;
            }
            sgns_update_pair(model, static_cast<WordId>(sentence[c]),
                             static_cast<WordId>(sentence[pos]), negatives,
                             config.negatives, alpha, ops, random,
                             scratch);
            ++pairs;
        }
    }
    return pairs;
}

float
decayed_alpha(const SgnsConfig& config, std::uint64_t done,
              std::uint64_t total)
{
    const float progress = std::min(
        1.0f, static_cast<float>(static_cast<double>(done) /
                                 static_cast<double>(total)));
    return std::max(config.alpha * (1.0f - progress),
                    config.alpha * 1e-4f);
}

} // namespace

std::vector<std::string>
streaming_unsupported(const SgnsConfig& config)
{
    std::vector<std::string> problems;
    if (config.min_count > 1) {
        problems.push_back(
            "min_count > 1 filters on global counts, which do not exist "
            "until every shard has arrived");
    }
    if (config.subsample > 0.0) {
        problems.push_back(
            "subsample needs global word frequencies before the first "
            "update");
    }
    return problems;
}

StreamingResult
train_sgns_streaming(util::ShardQueue<walk::CorpusShard>& queue,
                     graph::NodeId num_nodes,
                     const std::vector<double>& prior_weights,
                     const StreamingSgnsConfig& streaming)
{
    const SgnsConfig& config = streaming.sgns;
    if (config.epochs == 0) {
        util::fatal("train_sgns_streaming: epochs must be >= 1");
    }
    if (config.window == 0) {
        util::fatal("train_sgns_streaming: window must be >= 1");
    }
    if (num_nodes == 0) {
        util::fatal("train_sgns_streaming: empty node-id space");
    }
    if (prior_weights.size() != num_nodes) {
        util::fatal(util::strcat(
            "train_sgns_streaming: prior_weights has ",
            prior_weights.size(), " entries for ", num_nodes, " nodes"));
    }
    for (const std::string& problem : streaming_unsupported(config)) {
        util::fatal(
            util::strcat("train_sgns_streaming: unsupported "
                         "configuration: ",
                         problem));
    }

    const obs::Span span("sgns.train.streaming");
    util::Timer timer;

    SgnsModel model(static_cast<std::size_t>(num_nodes), config);
    const NegativeTable prior(prior_weights);
    const kernels::SgnsBackendOps& ops = sgns_kernel_ops(config);

    // Epoch 0 decays alpha against the caller's token estimate; the
    // schedule switches to exact totals the moment they exist.
    const std::uint64_t estimated_total =
        std::max<std::uint64_t>(streaming.total_token_estimate, 1) *
        config.epochs;

    std::atomic<std::uint64_t> tokens_done{0};
    std::atomic<std::uint64_t> total_pairs{0};
    // Exact per-node occurrence counts, accumulated as shards arrive —
    // the input of the exact unigram^0.75 rebuild before epoch 1.
    std::vector<std::atomic<std::uint64_t>> counts(num_nodes);

    // In-order shard assembler: out-of-order arrivals park in
    // `pending` until the next expected index shows up, so the
    // assembled corpus matches the sequential one exactly.
    std::mutex assembly_mutex;
    std::map<std::size_t, walk::Corpus> pending;
    walk::Corpus corpus;
    std::size_t next_shard = 0;

    const auto consume = [&]() {
        // Consumers are plain threads (not pool workers), so each
        // carries its own per-thread counter scope for the phase.
        obs::PerfScope perf_scope("sgns");
        SgnsPairScratch scratch;
        std::uint64_t pairs = 0;
        while (std::optional<walk::CorpusShard> shard = queue.pop()) {
            const obs::Span shard_span("overlap.train.shard");
            const walk::Corpus& walks = shard->walks;
            for (std::size_t s = 0; s < walks.num_walks(); ++s) {
                const auto sentence = walks.walk(s);
                for (const graph::NodeId node : sentence) {
                    counts[node].fetch_add(1, std::memory_order_relaxed);
                }
                const float alpha = decayed_alpha(
                    config,
                    tokens_done.load(std::memory_order_relaxed),
                    estimated_total);
                rng::Random random(rng::mix_seed(
                    rng::mix_seed(config.seed ^ kStreamTag, shard->index),
                    s));
                pairs += train_identity_sentence(model, prior, config, ops,
                                                 sentence, alpha, random,
                                                 scratch);
                tokens_done.fetch_add(sentence.size(),
                                      std::memory_order_relaxed);
            }
            const std::lock_guard<std::mutex> lock(assembly_mutex);
            pending.emplace(shard->index, std::move(shard->walks));
            while (!pending.empty() &&
                   pending.begin()->first == next_shard) {
                corpus.append(std::move(pending.begin()->second));
                pending.erase(pending.begin());
                ++next_shard;
            }
        }
        total_pairs.fetch_add(pairs, std::memory_order_relaxed);
    };

    {
        const unsigned team = std::max(1u, streaming.consumer_threads);
        std::vector<std::thread> workers;
        workers.reserve(team - 1);
        for (unsigned t = 1; t < team; ++t) {
            workers.emplace_back(consume);
        }
        consume(); // the calling thread is consumer rank 0
        for (std::thread& worker : workers) {
            worker.join();
        }
    }

    if (!pending.empty()) {
        util::fatal(util::strcat(
            "train_sgns_streaming: shard ", next_shard,
            " never arrived (", pending.size(),
            " later shards parked) — producer-side failure"));
    }
    if (corpus.num_tokens() == 0) {
        util::fatal("train_sgns_streaming: drained queue yielded an "
                    "empty corpus");
    }
    if (!model.all_finite()) {
        util::fatal(util::strcat(
            "train_sgns_streaming: non-finite model weights after the "
            "streaming epoch — training diverged (alpha = ",
            config.alpha, ")"));
    }

    std::vector<std::uint64_t> exact_counts(num_nodes);
    for (graph::NodeId node = 0; node < num_nodes; ++node) {
        exact_counts[node] =
            counts[node].load(std::memory_order_relaxed);
    }

    // Epochs >= 1: the sequential trainer's replay loop with the exact
    // rebuilt table and exact alpha-schedule totals.
    if (config.epochs > 1) {
        const NegativeTable exact(exact_counts);
        const std::size_t num_sentences = corpus.num_walks();
        const std::uint64_t exact_total =
            static_cast<std::uint64_t>(corpus.num_tokens()) *
            config.epochs;

        const unsigned max_team = config.num_threads
                                      ? config.num_threads
                                      : util::default_threads();
        struct ReplayRank
        {
            SgnsPairScratch scratch;
            std::uint64_t pairs = 0;
        };
        util::RankSlots<ReplayRank> ranks(max_team);

        obs::PerfRankScopes perf_scopes("sgns", max_team);

        for (unsigned epoch = 1; epoch < config.epochs; ++epoch) {
            const obs::Span epoch_span("sgns.epoch");
            util::parallel_for_ranked(
                0, num_sentences,
                [&](std::size_t s, unsigned rank) {
                    perf_scopes.ensure(rank);
                    ReplayRank& state = ranks[rank];
                    const auto sentence = corpus.walk(s);
                    const float alpha = decayed_alpha(
                        config,
                        tokens_done.load(std::memory_order_relaxed),
                        exact_total);
                    rng::Random random(rng::mix_seed(
                        config.seed,
                        static_cast<std::uint64_t>(epoch) *
                                num_sentences +
                            s));
                    state.pairs += train_identity_sentence(
                        model, exact, config, ops, sentence, alpha, random,
                        state.scratch);
                    tokens_done.fetch_add(sentence.size(),
                                          std::memory_order_relaxed);
                },
                {.num_threads = config.num_threads, .grain = 64});

            if (!model.all_finite()) {
                util::fatal(util::strcat(
                    "train_sgns_streaming: non-finite model weights "
                    "after epoch ",
                    epoch + 1, " of ", config.epochs,
                    " — training diverged (alpha = ", config.alpha,
                    ")"));
            }
        }
        for (std::size_t rank = 0; rank < ranks.size(); ++rank) {
            total_pairs.fetch_add(ranks[rank].pairs,
                                  std::memory_order_relaxed);
        }
    }

    const std::uint64_t pairs = total_pairs.load();
    const std::uint64_t tokens =
        tokens_done.load(std::memory_order_relaxed);
    const double seconds = timer.seconds();
    obs::Registry& registry = obs::Registry::global();
    registry.counter("sgns.pairs").add(pairs);
    registry.counter("sgns.tokens").add(tokens);
    registry.counter("sgns.epochs").add(config.epochs);
    registry.gauge("sgns.alpha").set(static_cast<double>(config.alpha));
    registry.gauge("sgns.pairs_per_second")
        .set(seconds > 0.0 ? static_cast<double>(pairs) / seconds : 0.0);

    StreamingResult result;
    result.embedding = model.to_embedding(num_nodes);
    result.corpus = std::move(corpus);
    result.counts = std::move(exact_counts);
    result.stats.pairs_trained = pairs;
    result.stats.tokens_processed = tokens;
    result.stats.seconds = seconds;
    return result;
}

} // namespace tgl::embed
