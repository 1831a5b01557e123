#include "embed/trainer.hpp"

#include "obs/metrics.hpp"
#include "obs/perf_events.hpp"
#include "obs/trace.hpp"
#include "rng/splitmix64.hpp"
#include "util/cancellation.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/parallel_for.hpp"
#include "util/rank_slots.hpp"
#include "util/timer.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <vector>

namespace tgl::embed {

namespace {

/// One worker's state. Its counters are written once per sentence.
struct SgnsRank
{
    std::vector<WordId> words;
    SgnsPairScratch scratch;
    std::uint64_t pairs = 0;
};

/// Process every (center, context) pair of one sentence; returns the
/// number of pairs trained.
std::uint64_t
train_sentence(SgnsModel& model, const Vocab& vocab,
               const NegativeTable& negatives, const SgnsConfig& config,
               const kernels::SgnsBackendOps& ops,
               std::span<const graph::NodeId> sentence, float alpha,
               rng::Random& random, std::vector<WordId>& words,
               SgnsPairScratch& scratch)
{
    // Map to word ids, applying min-count filtering and optional
    // frequent-word subsampling.
    words.clear();
    for (graph::NodeId node : sentence) {
        const WordId w = vocab.word_of(node);
        if (w == kNoWord) {
            continue;
        }
        if (config.subsample > 0.0) {
            const double frequency =
                static_cast<double>(vocab.count(w)) /
                static_cast<double>(vocab.total_tokens());
            const double keep =
                (std::sqrt(frequency / config.subsample) + 1.0) *
                (config.subsample / frequency);
            if (keep < 1.0 && !random.next_bernoulli(keep)) {
                continue;
            }
        }
        words.push_back(w);
    }

    const std::size_t len = words.size();
    std::uint64_t pairs = 0;
    for (std::size_t pos = 0; pos < len; ++pos) {
        // word2vec shrinks the window uniformly per position.
        const unsigned shrink =
            static_cast<unsigned>(random.next_index(config.window));
        const unsigned effective = config.window - shrink;
        const std::size_t lo =
            pos >= effective ? pos - effective : 0;
        const std::size_t hi = std::min(len, pos + effective + 1);
        for (std::size_t c = lo; c < hi; ++c) {
            if (c == pos) {
                continue;
            }
            sgns_update_pair(model, words[c], words[pos], negatives,
                             config.negatives, alpha, ops, random,
                             scratch);
            ++pairs;
        }
    }
    return pairs;
}

} // namespace

Embedding
train_sgns(const walk::Corpus& corpus, graph::NodeId num_nodes,
           const SgnsConfig& config, TrainStats* stats)
{
    if (config.epochs == 0) {
        util::fatal("train_sgns: epochs must be >= 1");
    }
    if (config.window == 0) {
        util::fatal("train_sgns: window must be >= 1");
    }
    obs::Span span("sgns.train");
    util::Timer timer;

    const Vocab vocab(corpus, config.min_count);
    if (vocab.size() == 0) {
        util::fatal("train_sgns: empty vocabulary (corpus too small or "
                    "min_count too high)");
    }
    const NegativeTable negatives(vocab);
    SgnsModel model(vocab, config);
    const kernels::SgnsBackendOps& ops = sgns_kernel_ops(config);

    const std::size_t num_sentences = corpus.num_walks();
    const std::uint64_t total_tokens =
        static_cast<std::uint64_t>(corpus.num_tokens()) * config.epochs;
    std::atomic<std::uint64_t> tokens_done{0};

    const unsigned max_team = config.num_threads ? config.num_threads
                                                 : util::default_threads();
    util::RankSlots<SgnsRank> ranks(max_team);
    unsigned team = 0;

    // One counter scope spanning all epochs: the rank→worker mapping
    // is stable across dispatches, so each thread's set is opened once
    // and the close() below aggregates the whole training run.
    obs::PerfRankScopes perf_scopes("sgns", max_team);

    for (unsigned epoch = 0; epoch < config.epochs; ++epoch) {
        util::check_cancellation("the sgns epoch loop");
        const obs::Span epoch_span("sgns.epoch");
        team = util::parallel_for_ranked(
            0, num_sentences,
            [&](std::size_t s, unsigned rank) {
                perf_scopes.ensure(rank);
                SgnsRank& state = ranks[rank];
                const auto sentence = corpus.walk(s);

                // Linear learning-rate decay from the shared progress
                // counter, refreshed every sentence like word2vec does
                // every 10k words.
                const std::uint64_t done =
                    tokens_done.load(std::memory_order_relaxed);
                const float progress =
                    static_cast<float>(static_cast<double>(done) /
                                       static_cast<double>(total_tokens));
                const float alpha = std::max(
                    config.alpha * (1.0f - progress),
                    config.alpha * 1e-4f);

                rng::Random random(rng::mix_seed(
                    config.seed,
                    static_cast<std::uint64_t>(epoch) * num_sentences + s));
                state.pairs += train_sentence(
                    model, vocab, negatives, config, ops, sentence, alpha,
                    random, state.words, state.scratch);
                tokens_done.fetch_add(sentence.size(),
                                      std::memory_order_relaxed);
            },
            {.num_threads = config.num_threads, .grain = 64});

        // Divergence screen: a runaway alpha turns the Hogwild updates
        // into inf/NaN well before training ends; fail with context
        // instead of emitting a poisoned embedding.
        if (!model.all_finite()) {
            util::fatal(util::strcat(
                "train_sgns: non-finite model weights after epoch ",
                epoch + 1, " of ", config.epochs,
                " — training diverged (alpha = ", config.alpha, ")"));
        }
    }

    std::uint64_t pairs = 0;
    for (std::size_t rank = 0; rank < ranks.size(); ++rank) {
        pairs += ranks[rank].pairs;
    }

    const std::uint64_t tokens =
        tokens_done.load(std::memory_order_relaxed);
    const double seconds = timer.seconds();
    obs::Registry& registry = obs::Registry::global();
    registry.counter("sgns.pairs").add(pairs);
    registry.counter("sgns.tokens").add(tokens);
    registry.counter("sgns.epochs").add(config.epochs);
    registry.gauge("sgns.alpha")
        .set(static_cast<double>(config.alpha));
    registry.gauge("sgns.pairs_per_second")
        .set(seconds > 0.0 ? static_cast<double>(pairs) / seconds : 0.0);
    // The team that produced pairs_per_second, as num_threads = 0
    // resolved it.
    registry.gauge("sgns.threads").set(team);
    span.arg("threads", team);

    const obs::PerfSample perf = perf_scopes.close();
    for (const auto& [key, value] : obs::perf_span_args(perf)) {
        span.arg(key, value);
    }

    if (stats != nullptr) {
        stats->pairs_trained = pairs;
        stats->tokens_processed = tokens;
        stats->seconds = seconds;
    }
    return model.to_embedding(vocab, num_nodes);
}

} // namespace tgl::embed
