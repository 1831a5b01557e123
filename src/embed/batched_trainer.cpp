#include "embed/batched_trainer.hpp"

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
#include <vector>

namespace tgl::embed {

namespace detail {

std::uint64_t
assemble_batch_pairs(const walk::Corpus& corpus, const Vocab& vocab,
                     const SgnsConfig& sgns, unsigned epoch,
                     std::size_t batch_begin, std::size_t batch_end,
                     std::uint64_t& pair_counter,
                     std::vector<WordId>& words,
                     std::vector<BatchPair>& out)
{
    const std::size_t num_sentences = corpus.num_walks();
    std::uint64_t tokens = 0;
    out.clear();
    for (std::size_t s = batch_begin; s < batch_end; ++s) {
        const auto sentence = corpus.walk(s);
        words.clear();
        for (graph::NodeId node : sentence) {
            const WordId w = vocab.word_of(node);
            if (w != kNoWord) {
                words.push_back(w);
            }
        }
        rng::Random window_random(rng::mix_seed(
            sgns.seed ^ 0xba7cedULL,
            static_cast<std::uint64_t>(epoch) * num_sentences + s));
        const std::size_t len = words.size();
        for (std::size_t pos = 0; pos < len; ++pos) {
            const unsigned shrink = static_cast<unsigned>(
                window_random.next_index(sgns.window));
            const unsigned effective = sgns.window - shrink;
            const std::size_t lo = pos >= effective ? pos - effective : 0;
            const std::size_t hi = std::min(len, pos + effective + 1);
            for (std::size_t c = lo; c < hi; ++c) {
                if (c == pos) {
                    continue;
                }
                out.push_back({words[c], words[pos], pair_counter++});
            }
        }
        tokens += sentence.size();
    }
    return tokens;
}

} // namespace detail

Embedding
train_sgns_batched(const walk::Corpus& corpus, graph::NodeId num_nodes,
                   const BatchedSgnsConfig& config, TrainStats* stats)
{
    const SgnsConfig& sgns = config.sgns;
    if (config.batch_size == 0) {
        util::fatal("train_sgns_batched: batch_size must be >= 1");
    }
    if (sgns.epochs == 0 || sgns.window == 0) {
        util::fatal("train_sgns_batched: epochs and window must be >= 1");
    }
    obs::Span span("sgns.train");
    util::Timer timer;

    const Vocab vocab(corpus, sgns.min_count);
    if (vocab.size() == 0) {
        util::fatal("train_sgns_batched: empty vocabulary");
    }
    const NegativeTable negatives(vocab);
    SgnsModel model(vocab, sgns);
    const kernels::SgnsBackendOps& ops = sgns_kernel_ops(sgns);

    const std::size_t num_sentences = corpus.num_walks();
    const std::uint64_t total_tokens =
        static_cast<std::uint64_t>(corpus.num_tokens()) * sgns.epochs;

    const unsigned max_team = sgns.num_threads ? sgns.num_threads
                                               : util::default_threads();
    util::RankSlots<SgnsPairScratch> ranks(max_team);

    std::uint64_t tokens_done = 0;
    std::uint64_t pairs_trained = 0;
    // Global pair counter: one private splitmix stream per pair,
    // monotone across batches and epochs (see assemble_batch_pairs).
    std::uint64_t pair_counter = 0;
    std::vector<detail::BatchPair> batch_pairs;
    std::vector<WordId> words;

    obs::PerfRankScopes perf_scopes("sgns", max_team);

    for (unsigned epoch = 0; epoch < sgns.epochs; ++epoch) {
        const obs::Span epoch_span("sgns.epoch");
        std::size_t batch_begin = 0;
        while (batch_begin < num_sentences) {
            const std::size_t batch_end = std::min(
                num_sentences, batch_begin + config.batch_size);

            // Host-side batch assembly (the GPU implementation stages
            // sentence windows the same way before the launch): expand
            // each sentence into its (context, center) pairs.
            tokens_done += detail::assemble_batch_pairs(
                corpus, vocab, sgns, epoch, batch_begin, batch_end,
                pair_counter, words, batch_pairs);

            const float progress = static_cast<float>(
                static_cast<double>(tokens_done) /
                static_cast<double>(total_tokens));
            const float alpha = std::max(sgns.alpha * (1.0f - progress),
                                         sgns.alpha * 1e-4f);

            // Shared-negative mode: one pool of sgns.negatives words
            // per launch, reused verbatim by every pair — each pair
            // sees the same sgns.negatives counter-examples instead of
            // private draws (the pool is NOT scaled with the batch;
            // that is the point of the optimization: the shared rows
            // stay cache-hot across the whole launch).
            std::vector<WordId> shared_pool;
            if (config.shared_negatives) {
                rng::Random pool_random(rng::mix_seed(
                    sgns.seed ^ 0x9e9eULL,
                    static_cast<std::uint64_t>(epoch) * num_sentences +
                        batch_begin));
                shared_pool.resize(sgns.negatives);
                for (WordId& w : shared_pool) {
                    w = negatives.sample(pool_random);
                }
            }

            // One "kernel launch": all pairs of the batch in parallel,
            // unsynchronized writes (stale reads tolerated), barrier at
            // the end. With batch_size 1 this degenerates to the prior
            // implementations' per-sentence launch.
            util::parallel_for_ranked(
                0, batch_pairs.size(),
                [&](std::size_t p, unsigned rank) {
                    perf_scopes.ensure(rank);
                    const detail::BatchPair& pair = batch_pairs[p];
                    if (config.shared_negatives) {
                        sgns_update_pair_shared(
                            model, pair.context, pair.center,
                            shared_pool, alpha, ops, ranks[rank]);
                        return;
                    }
                    rng::Random random(rng::mix_seed(
                        sgns.seed ^ detail::kPairStreamTag, pair.stream));
                    sgns_update_pair(model, pair.context, pair.center,
                                     negatives, sgns.negatives, alpha,
                                     ops, random, ranks[rank]);
                },
                {.num_threads = sgns.num_threads, .grain = 8});

            pairs_trained += batch_pairs.size();
            batch_begin = batch_end;
        }

        // Divergence screen (matches train_sgns): stop with context
        // instead of emitting a poisoned embedding.
        if (!model.all_finite()) {
            util::fatal(util::strcat(
                "train_sgns_batched: non-finite model weights after "
                "epoch ", epoch + 1, " of ", sgns.epochs,
                " — training diverged (alpha = ", sgns.alpha, ")"));
        }
    }

    const double seconds = timer.seconds();
    obs::Registry& registry = obs::Registry::global();
    registry.counter("sgns.pairs").add(pairs_trained);
    registry.counter("sgns.tokens").add(tokens_done);
    registry.counter("sgns.epochs").add(sgns.epochs);
    registry.gauge("sgns.alpha")
        .set(static_cast<double>(sgns.alpha));
    registry.gauge("sgns.pairs_per_second")
        .set(seconds > 0.0
                 ? static_cast<double>(pairs_trained) / seconds
                 : 0.0);

    const obs::PerfSample perf = perf_scopes.close();
    for (const auto& [key, value] : obs::perf_span_args(perf)) {
        span.arg(key, value);
    }

    if (stats != nullptr) {
        stats->pairs_trained = pairs_trained;
        stats->tokens_processed = tokens_done;
        stats->seconds = seconds;
    }
    return model.to_embedding(vocab, num_nodes);
}

} // namespace tgl::embed
