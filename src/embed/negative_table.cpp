#include "embed/negative_table.hpp"

#include "util/error.hpp"

#include <cmath>

namespace tgl::embed {

namespace {

/// Shared table-materialization tail of every constructor.
void
build_table(const std::vector<double>& weights, NegativeTableKind kind,
            std::size_t array_size, rng::AliasTable& alias,
            std::vector<WordId>& array)
{
    if (weights.empty()) {
        util::fatal("NegativeTable: empty weight vector");
    }
    double total = 0.0;
    for (const double w : weights) {
        total += w;
    }
    if (!(total > 0.0)) {
        util::fatal("NegativeTable: all sampling weights are zero");
    }

    if (kind == NegativeTableKind::kAlias) {
        alias = rng::AliasTable(weights);
        return;
    }

    if (array_size < weights.size()) {
        util::fatal("NegativeTable: array_size smaller than vocabulary");
    }
    // word2vec's InitUnigramTable: fill the array proportionally,
    // guaranteeing the cumulative rounding gives every word with
    // positive weight a chance. Unlike the reference implementation,
    // zero-weight words are skipped outright: InitUnigramTable writes
    // the current word before advancing, which hands every zero-weight
    // word one sampleable slot — so zero-count words could be drawn as
    // negatives and the array law disagreed with the alias law (which
    // assigns them probability exactly 0).
    array.resize(array_size);
    WordId word = 0;
    while (!(weights[word] > 0.0)) {
        ++word; // total > 0 guarantees a positive weight exists
    }
    double cumulative = weights[word] / total;
    for (std::size_t i = 0; i < array_size; ++i) {
        array[i] = word;
        const double position =
            static_cast<double>(i + 1) / static_cast<double>(array_size);
        if (position > cumulative) {
            WordId next = word + 1;
            while (next < weights.size() && !(weights[next] > 0.0)) {
                ++next;
            }
            if (next < weights.size()) {
                word = next;
                cumulative += weights[word] / total;
            }
        }
    }
}

std::vector<double>
unigram_weights_from_counts(const std::vector<std::uint64_t>& counts)
{
    std::vector<double> weights(counts.size());
    for (std::size_t w = 0; w < counts.size(); ++w) {
        weights[w] =
            counts[w] == 0
                ? 0.0
                : std::pow(static_cast<double>(counts[w]), 0.75);
    }
    return weights;
}

} // namespace

NegativeTable::NegativeTable(const Vocab& vocab, NegativeTableKind kind,
                             std::size_t array_size)
    : kind_(kind)
{
    if (vocab.size() == 0) {
        util::fatal("NegativeTable: empty vocabulary");
    }
    std::vector<double> weights(vocab.size());
    for (WordId w = 0; w < vocab.size(); ++w) {
        weights[w] = std::pow(static_cast<double>(vocab.count(w)), 0.75);
    }
    build_table(weights, kind_, array_size, alias_, array_);
}

NegativeTable::NegativeTable(const std::vector<std::uint64_t>& counts,
                             NegativeTableKind kind, std::size_t array_size)
    : kind_(kind)
{
    build_table(unigram_weights_from_counts(counts), kind_, array_size,
                alias_, array_);
}

double
NegativeTable::probability(WordId w) const
{
    if (kind_ == NegativeTableKind::kAlias) {
        return alias_.outcome_probability(w);
    }
    std::size_t hits = 0;
    for (WordId entry : array_) {
        if (entry == w) {
            ++hits;
        }
    }
    return static_cast<double>(hits) / static_cast<double>(array_.size());
}

} // namespace tgl::embed
