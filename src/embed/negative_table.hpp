/// @file
/// Negative-sampling distribution: unigram frequency raised to 3/4,
/// the standard word2vec choice. Two implementations:
///  * kAlias — exact Walker alias table, O(1) per draw (default);
///  * kArray — the original word2vec quantized array table, kept for
///    fidelity to the reference implementation and for the sampling
///    ablation bench (it trades memory for a slightly cheaper draw).
#pragma once

#include "embed/vocab.hpp"
#include "rng/alias_table.hpp"

#include <cstdint>
#include <vector>

namespace tgl::embed {

/// How the negative table is materialized.
enum class NegativeTableKind { kAlias, kArray };

/// Draws negative words ~ count^0.75.
class NegativeTable
{
  public:
    NegativeTable() = default;

    /// Build from a vocabulary.
    /// @param array_size quantization size for kArray (word2vec's 1e8
    ///        default scaled down; ignored for kAlias)
    explicit NegativeTable(const Vocab& vocab,
                           NegativeTableKind kind = NegativeTableKind::kAlias,
                           std::size_t array_size = 1 << 22);

    /// Build from raw occurrence counts indexed by word id (count^0.75
    /// weighting, like the vocab constructor), for callers that count
    /// tokens without materializing a Vocab. Words with zero count get
    /// zero probability; at least one count must be positive.
    explicit NegativeTable(const std::vector<std::uint64_t>& counts,
                           NegativeTableKind kind = NegativeTableKind::kAlias,
                           std::size_t array_size = 1 << 22);

    /// Draw one negative word.
    WordId
    sample(rng::Random& random) const
    {
        if (kind_ == NegativeTableKind::kAlias) {
            return alias_.sample(random);
        }
        return array_[static_cast<std::size_t>(
            random.next_index(array_.size()))];
    }

    NegativeTableKind kind() const { return kind_; }

    /// Exact (alias) or quantized (array) probability of word w.
    double probability(WordId w) const;

  private:
    NegativeTableKind kind_ = NegativeTableKind::kAlias;
    rng::AliasTable alias_;
    std::vector<WordId> array_;
};

} // namespace tgl::embed
