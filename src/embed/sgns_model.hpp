/// @file
/// Shared skip-gram-negative-sampling model state and the single-pair
/// update kernel used by both the Hogwild and the batched trainers.
#pragma once

#include "embed/embedding.hpp"
#include "embed/kernels.hpp"
#include "embed/negative_table.hpp"
#include "embed/sigmoid_table.hpp"
#include "embed/vocab.hpp"
#include "rng/random.hpp"

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace tgl::embed {

/// Hyperparameters of skip-gram with negative sampling. Defaults match
/// the paper's optimal operating point (d = 8, SVII-A) and the word2vec
/// reference implementation's training schedule.
struct SgnsConfig
{
    /// d — embedding dimensionality.
    unsigned dim = 8;
    /// Context window radius; word2vec shrinks it per position.
    unsigned window = 5;
    /// Negative samples per (center, context) pair.
    unsigned negatives = 5;
    /// Passes over the corpus. Walk corpora are orders of magnitude
    /// smaller than the text corpora word2vec's classic 5-epoch default
    /// assumes, so tgl defaults higher; large graphs can lower this.
    unsigned epochs = 12;
    /// Initial learning rate with linear decay to alpha/10^4.
    float alpha = 0.025f;
    /// Drop words with fewer occurrences from the vocabulary.
    std::uint64_t min_count = 1;
    /// Frequent-word subsampling threshold t (0 disables). Node
    /// corpora rarely need it; exposed for the hub-node ablation.
    double subsample = 0.0;
    std::uint64_t seed = 1;
    /// Team size (0 = default threads).
    unsigned num_threads = 0;
    /// Row stride in floats; 0 means tightly packed (= dim). The GPU
    /// study's cache-line padding maps to stride = 16 (one 64B line).
    unsigned row_stride = 0;
    /// Use the vectorizable contiguous inner loops (the CPU analogue of
    /// the paper's Coalesce + Par-red GPU optimizations). When false the
    /// inner loops run strictly scalar, modeling one-thread-per-vector
    /// uncoalesced access.
    bool vectorized = true;
    /// Kernel backend for the inner loops (--sgns-backend): kAuto picks
    /// the simd kernels on vector-capable builds and the scalar
    /// reference loops otherwise; see sgns_kernel_ops(). Ignored (the
    /// modeled-scalar loops run regardless) when vectorized is false,
    /// and validate() rejects the contradictory kSimd + !vectorized.
    kernels::SgnsBackend backend = kernels::SgnsBackend::kAuto;

    /// All configuration problems, empty when the config is usable.
    std::vector<std::string> validate() const;
};

/// Mutable SGNS parameters: input (syn0) and output (syn1neg) matrices
/// in row-major layout with a configurable stride.
class SgnsModel
{
  public:
    SgnsModel(const Vocab& vocab, const SgnsConfig& config);

    /// A model of @p vocab_size rows with word2vec's initialization.
    /// The Vocab constructor delegates here; callers that have no
    /// Vocab size the model directly.
    SgnsModel(std::size_t vocab_size, const SgnsConfig& config);

    unsigned dim() const { return dim_; }
    unsigned stride() const { return stride_; }
    std::size_t vocab_size() const { return vocab_size_; }

    float*
    input_row(WordId w)
    {
        return input_.data() + static_cast<std::size_t>(w) * stride_;
    }

    float*
    output_row(WordId w)
    {
        return output_.data() + static_cast<std::size_t>(w) * stride_;
    }

    const float*
    input_row(WordId w) const
    {
        return input_.data() + static_cast<std::size_t>(w) * stride_;
    }

    /// Copy input vectors back into node-id space (zero rows for nodes
    /// outside the vocabulary).
    Embedding to_embedding(const Vocab& vocab,
                           graph::NodeId num_nodes) const;

    /// True when every parameter is finite — the trainers' per-epoch
    /// divergence screen (a too-large alpha drives Hogwild updates to
    /// inf/NaN long before convergence).
    bool all_finite() const;

  private:
    unsigned dim_;
    unsigned stride_;
    std::size_t vocab_size_;
    std::vector<float> input_;
    std::vector<float> output_;
};

namespace detail {

/// Dot product over dim floats; scalar_only defeats auto-vectorization
/// to model uncoalesced per-element access (see SgnsConfig::vectorized).
inline float
dot(const float* a, const float* b, unsigned dim, bool scalar_only)
{
    float sum = 0.0f;
    if (scalar_only) {
        for (unsigned i = 0; i < dim; ++i) {
            sum += a[i] * b[i];
            asm volatile("" : "+x"(sum)); // keep strictly sequential
        }
    } else {
        for (unsigned i = 0; i < dim; ++i) {
            sum += a[i] * b[i];
        }
    }
    return sum;
}

/// y += g * x over dim floats.
inline void
axpy(float g, const float* x, float* y, unsigned dim, bool scalar_only)
{
    if (scalar_only) {
        for (unsigned i = 0; i < dim; ++i) {
            y[i] += g * x[i];
            asm volatile("" ::: "memory");
        }
    } else {
        for (unsigned i = 0; i < dim; ++i) {
            y[i] += g * x[i];
        }
    }
}

} // namespace detail

/// Resolve a config to its kernel backend: vectorized = false always
/// means the modeled-scalar loops; otherwise kScalar/kSimd select
/// directly and kAuto takes the simd kernels unless the build is
/// scalar-only (where the 8-lane emulation would just be slower plain
/// loops). Logs the choice once per process and bumps the
/// sgns.backend.<name> counter per resolution.
const kernels::SgnsBackendOps& sgns_kernel_ops(const SgnsConfig& config);

/// One worker's buffers for sgns_update_pair: the target rows of the
/// pair in flight and the context-gradient row. Both start empty and
/// the first pair sizes them, so they are allocated by the worker that
/// writes them (see util/rank_slots.hpp).
struct SgnsPairScratch
{
    std::vector<float*> targets;
    std::vector<float> gradient;
};

/// One SGNS update: align input[context] with output[center], away
/// from output[negatives]. Draws the negatives (skipping any equal to
/// @p center) and hands the whole pair to @p ops.update_pair, which
/// follows the word2vec reference kernel. Writes are unsynchronized —
/// Hogwild semantics.
void sgns_update_pair(SgnsModel& model, WordId context, WordId center,
                      const NegativeTable& negatives, unsigned num_negatives,
                      float alpha, const kernels::SgnsBackendOps& ops,
                      rng::Random& random, SgnsPairScratch& scratch);

/// Variant taking pre-sampled negatives (the shared-negative-sampling
/// GPU optimization: one negative pool drawn per batch and reused by
/// every pair, replacing per-pair table draws with reads of rows that
/// are already cache-hot).
void sgns_update_pair_shared(SgnsModel& model, WordId context,
                             WordId center,
                             std::span<const WordId> shared_negatives,
                             float alpha,
                             const kernels::SgnsBackendOps& ops,
                             SgnsPairScratch& scratch);

} // namespace tgl::embed
