/// Tests for the SGNS kernel layer: the SigmoidTable out-of-bounds
/// regression, the simd kernels against the scalar reference loops,
/// the bitwise update_pair battery, backend parsing/resolution, the
/// batched per-pair RNG stream derivation, and the scalar-vs-simd
/// training equivalence battery (backends agree in law —
/// link-prediction-grade separation — not bytes).
#include "embed/kernels.hpp"

#include "embed/batched_trainer.hpp"
#include "embed/sigmoid_table.hpp"
#include "embed/trainer.hpp"
#include "util/error.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <numeric>
#include <set>
#include <string_view>
#include <vector>

namespace tgl::embed {
namespace {

constexpr graph::NodeId kNumNodes = 20;

/// Draw-count scale factor for the nightly high-sample rerun:
/// TGL_EQUIV_DRAWS=10 multiplies every statistical sample size by 10.
int
equiv_scale()
{
    const char* env = std::getenv("TGL_EQUIV_DRAWS");
    if (env == nullptr) {
        return 1;
    }
    const long mult = std::strtol(env, nullptr, 10);
    return mult > 1 ? static_cast<int>(mult) : 1;
}

/// Corpus with two disjoint "communities" (0-9 and 10-19): sentences
/// only ever mix nodes within one community.
walk::Corpus
two_community_corpus(std::uint64_t seed, std::size_t sentences = 800)
{
    rng::Random random(seed);
    walk::Corpus corpus;
    std::vector<graph::NodeId> sentence;
    for (std::size_t s = 0; s < sentences; ++s) {
        const graph::NodeId base = (s % 2 == 0) ? 0 : 10;
        sentence.clear();
        for (int i = 0; i < 6; ++i) {
            sentence.push_back(
                base + static_cast<graph::NodeId>(random.next_index(10)));
        }
        corpus.add_walk(sentence);
    }
    return corpus;
}

/// Mean intra-community minus inter-community cosine similarity; a
/// well-trained embedding gives a clearly positive margin.
double
separation_margin(const Embedding& embedding)
{
    double intra = 0.0, inter = 0.0;
    int intra_count = 0, inter_count = 0;
    for (graph::NodeId u = 0; u < kNumNodes; ++u) {
        for (graph::NodeId v = u + 1; v < kNumNodes; ++v) {
            const bool same = (u < 10) == (v < 10);
            const double cos = embedding.cosine(u, v);
            if (same) {
                intra += cos;
                ++intra_count;
            } else {
                inter += cos;
                ++inter_count;
            }
        }
    }
    return intra / intra_count - inter / inter_count;
}

/// Every trained coordinate must be finite — NaN/inf poisoning is what
/// the saturation law exists to prevent.
bool
all_finite(const Embedding& embedding)
{
    for (float v : embedding.data()) {
        if (!std::isfinite(v)) {
            return false;
        }
    }
    return true;
}

SgnsConfig
fast_config(kernels::SgnsBackend backend)
{
    SgnsConfig config;
    config.dim = 8;
    config.window = 3;
    config.negatives = 4;
    config.epochs = 8;
    config.seed = 5;
    config.num_threads = 2;
    config.backend = backend;
    return config;
}

// ---------------------------------------------------------------------
// Bugfix 1 regression: SigmoidTable out-of-bounds read at the +6 edge.
// For x just below kMaxExp, the f32 sum (x + 6.0f) rounds up to exactly
// 12.0f and the classic word2vec index expression lands one past the
// table. Pre-fix (no clamp in index_for) this test reads values_[1024]
// and fails under AddressSanitizer.

TEST(SigmoidTable, NoOutOfBoundsReadJustInsideTheSaturationEdges)
{
    const SigmoidTable& table = SigmoidTable::instance();
    // Hammer a run of representable floats approaching each edge from
    // inside; every one must hit a valid slot and stay in (0, 1).
    float x = std::nextafter(SigmoidTable::kMaxExp, 0.0f);
    for (int i = 0; i < 64; ++i) {
        ASSERT_LT(SigmoidTable::index_for(x),
                  static_cast<std::size_t>(SigmoidTable::kTableSize));
        const float y = table(x);
        EXPECT_GT(y, 0.5f);
        EXPECT_LE(y, 1.0f);
        x = std::nextafter(x, 0.0f);
    }
    x = std::nextafter(-SigmoidTable::kMaxExp, 0.0f);
    for (int i = 0; i < 64; ++i) {
        ASSERT_LT(SigmoidTable::index_for(x),
                  static_cast<std::size_t>(SigmoidTable::kTableSize));
        const float y = table(x);
        EXPECT_GE(y, 0.0f);
        EXPECT_LT(y, 0.5f);
        x = std::nextafter(x, 0.0f);
    }
}

TEST(SigmoidTable, SaturatesSymmetricallyAtExactlySix)
{
    const SigmoidTable& table = SigmoidTable::instance();
    EXPECT_EQ(table(SigmoidTable::kMaxExp), 1.0f);
    EXPECT_EQ(table(-SigmoidTable::kMaxExp), 0.0f);
    EXPECT_EQ(table(100.0f), 1.0f);
    EXPECT_EQ(table(-100.0f), 0.0f);
    EXPECT_EQ(table(std::numeric_limits<float>::infinity()), 1.0f);
    EXPECT_EQ(table(-std::numeric_limits<float>::infinity()), 0.0f);
}

TEST(SigmoidTable, NanSaturatesInsteadOfIndexing)
{
    // Casting NaN to int is UB; the table must route NaN through the
    // saturation branch (a diverged model yields garbage loss, not an
    // out-of-bounds read).
    const SigmoidTable& table = SigmoidTable::instance();
    EXPECT_EQ(table(std::numeric_limits<float>::quiet_NaN()), 1.0f);
}

TEST(SigmoidTable, MatchesExactSigmoidInsideTheTable)
{
    const SigmoidTable& table = SigmoidTable::instance();
    for (float x = -5.9f; x < 5.9f; x += 0.37f) {
        const float expected = 1.0f / (1.0f + std::exp(-x));
        EXPECT_NEAR(table(x), expected, 0.01f) << "x = " << x;
    }
}

// ---------------------------------------------------------------------
// Kernel-level agreement: the simd dot/axpy/sigmoid_batch kernels
// against the scalar reference ops, across dims that exercise full
// vectors, tails, and sub-vector sizes.

std::vector<float>
random_row(rng::Random& random, unsigned dim)
{
    std::vector<float> row(dim);
    for (float& v : row) {
        v = static_cast<float>(random.next_double()) * 2.0f - 1.0f;
    }
    return row;
}

TEST(SgnsKernels, DotMatchesScalarReference)
{
    const auto& scalar = kernels::scalar_sgns_ops();
    const auto& simd = kernels::simd_sgns_ops();
    rng::Random random(17);
    for (unsigned dim : {1u, 3u, 7u, 8u, 9u, 16u, 31u, 32u, 128u, 131u}) {
        const auto a = random_row(random, dim);
        const auto b = random_row(random, dim);
        const float reference = scalar.dot(a.data(), b.data(), dim);
        const float vectorized = simd.dot(a.data(), b.data(), dim);
        // The simd reduction reassociates; dim * eps covers it easily.
        EXPECT_NEAR(vectorized, reference, 1e-4f * dim) << "dim " << dim;
    }
}

TEST(SgnsKernels, AxpyMatchesScalarReference)
{
    const auto& scalar = kernels::scalar_sgns_ops();
    const auto& simd = kernels::simd_sgns_ops();
    rng::Random random(19);
    for (unsigned dim : {1u, 5u, 8u, 13u, 32u, 128u, 131u}) {
        const auto x = random_row(random, dim);
        auto y_scalar = random_row(random, dim);
        auto y_simd = y_scalar;
        scalar.axpy(0.3f, x.data(), y_scalar.data(), dim);
        simd.axpy(0.3f, x.data(), y_simd.data(), dim);
        for (unsigned i = 0; i < dim; ++i) {
            // No reassociation in axpy: fused-multiply-add is the only
            // permitted difference.
            EXPECT_NEAR(y_simd[i], y_scalar[i], 1e-6f)
                << "dim " << dim << " lane " << i;
        }
    }
}

TEST(SgnsKernels, SigmoidBatchMatchesTableExactlyIncludingSpecials)
{
    const SigmoidTable& table = SigmoidTable::instance();
    const auto& simd = kernels::simd_sgns_ops();
    std::vector<float> inputs = {
        0.0f,
        1.5f,
        -2.25f,
        SigmoidTable::kMaxExp,
        -SigmoidTable::kMaxExp,
        std::nextafter(SigmoidTable::kMaxExp, 0.0f),
        std::nextafter(-SigmoidTable::kMaxExp, 0.0f),
        100.0f,
        -100.0f,
        std::numeric_limits<float>::infinity(),
        -std::numeric_limits<float>::infinity(),
        std::numeric_limits<float>::quiet_NaN(),
        5.999999f,
        -5.999999f,
    };
    rng::Random random(23);
    for (int i = 0; i < 200; ++i) {
        inputs.push_back(
            static_cast<float>(random.next_double()) * 16.0f - 8.0f);
    }
    std::vector<float> out(inputs.size());
    simd.sigmoid_batch(inputs.data(), out.data(), inputs.size());
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        // Exact: both sides read the same LUT under the same clamped
        // saturation law (the gather must not differ from the scalar
        // path even at the edges).
        EXPECT_EQ(out[i], table(inputs[i])) << "x = " << inputs[i];
    }
}

// ---------------------------------------------------------------------
// update_pair battery: every backend's whole-pair op must equal, bit
// for bit, the pair step composed from that backend's own dot,
// sigmoid_batch and axpy in the historic order. The scalar backends
// score one target at a time; simd scores chunks of 8 before updating
// them. Dims cover the simd register path (d = 8), its chunked
// fallback, and sub-vector rows.

/// The historic pair step: gradient zeroed, then per chunk of
/// @p chunk targets all scores, one sigmoid_batch, and the updates in
/// target order; the context row takes the gradient last.
void
composed_update_pair(const kernels::SgnsBackendOps& ops, std::size_t chunk,
                     float* context, float* const* rows, std::size_t count,
                     unsigned dim, float alpha)
{
    constexpr std::size_t kMaxChunk = 8;
    std::vector<float> gradient(dim, 0.0f);
    for (std::size_t begin = 0; begin < count; begin += chunk) {
        const std::size_t n = std::min(chunk, count - begin);
        float scores[kMaxChunk] = {};
        float sigmoids[kMaxChunk];
        for (std::size_t t = 0; t < n; ++t) {
            scores[t] = ops.dot(context, rows[begin + t], dim);
        }
        ops.sigmoid_batch(scores, sigmoids, kMaxChunk);
        for (std::size_t t = 0; t < n; ++t) {
            const float label = begin + t == 0 ? 1.0f : 0.0f;
            const float g = (label - sigmoids[t]) * alpha;
            ops.axpy(g, rows[begin + t], gradient.data(), dim);
            ops.axpy(g, context, rows[begin + t], dim);
        }
    }
    ops.axpy(1.0f, gradient.data(), context, dim);
}

/// A context row plus distinct target rows; `slots` maps each target
/// position to a row, so a slot listed twice is a duplicated negative.
struct PairFixture
{
    std::vector<float> context;
    std::vector<std::vector<float>> rows;

    /// Run @p step on the rows named by @p slots; returns the context
    /// followed by every row, flattened.
    template <typename Step>
    std::vector<float>
    run(const std::vector<std::size_t>& slots, Step&& step) const
    {
        PairFixture copy = *this;
        std::vector<float*> targets;
        for (std::size_t slot : slots) {
            targets.push_back(copy.rows[slot].data());
        }
        step(copy.context.data(), targets.data(), targets.size());
        std::vector<float> flat = copy.context;
        for (const auto& row : copy.rows) {
            flat.insert(flat.end(), row.begin(), row.end());
        }
        return flat;
    }
};

PairFixture
pair_fixture(rng::Random& random, unsigned dim, std::size_t rows)
{
    // Scaled so dot products mostly land inside the sigmoid table.
    const float scale = 2.0f / std::sqrt(static_cast<float>(dim));
    const auto row = [&] {
        std::vector<float> values = random_row(random, dim);
        for (float& v : values) {
            v *= scale;
        }
        return values;
    };
    PairFixture fixture;
    fixture.context = row();
    for (std::size_t r = 0; r < rows; ++r) {
        fixture.rows.push_back(row());
    }
    return fixture;
}

/// update_pair vs the composed reference on @p ops, bitwise.
void
expect_update_pair_bit_exact(const kernels::SgnsBackendOps& ops,
                             const PairFixture& fixture,
                             const std::vector<std::size_t>& slots,
                             unsigned dim)
{
    const std::size_t chunk = std::string_view(ops.name) == "simd" ? 8 : 1;
    constexpr float kAlpha = 0.05f;
    const auto fused = fixture.run(
        slots, [&](float* context, float* const* rows, std::size_t count) {
            std::vector<float> scratch(dim);
            ops.update_pair(context, rows, count, dim, kAlpha,
                            scratch.data());
        });
    const auto composed = fixture.run(
        slots, [&](float* context, float* const* rows, std::size_t count) {
            composed_update_pair(ops, chunk, context, rows, count, dim,
                                 kAlpha);
        });
    ASSERT_EQ(fused.size(), composed.size());
    EXPECT_EQ(std::memcmp(fused.data(), composed.data(),
                          fused.size() * sizeof(float)),
              0)
        << ops.name << " dim " << dim << " targets " << slots.size();
}

const kernels::SgnsBackendOps* const kAllBackends[] = {
    &kernels::scalar_sgns_ops(),
    &kernels::modeled_scalar_sgns_ops(),
    &kernels::simd_sgns_ops(),
};

TEST(SgnsKernels, UpdatePairMatchesComposedOpsBitForBit)
{
    rng::Random random(29);
    for (unsigned dim : {1u, 7u, 8u, 9u, 16u, 32u, 128u}) {
        for (std::size_t count : {1u, 6u, 8u, 9u, 17u}) {
            const PairFixture fixture = pair_fixture(random, dim, count);
            std::vector<std::size_t> slots(count);
            std::iota(slots.begin(), slots.end(), std::size_t{0});
            for (const kernels::SgnsBackendOps* ops : kAllBackends) {
                expect_update_pair_bit_exact(*ops, fixture, slots, dim);
            }
        }
    }
}

TEST(SgnsKernels, UpdatePairDuplicatedNegativeMatchesComposedOps)
{
    // Row 2 is drawn twice inside the first chunk of 8 and row 3 once
    // in each chunk: the second copy must see the first copy's update
    // exactly as the composed ops do.
    const std::vector<std::size_t> slots = {0, 1, 2, 3, 2, 4, 5, 6, 3, 7};
    rng::Random random(31);
    for (unsigned dim : {7u, 8u, 16u, 32u, 128u}) {
        const PairFixture fixture = pair_fixture(random, dim, 8);
        for (const kernels::SgnsBackendOps* ops : kAllBackends) {
            expect_update_pair_bit_exact(*ops, fixture, slots, dim);
        }
    }
}

// ---------------------------------------------------------------------
// Backend selection plumbing.

TEST(SgnsKernels, ParseBackendRoundTrips)
{
    using kernels::SgnsBackend;
    EXPECT_EQ(kernels::parse_sgns_backend("auto"), SgnsBackend::kAuto);
    EXPECT_EQ(kernels::parse_sgns_backend("scalar"), SgnsBackend::kScalar);
    EXPECT_EQ(kernels::parse_sgns_backend("simd"), SgnsBackend::kSimd);
    EXPECT_FALSE(kernels::parse_sgns_backend("gpu").has_value());
    EXPECT_FALSE(kernels::parse_sgns_backend("").has_value());
    EXPECT_STREQ(kernels::sgns_backend_name(SgnsBackend::kAuto), "auto");
    EXPECT_STREQ(kernels::sgns_backend_name(SgnsBackend::kScalar),
                 "scalar");
    EXPECT_STREQ(kernels::sgns_backend_name(SgnsBackend::kSimd), "simd");
}

TEST(SgnsKernels, ResolutionHonorsVectorizedAndBackend)
{
    SgnsConfig config;
    config.vectorized = false;
    EXPECT_STREQ(sgns_kernel_ops(config).name, "scalar-modeled");

    config.vectorized = true;
    config.backend = kernels::SgnsBackend::kScalar;
    EXPECT_STREQ(sgns_kernel_ops(config).name, "scalar");

    config.backend = kernels::SgnsBackend::kSimd;
    EXPECT_STREQ(sgns_kernel_ops(config).name, "simd");

    config.backend = kernels::SgnsBackend::kAuto;
    const char* resolved = sgns_kernel_ops(config).name;
    if (std::string_view(kernels::simd_sgns_isa()) == "scalar") {
        EXPECT_STREQ(resolved, "scalar");
    } else {
        EXPECT_STREQ(resolved, "simd");
    }
}

TEST(SgnsKernels, SimdBackendRequiresVectorizedModel)
{
    SgnsConfig config = fast_config(kernels::SgnsBackend::kSimd);
    config.vectorized = false;
    EXPECT_THROW(train_sgns(two_community_corpus(3), kNumNodes, config),
                 util::Error);
}

// ---------------------------------------------------------------------
// Bugfix 3 regression: per-pair RNG streams in the batched trainer.
// The old derivation packed `(epoch * num_sentences + s) << 8 |
// (pos & 0xff)` and added the in-batch pair index: the `& 0xff`
// wrapped on walks >= 256 tokens and the addition aliased adjacent
// pairs. The fixed scheme hands every pair one value of a global
// monotone counter, so streams are unique across positions, batches,
// and epochs by construction — asserted here on a corpus built to
// trigger both historic collision sources.

TEST(SgnsKernels, BatchPairStreamsUniqueAcrossLongWalksBatchesAndEpochs)
{
    walk::Corpus corpus;
    // One 300-token walk (wraps the historic `pos & 0xff`) plus a
    // handful of short walks to span several batches.
    std::vector<graph::NodeId> long_walk;
    for (int i = 0; i < 300; ++i) {
        long_walk.push_back(static_cast<graph::NodeId>(i % kNumNodes));
    }
    corpus.add_walk(long_walk);
    const std::vector<graph::NodeId> short_walk = {0, 1, 2, 3, 4, 5};
    for (int s = 0; s < 6; ++s) {
        corpus.add_walk(short_walk);
    }
    const Vocab vocab(corpus);

    SgnsConfig sgns;
    sgns.window = 3;
    sgns.seed = 9;

    std::uint64_t pair_counter = 0;
    std::vector<WordId> words;
    std::vector<detail::BatchPair> pairs;
    std::set<std::uint64_t> streams;
    std::uint64_t total_pairs = 0;
    for (unsigned epoch = 0; epoch < 2; ++epoch) {
        // Batch size 2: the long walk and a short one, then the rest.
        for (std::size_t begin = 0; begin < corpus.num_walks();
             begin += 2) {
            const std::size_t end =
                std::min(begin + 2, corpus.num_walks());
            detail::assemble_batch_pairs(corpus, vocab, sgns, epoch,
                                         begin, end, pair_counter, words,
                                         pairs);
            for (const detail::BatchPair& pair : pairs) {
                EXPECT_TRUE(streams.insert(pair.stream).second)
                    << "duplicate stream " << pair.stream << " in epoch "
                    << epoch;
            }
            total_pairs += pairs.size();
        }
    }
    EXPECT_EQ(pair_counter, total_pairs);
    EXPECT_EQ(streams.size(), total_pairs);
    EXPECT_GT(total_pairs, 1000u); // the long walk alone yields > 1k
}

// ---------------------------------------------------------------------
// Equivalence battery (`ctest -L equivalence`): scalar and simd
// backends must agree in law — both train embeddings that separate the
// two communities to link-prediction-grade margins and stay finite.
// TGL_EQUIV_DRAWS scales the number of independent seeds.
//
// Each seed trains at fast_config's two workers and again at one; the
// one-worker run compares the backends where the result does not
// depend on thread timing.

/// Trains every seed's corpus with both backends through @p train, at
/// two workers and at one.
template <typename Train>
void
expect_backends_agree(Train train)
{
    const int seeds = 2 * equiv_scale();
    for (int seed = 1; seed <= seeds; ++seed) {
        const walk::Corpus corpus =
            two_community_corpus(static_cast<std::uint64_t>(seed));
        for (const unsigned threads : {2u, 1u}) {
            SgnsConfig config = fast_config(kernels::SgnsBackend::kScalar);
            config.num_threads = threads;
            const Embedding scalar = train(corpus, config);
            config.backend = kernels::SgnsBackend::kSimd;
            const Embedding simd = train(corpus, config);
            SCOPED_TRACE(::testing::Message()
                         << "seed " << seed << ", " << threads
                         << " workers");
            EXPECT_TRUE(all_finite(scalar));
            EXPECT_TRUE(all_finite(simd));
            const double scalar_margin = separation_margin(scalar);
            const double simd_margin = separation_margin(simd);
            EXPECT_GT(scalar_margin, 0.5);
            EXPECT_GT(simd_margin, 0.5);
            EXPECT_NEAR(scalar_margin, simd_margin, 0.35);
        }
    }
}

TEST(SgnsKernels, EquivalenceHogwildScalarVsSimd)
{
    expect_backends_agree(
        [](const walk::Corpus& corpus, const SgnsConfig& config) {
            return train_sgns(corpus, kNumNodes, config);
        });
}

TEST(SgnsKernels, EquivalenceBatchedScalarVsSimd)
{
    expect_backends_agree(
        [](const walk::Corpus& corpus, const SgnsConfig& config) {
            BatchedSgnsConfig batched;
            batched.batch_size = 64;
            batched.sgns = config;
            return train_sgns_batched(corpus, kNumNodes, batched);
        });
}

} // namespace
} // namespace tgl::embed
