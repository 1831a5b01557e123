/// @file
/// Vectorized SGNS kernels over util/simd.hpp's f32 half.
///
/// This is the only TU in the library that sees the SGNS vector
/// intrinsics: under -DTGL_SIMD=auto|avx2 CMake compiles exactly this
/// file and nn/link_kernel.cpp with -mavx2, so no other object file
/// ever contains AVX2 instructions (see src/CMakeLists.txt).
///
/// The sigmoid kernel reproduces SigmoidTable's law exactly, in this
/// order: gather values_[clamped index], force x <= -6 lanes to 0,
/// then force !(x < 6) lanes (including NaN) to 1. The index clamp
/// mirrors SigmoidTable::index_for — see the note there about
/// (x + 6.0f) rounding to 12.0f just below the saturation point.
#include "embed/kernels.hpp"

#include "embed/sigmoid_table.hpp"
#include "util/simd.hpp"

#include <algorithm>

namespace tgl::embed::kernels {

namespace {

namespace simd = util::simd;

float
dot_f32(const float* a, const float* b, unsigned dim)
{
    simd::VFloat acc = simd::fsplat(0.0f);
    unsigned i = 0;
    for (; i + simd::kF32Lanes <= dim; i += simd::kF32Lanes) {
        acc = simd::fadd(acc,
                         simd::fmul(simd::fload(a + i), simd::fload(b + i)));
    }
    float sum = simd::fhsum(acc);
    for (; i < dim; ++i) {
        sum += a[i] * b[i];
    }
    return sum;
}

void
axpy_f32(float g, const float* x, float* y, unsigned dim)
{
    const simd::VFloat vg = simd::fsplat(g);
    unsigned i = 0;
    for (; i + simd::kF32Lanes <= dim; i += simd::kF32Lanes) {
        simd::fstore(y + i, simd::fadd(simd::fload(y + i),
                                       simd::fmul(vg, simd::fload(x + i))));
    }
    for (; i < dim; ++i) {
        y[i] += g * x[i];
    }
}

/// SigmoidTable's law on one vector of scores (see the file comment).
simd::VFloat
sigmoid_vector(const float* lut, simd::VFloat v)
{
    const simd::VFloat max_exp = simd::fsplat(SigmoidTable::kMaxExp);
    const simd::VFloat zero = simd::fsplat(0.0f);
    // Clamp the slot into [0, kTableSize - 1]. fmax turns NaN into 0
    // on AVX2/scalar; on NEON the NaN survives but the gather's
    // float->int conversion maps it to 0 — either way no lane indexes
    // out of bounds, and the saturation blends below overwrite the
    // garbage value anyway.
    simd::VFloat slot = simd::fmax(
        simd::fmul(simd::fadd(v, max_exp),
                   simd::fsplat(SigmoidTable::kTableSize /
                                (2.0f * SigmoidTable::kMaxExp))),
        zero);
    slot = simd::fmin(
        slot, simd::fsplat(static_cast<float>(SigmoidTable::kTableSize - 1)));
    simd::VFloat result = simd::fgather(lut, slot);
    result = simd::fselect(
        simd::fle(v, simd::fsplat(-SigmoidTable::kMaxExp)), zero, result);
    return simd::fselect(simd::fnlt(v, max_exp), simd::fsplat(1.0f),
                         result);
}

void
sigmoid_f32(const float* x, float* out, std::size_t n)
{
    const SigmoidTable& table = SigmoidTable::instance();
    std::size_t i = 0;
    for (; i + simd::kF32Lanes <= n; i += simd::kF32Lanes) {
        simd::fstore(out + i,
                     sigmoid_vector(table.data(), simd::fload(x + i)));
    }
    for (; i < n; ++i) {
        out[i] = table(x[i]);
    }
}

/// Targets scored together before any of them is updated: one AVX2
/// vector of scores, two NEON vectors. The same 8 on every ISA, so a
/// negative drawn twice in one chunk meets the same stale score
/// everywhere.
constexpr std::size_t kChunk = 8;
static_assert(kChunk % simd::kF32Lanes == 0);

/// update_pair through memory, for any dim: per chunk, the dots, one
/// batched sigmoid over the zero-padded chunk, then the gradient axpys
/// in target order; the gradient accumulates in @p scratch.
void
update_pair_chunked(float* context_row, float* const* target_rows,
                    std::size_t count, unsigned dim, float alpha,
                    float* scratch)
{
    std::fill_n(scratch, dim, 0.0f);
    for (std::size_t begin = 0; begin < count; begin += kChunk) {
        const std::size_t n = std::min(kChunk, count - begin);
        float* const* rows = target_rows + begin;
        float scores[kChunk] = {};
        float sigmoids[kChunk];
        for (std::size_t t = 0; t < n; ++t) {
            scores[t] = dot_f32(context_row, rows[t], dim);
        }
        sigmoid_f32(scores, sigmoids, kChunk);
        for (std::size_t t = 0; t < n; ++t) {
            const float label = begin + t == 0 ? 1.0f : 0.0f;
            const float gradient = (label - sigmoids[t]) * alpha;
            axpy_f32(gradient, rows[t], scratch, dim);
            axpy_f32(gradient, context_row, rows[t], dim);
        }
    }
    axpy_f32(1.0f, scratch, context_row, dim);
}

/// The row width the register path serves: the paper's d = 8, one
/// AVX2 vector or two NEON vectors. Other dims take the chunked path.
constexpr unsigned kRegisterDim = 8;
static_assert(kRegisterDim % simd::kF32Lanes == 0);

/// update_pair for rows of kRegisterDim floats, with the context row
/// and its gradient held in registers for the whole pair. It performs
/// update_pair_chunked's arithmetic in the same order, so the result
/// is bit-identical: each score is dot_f32's lane-wise sum reduced by
/// fhsum (here transposed across the chunk); the gradient starts at
/// +0 like the zeroed scratch; the final `context += 1 * gradient`
/// drops the exact multiply by 1. Target rows are loaded again for
/// their update, so a negative drawn twice in one chunk sees its first
/// update, as in memory.
void
update_pair_registers(float* context_row, float* const* target_rows,
                      std::size_t count, float alpha)
{
    constexpr std::size_t kLanes = simd::kF32Lanes;
    constexpr std::size_t V = kRegisterDim / kLanes;
    const float* lut = SigmoidTable::instance().data();
    const simd::VFloat zero = simd::fsplat(0.0f);
    const simd::VFloat valpha = simd::fsplat(alpha);
    float first_label[kLanes] = {1.0f};

    simd::VFloat context[V];
    simd::VFloat gradient[V];
    for (std::size_t v = 0; v < V; ++v) {
        context[v] = simd::fload(context_row + v * kLanes);
        gradient[v] = zero;
    }
    for (std::size_t begin = 0; begin < count; begin += kChunk) {
        const std::size_t n = std::min(kChunk, count - begin);
        float* const* rows = target_rows + begin;
        simd::VFloat products[kChunk];
        for (std::size_t t = 0; t < kChunk; ++t) {
            simd::VFloat acc = zero;
            if (t < n) {
                for (std::size_t v = 0; v < V; ++v) {
                    acc = simd::fadd(
                        acc, simd::fmul(context[v],
                                        simd::fload(rows[t] + v * kLanes)));
                }
            }
            products[t] = acc;
        }
        float coefficients[kChunk];
        for (std::size_t g = 0; g < kChunk; g += kLanes) {
            const simd::VFloat labels =
                begin + g == 0 ? simd::fload(first_label) : zero;
            const simd::VFloat sigmoids = sigmoid_vector(
                lut, simd::fhsum_transposed(products + g));
            simd::fstore(coefficients + g,
                         simd::fmul(simd::fsub(labels, sigmoids), valpha));
        }
        for (std::size_t t = 0; t < n; ++t) {
            const simd::VFloat g = simd::fsplat(coefficients[t]);
            for (std::size_t v = 0; v < V; ++v) {
                float* row = rows[t] + v * kLanes;
                const simd::VFloat target = simd::fload(row);
                gradient[v] =
                    simd::fadd(gradient[v], simd::fmul(g, target));
                simd::fstore(row, simd::fadd(target,
                                             simd::fmul(g, context[v])));
            }
        }
    }
    for (std::size_t v = 0; v < V; ++v) {
        float* row = context_row + v * kLanes;
        simd::fstore(row, simd::fadd(simd::fload(row), gradient[v]));
    }
}

void
update_pair_f32(float* context_row, float* const* target_rows,
                std::size_t count, unsigned dim, float alpha,
                float* scratch)
{
    if (dim == kRegisterDim) {
        update_pair_registers(context_row, target_rows, count, alpha);
    } else {
        update_pair_chunked(context_row, target_rows, count, dim, alpha,
                            scratch);
    }
}

} // namespace

std::optional<SgnsBackend>
parse_sgns_backend(std::string_view name)
{
    if (name == "auto") {
        return SgnsBackend::kAuto;
    }
    if (name == "scalar") {
        return SgnsBackend::kScalar;
    }
    if (name == "simd") {
        return SgnsBackend::kSimd;
    }
    return std::nullopt;
}

const char*
sgns_backend_name(SgnsBackend backend)
{
    switch (backend) {
    case SgnsBackend::kScalar:
        return "scalar";
    case SgnsBackend::kSimd:
        return "simd";
    case SgnsBackend::kAuto:
    default:
        return "auto";
    }
}

const SgnsBackendOps&
simd_sgns_ops()
{
    static const SgnsBackendOps ops{
        "simd",   simd::kIsaName, dot_f32,
        axpy_f32, sigmoid_f32,    update_pair_f32,
    };
    return ops;
}

const char*
simd_sgns_isa()
{
    return simd::kIsaName;
}

} // namespace tgl::embed::kernels
