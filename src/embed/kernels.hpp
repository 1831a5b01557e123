/// @file
/// SGNS kernel backends: one interface over the inner loops shared by
/// the Hogwild and batched trainers.
///
/// The paper attributes most of the GPU word2vec speedup to coalesced
/// vector access, parallel reduction, and batched sigmoid evaluation
/// (SV-B). On the CPU those map onto SIMD dot/axpy kernels plus a
/// vectorized sigmoid-LUT gather; this header names that contract so
/// the two trainers share exactly one implementation of the hot loop
/// and a future GPU/ISPC backend can slot in without touching them.
///
/// The hot loop is one op, update_pair: a whole (context, positive,
/// negatives) step. The trainers only draw the targets; everything
/// from the first dot to the context-row write-back happens inside the
/// backend. Three implementations exist today:
///
///   - "scalar"          — the reference `detail::dot/axpy` loops in
///                         sgns_model.cpp, compiled under the default
///                         target ISA (byte-identical to the historic
///                         trainers).
///   - "scalar-modeled"  — the same loops with compiler barriers,
///                         modeling one-thread-per-element uncoalesced
///                         access (SgnsConfig::vectorized = false, the
///                         paper-faithful un-optimized GPU baseline).
///   - "simd"            — kernels.cpp on util/simd.hpp's f32 half; its
///                         ISA string reports which vector backend the
///                         -DTGL_SIMD=auto|avx2|scalar dispatch chose.
///                         It scores 8 targets at a time: the dots, a
///                         sigmoid-LUT gather per vector of scores, then
///                         the updates in target order. At the paper's
///                         d = 8 (one AVX2 vector, two NEON vectors) the
///                         context row and its gradient stay in
///                         registers for the whole pair and the dots
///                         reduce through transposed horizontal sums;
///                         other dims run the same chunk steps through
///                         memory.
///
/// Backends agree *in law, not bytes*: the simd dot reassociates the
/// reduction into vector partial sums, so trained embeddings match in
/// link-prediction accuracy (the `ctest -L equivalence` battery) but
/// not bitwise, and checkpoint fingerprints include the resolved
/// backend name + ISA. Each backend is bit-stable against itself: its
/// update_pair equals a composition of its own dot, sigmoid_batch and
/// axpy (tests/test_embed_kernels.cpp checks this bit for bit).
///
/// This header is intrinsics-free on purpose: the AVX2 instructions
/// live only inside kernels.cpp (the one-ISA-flagged-TU pattern), so
/// including this header never leaks vector code into generic TUs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace tgl::embed::kernels {

/// CLI-selectable backend. kAuto resolves to the simd kernels whenever
/// the build carries real vector lanes and to the scalar reference
/// loops on the scalar-fallback build (where 8-lane emulation would
/// only add overhead).
enum class SgnsBackend : std::uint8_t
{
    kAuto = 0,
    kScalar,
    kSimd,
};

/// Parse a --sgns-backend value ("auto", "scalar", "simd").
std::optional<SgnsBackend> parse_sgns_backend(std::string_view name);

/// Flag spelling of a backend value.
const char* sgns_backend_name(SgnsBackend backend);

/// One SGNS kernel backend. All functions operate on packed rows of
/// `dim` floats; none of them allocate or lock.
struct SgnsBackendOps
{
    /// Stable identity ("scalar", "scalar-modeled", "simd") — mixed
    /// into checkpoint fingerprints.
    const char* name;
    /// Vector ISA the backend was compiled for ("generic" for the
    /// scalar loops, util::simd::kIsaName for the simd kernels).
    const char* isa;
    /// sum(a[i] * b[i]).
    float (*dot)(const float* a, const float* b, unsigned dim);
    /// y[i] += g * x[i].
    void (*axpy)(float g, const float* x, float* y, unsigned dim);
    /// out[i] = sigma(x[i]) with the SigmoidTable saturation law
    /// (x >= 6 -> 1, x <= -6 -> 0, NaN -> 1).
    void (*sigmoid_batch)(const float* x, float* out, std::size_t n);
    /// One whole SGNS pair step over @p count target rows:
    /// target_rows[0] is the positive (label 1), the rest are sampled
    /// negatives (label 0). Per target t in order: gradient = (label -
    /// sigma(dot(context_row, target_rows[t]))) * alpha; the context
    /// gradient accumulates gradient * target_rows[t], read before
    /// target_rows[t] += gradient * context_row. The context row is
    /// updated once, after the last target (word2vec reference
    /// semantics). The simd backend computes a chunk's 8 scores before
    /// its updates, so a negative drawn twice in one chunk scores
    /// against its pre-chunk row both times. @p scratch holds @p dim
    /// floats for backends that keep the gradient in memory.
    void (*update_pair)(float* context_row, float* const* target_rows,
                        std::size_t count, unsigned dim, float alpha,
                        float* scratch);
};

/// The vectorized kernels (kernels.cpp, the ISA-flagged TU). On a
/// scalar build these run util/simd.hpp's emulated 8-lane f32 structs.
const SgnsBackendOps& simd_sgns_ops();

/// Vector ISA the simd kernels were compiled for, without pulling
/// util/simd.hpp into the caller's TU.
const char* simd_sgns_isa();

/// The reference loops (sgns_model.cpp, default target ISA).
const SgnsBackendOps& scalar_sgns_ops();

/// The barriered uncoalesced-access model (SgnsConfig::vectorized =
/// false).
const SgnsBackendOps& modeled_scalar_sgns_ops();

} // namespace tgl::embed::kernels
