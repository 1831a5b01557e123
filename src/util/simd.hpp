/// @file
/// Portable SIMD shim for the batched walker engine (f64), the SGNS
/// kernel layer and the link-predictor kernel (f32).
///
/// Exactly one backend is selected at compile time:
///
///   - AVX2  (x86-64 with __AVX2__): 4 f64 / 8 f32 lanes, i32 gathers
///   - NEON  (aarch64 with __ARM_NEON): 2 f64 / 4 f32 lanes, emulated
///     gathers
///   - scalar fallback everywhere else: 4 f64 / 8 f32 lane arrays +
///     plain loops
///
/// Defining TGL_SIMD_FORCE_SCALAR forces the scalar backend even when
/// vector intrinsics are available — the CI scalar-fallback job builds
/// with it so the portable path stays exercised.
///
/// Design constraints the batch kernel relies on:
///
///   - All *index* arithmetic happens in doubles. Every index the
///     kernel manipulates is an exact non-negative integer < 2^31
///     (resolve_batch_width refuses larger graphs), and doubles
///     represent integers exactly up to 2^53, so floor/add/sub on
///     indices are exact. This sidesteps AVX2's lack of useful 64-bit
///     integer compares and lets one VDouble type carry both values
///     and positions.
///   - vgather takes its indices as integer-valued doubles and a lane
///     mask; masked-off lanes are NOT dereferenced (their index may be
///     garbage) and receive @p fallback instead. This makes lockstep
///     binary searches safe once some lanes have converged.
///   - Comparison results (VBool) are opaque per-backend masks; they
///     only flow into vselect / vand / vany.
///
/// The f32 half (VFloat, f-prefixed operations) serves the SGNS kernels
/// in embed/kernels.cpp (dot/axpy over embedding rows plus a sigmoid
/// LUT gather) and the link-predictor kernel in nn/link_kernel.cpp
/// (lanes over hidden units). Its gather (fgather) takes *unmasked*
/// integer-valued float indices — the caller clamps them into the table
/// first — and its ordering-sensitive operations pin down NaN behavior:
///
///   - fmax(a, b) returns b when a is NaN on AVX2/scalar (the vmaxps
///     second-operand rule); NEON propagates the NaN instead, which is
///     safe only because NEON's float→int conversion in fgather turns
///     NaN into 0. Either way a NaN index cannot read out of bounds.
///   - fnlt(a, b) is the *unordered* !(a < b): true when a is NaN.
///     The sigmoid kernel uses it to saturate NaN scores to 1 exactly
///     like the scalar SigmoidTable does.
///   - fgt(a, b) is the *ordered* a > b: false when a is NaN. The
///     link-predictor ReLU selects with it, so NaN and -0 map to +0 on
///     every backend exactly like the scalar `v > 0 ? v : 0`.
///
/// fhsum_transposed(v) reduces kF32Lanes vectors at once: lane t of
/// its result is fhsum(v[t]), bit for bit, because it performs the
/// same adds as that backend's fhsum in the same association order.
/// The SGNS pair kernel uses it to reduce a chunk of dot products.
///
/// The shim is deliberately tiny: just the operations the lockstep
/// searches in walk/batch.cpp and the two f32 kernels need, nothing
/// speculative.
#pragma once

#include <cstddef>
#include <cstdint>

#if !defined(TGL_SIMD_FORCE_SCALAR) && defined(__AVX2__)
#define TGL_SIMD_AVX2 1
#include <immintrin.h>
#elif !defined(TGL_SIMD_FORCE_SCALAR) && defined(__aarch64__) && \
    defined(__ARM_NEON)
#define TGL_SIMD_NEON 1
#include <arm_neon.h>
#else
#define TGL_SIMD_SCALAR 1
#include <cmath>
#endif

namespace tgl::util::simd {

#if defined(TGL_SIMD_AVX2)

inline constexpr std::size_t kF64Lanes = 4;
inline constexpr const char* kIsaName = "avx2";

using VDouble = __m256d;
/// Lane mask: all-ones / all-zeros per 64-bit lane, stored as doubles
/// (the natural output of _mm256_cmp_pd and input of blendv/gather).
using VBool = __m256d;

inline VDouble vsplat(double x) { return _mm256_set1_pd(x); }
inline VDouble vload(const double* p) { return _mm256_loadu_pd(p); }
inline void vstore(double* p, VDouble v) { _mm256_storeu_pd(p, v); }
inline VDouble vadd(VDouble a, VDouble b) { return _mm256_add_pd(a, b); }
inline VDouble vsub(VDouble a, VDouble b) { return _mm256_sub_pd(a, b); }
inline VDouble vmul(VDouble a, VDouble b) { return _mm256_mul_pd(a, b); }
inline VDouble vmin(VDouble a, VDouble b) { return _mm256_min_pd(a, b); }
inline VDouble
vfloor(VDouble a)
{
    return _mm256_round_pd(a, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
}
inline VBool vlt(VDouble a, VDouble b)
{
    return _mm256_cmp_pd(a, b, _CMP_LT_OQ);
}
inline VBool vle(VDouble a, VDouble b)
{
    return _mm256_cmp_pd(a, b, _CMP_LE_OQ);
}
inline VBool vgt(VDouble a, VDouble b)
{
    return _mm256_cmp_pd(a, b, _CMP_GT_OQ);
}
inline VBool vand(VBool a, VBool b) { return _mm256_and_pd(a, b); }
inline VDouble
vselect(VBool mask, VDouble a, VDouble b)
{
    // mask ? a : b, lane-wise.
    return _mm256_blendv_pd(b, a, mask);
}
inline bool vany(VBool mask) { return _mm256_movemask_pd(mask) != 0; }

/// base[(int)idx[lane]] for active lanes, @p fallback elsewhere.
/// Masked-off lanes are not dereferenced.
inline VDouble
vgather(const double* base, VDouble idx, VBool active, double fallback)
{
    const __m128i vindex = _mm256_cvttpd_epi32(idx);
    return _mm256_mask_i32gather_pd(vsplat(fallback), base, vindex, active,
                                    /*scale=*/8);
}

inline void
prefetch_read(const void* p)
{
    _mm_prefetch(static_cast<const char*>(p), _MM_HINT_T0);
}

// ---- f32 half (SGNS kernels) ----

inline constexpr std::size_t kF32Lanes = 8;

using VFloat = __m256;
/// f32 lane mask: all-ones / all-zeros per 32-bit lane.
using VFBool = __m256;

inline VFloat fsplat(float x) { return _mm256_set1_ps(x); }
inline VFloat fload(const float* p) { return _mm256_loadu_ps(p); }
inline void fstore(float* p, VFloat v) { _mm256_storeu_ps(p, v); }
inline VFloat fadd(VFloat a, VFloat b) { return _mm256_add_ps(a, b); }
inline VFloat fsub(VFloat a, VFloat b) { return _mm256_sub_ps(a, b); }
inline VFloat fmul(VFloat a, VFloat b) { return _mm256_mul_ps(a, b); }
/// min(a, b); returns b when a is NaN (vminps second-operand rule).
inline VFloat fmin(VFloat a, VFloat b) { return _mm256_min_ps(a, b); }
/// max(a, b); returns b when a is NaN (vmaxps second-operand rule).
inline VFloat fmax(VFloat a, VFloat b) { return _mm256_max_ps(a, b); }
inline VFBool fle(VFloat a, VFloat b)
{
    return _mm256_cmp_ps(a, b, _CMP_LE_OQ);
}
/// Ordered a > b: false when either operand is NaN.
inline VFBool fgt(VFloat a, VFloat b)
{
    return _mm256_cmp_ps(a, b, _CMP_GT_OQ);
}
/// Unordered !(a < b): true when a >= b or either operand is NaN.
inline VFBool fnlt(VFloat a, VFloat b)
{
    return _mm256_cmp_ps(a, b, _CMP_NLT_UQ);
}
inline VFloat
fselect(VFBool mask, VFloat a, VFloat b)
{
    // mask ? a : b, lane-wise.
    return _mm256_blendv_ps(b, a, mask);
}
/// Sum of all 8 lanes.
inline float
fhsum(VFloat v)
{
    const __m128 lo = _mm256_castps256_ps128(v);
    const __m128 hi = _mm256_extractf128_ps(v, 1);
    __m128 sum = _mm_add_ps(lo, hi);
    sum = _mm_add_ps(sum, _mm_movehl_ps(sum, sum));
    sum = _mm_add_ss(sum, _mm_shuffle_ps(sum, sum, 0x1));
    return _mm_cvtss_f32(sum);
}
/// Lane t = fhsum(v[t]) for the 8 vectors v[0..7], bit for bit: each
/// step is one of fhsum's adds, with the same operands in the same
/// order, run for all eight sums at once.
inline VFloat
fhsum_transposed(const VFloat* v)
{
    // lo + hi: 128-bit half 0 of h[k] reduces v[k], half 1 v[k + 4].
    __m256 h[4];
    for (int k = 0; k < 4; ++k) {
        h[k] = _mm256_add_ps(_mm256_permute2f128_ps(v[k], v[k + 4], 0x20),
                             _mm256_permute2f128_ps(v[k], v[k + 4], 0x31));
    }
    // s0 + s2 and s1 + s3, two vectors per 128-bit half.
    const __m256 q01 = _mm256_add_ps(
        _mm256_shuffle_ps(h[0], h[1], _MM_SHUFFLE(1, 0, 1, 0)),
        _mm256_shuffle_ps(h[0], h[1], _MM_SHUFFLE(3, 2, 3, 2)));
    const __m256 q23 = _mm256_add_ps(
        _mm256_shuffle_ps(h[2], h[3], _MM_SHUFFLE(1, 0, 1, 0)),
        _mm256_shuffle_ps(h[2], h[3], _MM_SHUFFLE(3, 2, 3, 2)));
    // (s0 + s2) + (s1 + s3), landing v[t]'s sum in lane t.
    return _mm256_add_ps(
        _mm256_shuffle_ps(q01, q23, _MM_SHUFFLE(2, 0, 2, 0)),
        _mm256_shuffle_ps(q01, q23, _MM_SHUFFLE(3, 1, 3, 1)));
}
/// base[(int)idx[lane]] for every lane. The caller clamps idx into the
/// table; every lane is dereferenced.
inline VFloat
fgather(const float* base, VFloat idx)
{
    return _mm256_i32gather_ps(base, _mm256_cvttps_epi32(idx),
                               /*scale=*/4);
}

#elif defined(TGL_SIMD_NEON)

inline constexpr std::size_t kF64Lanes = 2;
inline constexpr const char* kIsaName = "neon";

using VDouble = float64x2_t;
using VBool = uint64x2_t;

inline VDouble vsplat(double x) { return vdupq_n_f64(x); }
inline VDouble vload(const double* p) { return vld1q_f64(p); }
inline void vstore(double* p, VDouble v) { vst1q_f64(p, v); }
inline VDouble vadd(VDouble a, VDouble b) { return vaddq_f64(a, b); }
inline VDouble vsub(VDouble a, VDouble b) { return vsubq_f64(a, b); }
inline VDouble vmul(VDouble a, VDouble b) { return vmulq_f64(a, b); }
inline VDouble vmin(VDouble a, VDouble b) { return vminq_f64(a, b); }
inline VDouble vfloor(VDouble a) { return vrndmq_f64(a); }
inline VBool vlt(VDouble a, VDouble b) { return vcltq_f64(a, b); }
inline VBool vle(VDouble a, VDouble b) { return vcleq_f64(a, b); }
inline VBool vgt(VDouble a, VDouble b) { return vcgtq_f64(a, b); }
inline VBool vand(VBool a, VBool b) { return vandq_u64(a, b); }
inline VDouble
vselect(VBool mask, VDouble a, VDouble b)
{
    return vbslq_f64(mask, a, b);
}
inline bool
vany(VBool mask)
{
    return (vgetq_lane_u64(mask, 0) | vgetq_lane_u64(mask, 1)) != 0;
}

inline VDouble
vgather(const double* base, VDouble idx, VBool active, double fallback)
{
    // NEON has no gather; emulate lane-wise without touching memory
    // behind masked-off lanes.
    double out[2] = {fallback, fallback};
    if (vgetq_lane_u64(active, 0) != 0) {
        out[0] = base[static_cast<std::int64_t>(vgetq_lane_f64(idx, 0))];
    }
    if (vgetq_lane_u64(active, 1) != 0) {
        out[1] = base[static_cast<std::int64_t>(vgetq_lane_f64(idx, 1))];
    }
    return vld1q_f64(out);
}

inline void
prefetch_read(const void* p)
{
    __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
}

// ---- f32 half (SGNS kernels) ----

inline constexpr std::size_t kF32Lanes = 4;

using VFloat = float32x4_t;
using VFBool = uint32x4_t;

inline VFloat fsplat(float x) { return vdupq_n_f32(x); }
inline VFloat fload(const float* p) { return vld1q_f32(p); }
inline void fstore(float* p, VFloat v) { vst1q_f32(p, v); }
inline VFloat fadd(VFloat a, VFloat b) { return vaddq_f32(a, b); }
inline VFloat fsub(VFloat a, VFloat b) { return vsubq_f32(a, b); }
inline VFloat fmul(VFloat a, VFloat b) { return vmulq_f32(a, b); }
/// NEON vmin/vmax propagate NaN instead of selecting the second
/// operand; fgather below converts NaN indices to 0 (vcvtq semantics),
/// so a NaN lane still cannot read out of bounds.
inline VFloat fmin(VFloat a, VFloat b) { return vminq_f32(a, b); }
inline VFloat fmax(VFloat a, VFloat b) { return vmaxq_f32(a, b); }
inline VFBool fle(VFloat a, VFloat b) { return vcleq_f32(a, b); }
/// Ordered a > b: false when either operand is NaN.
inline VFBool fgt(VFloat a, VFloat b) { return vcgtq_f32(a, b); }
/// Unordered !(a < b): true when a >= b or either operand is NaN.
inline VFBool fnlt(VFloat a, VFloat b)
{
    return vmvnq_u32(vcltq_f32(a, b));
}
inline VFloat
fselect(VFBool mask, VFloat a, VFloat b)
{
    return vbslq_f32(mask, a, b);
}
/// vaddvq_f32 lowers to two pairwise adds (faddp), so the sum is
/// (v0 + v1) + (v2 + v3).
inline float fhsum(VFloat v) { return vaddvq_f32(v); }
/// Lane t = fhsum(v[t]) for the 4 vectors v[0..3], bit for bit: the
/// same two pairwise adds, run for all four sums at once.
inline VFloat
fhsum_transposed(const VFloat* v)
{
    return vpaddq_f32(vpaddq_f32(v[0], v[1]), vpaddq_f32(v[2], v[3]));
}
inline VFloat
fgather(const float* base, VFloat idx)
{
    // No NEON gather; convert in-register (NaN → 0, defined) and read
    // lane-wise.
    const int32x4_t vi = vcvtq_s32_f32(idx);
    float out[4];
    out[0] = base[vgetq_lane_s32(vi, 0)];
    out[1] = base[vgetq_lane_s32(vi, 1)];
    out[2] = base[vgetq_lane_s32(vi, 2)];
    out[3] = base[vgetq_lane_s32(vi, 3)];
    return vld1q_f32(out);
}

#else // scalar fallback

inline constexpr std::size_t kF64Lanes = 4;
inline constexpr const char* kIsaName = "scalar";

struct VDouble
{
    double lane[kF64Lanes];
};
struct VBool
{
    bool lane[kF64Lanes];
};

inline VDouble
vsplat(double x)
{
    VDouble v;
    for (std::size_t i = 0; i < kF64Lanes; ++i) {
        v.lane[i] = x;
    }
    return v;
}
inline VDouble
vload(const double* p)
{
    VDouble v;
    for (std::size_t i = 0; i < kF64Lanes; ++i) {
        v.lane[i] = p[i];
    }
    return v;
}
inline void
vstore(double* p, VDouble v)
{
    for (std::size_t i = 0; i < kF64Lanes; ++i) {
        p[i] = v.lane[i];
    }
}
inline VDouble
vadd(VDouble a, VDouble b)
{
    VDouble v;
    for (std::size_t i = 0; i < kF64Lanes; ++i) {
        v.lane[i] = a.lane[i] + b.lane[i];
    }
    return v;
}
inline VDouble
vsub(VDouble a, VDouble b)
{
    VDouble v;
    for (std::size_t i = 0; i < kF64Lanes; ++i) {
        v.lane[i] = a.lane[i] - b.lane[i];
    }
    return v;
}
inline VDouble
vmul(VDouble a, VDouble b)
{
    VDouble v;
    for (std::size_t i = 0; i < kF64Lanes; ++i) {
        v.lane[i] = a.lane[i] * b.lane[i];
    }
    return v;
}
inline VDouble
vmin(VDouble a, VDouble b)
{
    VDouble v;
    for (std::size_t i = 0; i < kF64Lanes; ++i) {
        v.lane[i] = a.lane[i] < b.lane[i] ? a.lane[i] : b.lane[i];
    }
    return v;
}
inline VDouble
vfloor(VDouble a)
{
    VDouble v;
    for (std::size_t i = 0; i < kF64Lanes; ++i) {
        v.lane[i] = std::floor(a.lane[i]);
    }
    return v;
}
inline VBool
vlt(VDouble a, VDouble b)
{
    VBool m;
    for (std::size_t i = 0; i < kF64Lanes; ++i) {
        m.lane[i] = a.lane[i] < b.lane[i];
    }
    return m;
}
inline VBool
vle(VDouble a, VDouble b)
{
    VBool m;
    for (std::size_t i = 0; i < kF64Lanes; ++i) {
        m.lane[i] = a.lane[i] <= b.lane[i];
    }
    return m;
}
inline VBool
vgt(VDouble a, VDouble b)
{
    VBool m;
    for (std::size_t i = 0; i < kF64Lanes; ++i) {
        m.lane[i] = a.lane[i] > b.lane[i];
    }
    return m;
}
inline VBool
vand(VBool a, VBool b)
{
    VBool m;
    for (std::size_t i = 0; i < kF64Lanes; ++i) {
        m.lane[i] = a.lane[i] && b.lane[i];
    }
    return m;
}
inline VDouble
vselect(VBool mask, VDouble a, VDouble b)
{
    VDouble v;
    for (std::size_t i = 0; i < kF64Lanes; ++i) {
        v.lane[i] = mask.lane[i] ? a.lane[i] : b.lane[i];
    }
    return v;
}
inline bool
vany(VBool mask)
{
    for (std::size_t i = 0; i < kF64Lanes; ++i) {
        if (mask.lane[i]) {
            return true;
        }
    }
    return false;
}
inline VDouble
vgather(const double* base, VDouble idx, VBool active, double fallback)
{
    VDouble v;
    for (std::size_t i = 0; i < kF64Lanes; ++i) {
        v.lane[i] = active.lane[i]
                        ? base[static_cast<std::int64_t>(idx.lane[i])]
                        : fallback;
    }
    return v;
}
inline void
prefetch_read(const void* p)
{
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
    (void)p;
#endif
}

// ---- f32 half (SGNS kernels) ----

inline constexpr std::size_t kF32Lanes = 8;

struct VFloat
{
    float lane[kF32Lanes];
};
struct VFBool
{
    bool lane[kF32Lanes];
};

inline VFloat
fsplat(float x)
{
    VFloat v;
    for (std::size_t i = 0; i < kF32Lanes; ++i) {
        v.lane[i] = x;
    }
    return v;
}
inline VFloat
fload(const float* p)
{
    VFloat v;
    for (std::size_t i = 0; i < kF32Lanes; ++i) {
        v.lane[i] = p[i];
    }
    return v;
}
inline void
fstore(float* p, VFloat v)
{
    for (std::size_t i = 0; i < kF32Lanes; ++i) {
        p[i] = v.lane[i];
    }
}
inline VFloat
fadd(VFloat a, VFloat b)
{
    VFloat v;
    for (std::size_t i = 0; i < kF32Lanes; ++i) {
        v.lane[i] = a.lane[i] + b.lane[i];
    }
    return v;
}
inline VFloat
fsub(VFloat a, VFloat b)
{
    VFloat v;
    for (std::size_t i = 0; i < kF32Lanes; ++i) {
        v.lane[i] = a.lane[i] - b.lane[i];
    }
    return v;
}
inline VFloat
fmul(VFloat a, VFloat b)
{
    VFloat v;
    for (std::size_t i = 0; i < kF32Lanes; ++i) {
        v.lane[i] = a.lane[i] * b.lane[i];
    }
    return v;
}
/// min(a, b); returns b when a is NaN (std::fmin NaN-quieting rule
/// matches the AVX2 second-operand behavior for our clamp usage).
inline VFloat
fmin(VFloat a, VFloat b)
{
    VFloat v;
    for (std::size_t i = 0; i < kF32Lanes; ++i) {
        v.lane[i] = std::fmin(a.lane[i], b.lane[i]);
    }
    return v;
}
/// max(a, b); returns b when a is NaN.
inline VFloat
fmax(VFloat a, VFloat b)
{
    VFloat v;
    for (std::size_t i = 0; i < kF32Lanes; ++i) {
        v.lane[i] = std::fmax(a.lane[i], b.lane[i]);
    }
    return v;
}
inline VFBool
fle(VFloat a, VFloat b)
{
    VFBool m;
    for (std::size_t i = 0; i < kF32Lanes; ++i) {
        m.lane[i] = a.lane[i] <= b.lane[i];
    }
    return m;
}
/// Ordered a > b: false when either operand is NaN.
inline VFBool
fgt(VFloat a, VFloat b)
{
    VFBool m;
    for (std::size_t i = 0; i < kF32Lanes; ++i) {
        m.lane[i] = a.lane[i] > b.lane[i];
    }
    return m;
}
/// Unordered !(a < b): true when a >= b or either operand is NaN.
inline VFBool
fnlt(VFloat a, VFloat b)
{
    VFBool m;
    for (std::size_t i = 0; i < kF32Lanes; ++i) {
        m.lane[i] = !(a.lane[i] < b.lane[i]);
    }
    return m;
}
inline VFloat
fselect(VFBool mask, VFloat a, VFloat b)
{
    VFloat v;
    for (std::size_t i = 0; i < kF32Lanes; ++i) {
        v.lane[i] = mask.lane[i] ? a.lane[i] : b.lane[i];
    }
    return v;
}
inline float
fhsum(VFloat v)
{
    float sum = 0.0f;
    for (std::size_t i = 0; i < kF32Lanes; ++i) {
        sum += v.lane[i];
    }
    return sum;
}
/// Lane t = fhsum(v[t]) for the 8 vectors v[0..7].
inline VFloat
fhsum_transposed(const VFloat* v)
{
    VFloat sums;
    for (std::size_t t = 0; t < kF32Lanes; ++t) {
        sums.lane[t] = fhsum(v[t]);
    }
    return sums;
}
inline VFloat
fgather(const float* base, VFloat idx)
{
    // Indices are clamped by the caller and NaN lanes were already
    // forced to 0 by fmax, so the int cast is always in range.
    VFloat v;
    for (std::size_t i = 0; i < kF32Lanes; ++i) {
        v.lane[i] = base[static_cast<std::int32_t>(idx.lane[i])];
    }
    return v;
}

#endif

} // namespace tgl::util::simd
