/// Tests for util/simd.hpp's f32 reductions. This TU compiles under the
/// same -DTGL_SIMD backend choice as the library's SIMD kernels (see
/// tests/CMakeLists.txt), so it checks the backend those kernels run.
#include "util/simd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <vector>

namespace tgl::util::simd {
namespace {

std::uint32_t
bits_of(float value)
{
    std::uint32_t bits;
    std::memcpy(&bits, &value, sizeof bits);
    return bits;
}

/// fhsum_transposed over kF32Lanes vectors loaded from @p values
/// (kF32Lanes * kF32Lanes floats, vector t at values + t * kF32Lanes)
/// must equal fhsum of each vector bit for bit, in lane t.
void
expect_transposed_matches(const std::vector<float>& values)
{
    ASSERT_EQ(values.size(), kF32Lanes * kF32Lanes);
    VFloat vectors[kF32Lanes];
    for (std::size_t t = 0; t < kF32Lanes; ++t) {
        vectors[t] = fload(values.data() + t * kF32Lanes);
    }
    float sums[kF32Lanes];
    fstore(sums, fhsum_transposed(vectors));
    for (std::size_t t = 0; t < kF32Lanes; ++t) {
        const float expected = fhsum(vectors[t]);
        EXPECT_EQ(bits_of(sums[t]), bits_of(expected))
            << "lane " << t << ": " << sums[t] << " vs " << expected;
    }
}

TEST(SimdF32, TransposedHsumMatchesFhsumOnRandomValues)
{
    std::vector<float> values(kF32Lanes * kF32Lanes);
    std::uint64_t state = 0x9e3779b97f4a7c15ULL;
    for (int round = 0; round < 200; ++round) {
        for (float& value : values) {
            state = state * 6364136223846793005ULL + 1442695040888963407ULL;
            value = static_cast<float>(static_cast<double>(state >> 11) *
                                       0x1.0p-53) *
                        2.0f -
                    1.0f;
        }
        expect_transposed_matches(values);
    }
}

TEST(SimdF32, TransposedHsumMatchesFhsumOnSignedZeros)
{
    // -0 + -0 is -0 but -0 + +0 is +0: only the same operand pairing
    // in the same order reproduces the sign of every zero sum.
    std::vector<float> values(kF32Lanes * kF32Lanes, -0.0f);
    for (std::size_t t = 0; t < kF32Lanes; ++t) {
        values[t * kF32Lanes + t % kF32Lanes] = 0.0f;
    }
    expect_transposed_matches(values);
    std::fill(values.begin(), values.end(), -0.0f);
    expect_transposed_matches(values);
}

TEST(SimdF32, TransposedHsumMatchesFhsumOnSubnormalsAndLargeMagnitudes)
{
    const float tiny = std::numeric_limits<float>::denorm_min();
    const float subnormal = std::numeric_limits<float>::min() / 8.0f;
    const float big = std::numeric_limits<float>::max() / 2.0f;
    // Mixed-magnitude lanes make the association order visible: adding
    // 1 to 1e8 loses it, adding it to -1e8 first does not.
    const float pattern[] = {big,   -big,  1e8f,      1.0f,
                             -1e8f, tiny,  subnormal, -subnormal,
                             3e38f, 3e38f, -1.0f,     tiny};
    std::vector<float> values(kF32Lanes * kF32Lanes);
    for (std::size_t offset = 0; offset < std::size(pattern); ++offset) {
        for (std::size_t i = 0; i < values.size(); ++i) {
            values[i] = pattern[(i * 5 + offset) % std::size(pattern)];
        }
        expect_transposed_matches(values);
    }
}

} // namespace
} // namespace tgl::util::simd
