/// @file
/// High-level random draws on top of Xoshiro256: uniform ints/reals,
/// Bernoulli, Gaussian, exponential, shuffling, and sampling without
/// replacement. All distributions are implemented directly (no libstdc++
/// distribution objects) so results are identical across standard
/// library versions — important for reproducible tests and benchmarks.
#pragma once

#include "rng/xoshiro256.hpp"
#include "util/error.hpp"

#include <cstdint>
#include <vector>

namespace tgl::rng {

/// Seedable random source with the draws tgl needs.
class Random
{
  public:
    explicit Random(std::uint64_t seed = 0x2545f4914f6cdd1dULL)
        : engine_(seed)
    {
    }

    /// Underlying bit generator (for std algorithms that want one).
    Xoshiro256& engine() { return engine_; }

    /// Raw 64 random bits.
    std::uint64_t bits() { return engine_(); }

    /// Uniform integer in [0, bound); bound must be > 0.
    std::uint64_t
    next_index(std::uint64_t bound)
    {
        TGL_DASSERT(bound > 0);
        // Lemire's multiply-shift rejection method: unbiased and avoids
        // the expensive 64-bit modulo on the hot path.
        std::uint64_t x = engine_();
        __uint128_t m = static_cast<__uint128_t>(x) * bound;
        std::uint64_t low = static_cast<std::uint64_t>(m);
        if (low < bound) {
            const std::uint64_t threshold = (0 - bound) % bound;
            while (low < threshold) {
                x = engine_();
                m = static_cast<__uint128_t>(x) * bound;
                low = static_cast<std::uint64_t>(m);
            }
        }
        return static_cast<std::uint64_t>(m >> 64);
    }

    /// Uniform integer in [lo, hi] inclusive.
    std::int64_t next_int(std::int64_t lo, std::int64_t hi);

    /// Uniform double in [0, 1).
    double
    next_double()
    {
        // 53 high bits -> [0, 1) with full double precision.
        return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
    }

    /// Uniform double in [lo, hi).
    double next_double(double lo, double hi);

    /// Uniform float in [0, 1).
    float next_float();

    /// True with probability p.
    bool next_bernoulli(double p);

    /// Standard normal via Box–Muller (cached second value).
    double next_gaussian();

    /// Exponential with the given rate (> 0).
    double next_exponential(double rate);

    /// Fisher–Yates shuffle.
    template <typename T>
    void
    shuffle(std::vector<T>& values)
    {
        for (std::size_t i = values.size(); i > 1; --i) {
            const std::size_t j =
                static_cast<std::size_t>(next_index(i));
            std::swap(values[i - 1], values[j]);
        }
    }

    /// k distinct indices drawn uniformly from [0, n) (Floyd's method).
    std::vector<std::uint64_t> sample_without_replacement(std::uint64_t n,
                                                          std::uint64_t k);

  private:
    Xoshiro256 engine_;
    double cached_gaussian_ = 0.0;
    bool has_cached_gaussian_ = false;
};

} // namespace tgl::rng
