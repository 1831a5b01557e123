/// @file
/// Parameter initialization schemes.
#pragma once

#include "nn/tensor.hpp"
#include "rng/random.hpp"

namespace tgl::nn {

/// Xavier/Glorot uniform: U(-s, s) with s = sqrt(6 / (fan_in + fan_out)).
void xavier_uniform(Tensor& weights, std::size_t fan_in,
                    std::size_t fan_out, rng::Random& random);

} // namespace tgl::nn
