/// @file
/// Loss functions of the two downstream tasks (SIV-B): binary
/// cross-entropy over sigmoid outputs for link prediction (Eq. 4), and
/// negative log likelihood over log-softmax outputs for multi-class
/// node classification.
#pragma once

#include "nn/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace tgl::nn {

/// Loss value plus the gradient w.r.t. the network output.
struct LossResult
{
    double loss = 0.0;       ///< mean over the batch
    Tensor grad;             ///< dLoss/dOutput, same shape as output
};

/// Binary cross-entropy. @p probabilities is (batch x 1) sigmoid
/// output; @p targets holds 0/1 labels. Probabilities are clamped away
/// from {0,1} for numerical safety.
LossResult binary_cross_entropy(const Tensor& probabilities,
                                const std::vector<float>& targets);

/// One row of binary_cross_entropy: subtracts the row's log-likelihood
/// of label @p y under probability @p p from @p total and returns
/// dLoss/dp scaled by the batch-mean factor @p inv_batch. The fused
/// link-predictor kernel (nn/link_kernel.hpp) calls this too, so both
/// paths evaluate the same expressions.
inline float
bce_row(float p, float y, float inv_batch, double& total)
{
    constexpr float kEps = 1e-7f;
    const float clamped = std::clamp(p, kEps, 1.0f - kEps);
    const auto pd = static_cast<double>(clamped);
    if (y == 0.0f || y == 1.0f) {
        // The general form below with its zero-weighted term dropped:
        // that term is 0 times the finite log of a clamped probability,
        // -0, so the sum is unchanged bit for bit.
        total -= std::log(y == 1.0f ? pd : 1.0 - pd);
    } else {
        total -= static_cast<double>(y) * std::log(pd) +
                 (1.0 - static_cast<double>(y)) * std::log(1.0 - pd);
    }
    // d/dp of -[y log p + (1-y) log(1-p)], averaged over the batch.
    return (clamped - y) / (clamped * (1.0f - clamped)) * inv_batch;
}

/// Negative log likelihood. @p log_probs is (batch x classes)
/// log-softmax output; @p targets holds class indices.
LossResult nll_loss(const Tensor& log_probs,
                    const std::vector<std::uint32_t>& targets);

} // namespace tgl::nn
