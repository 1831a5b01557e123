/// @file
/// Feed-forward layers with explicit forward/backward passes.
///
/// The paper's classifiers are small fixed FNN stacks (2-layer for link
/// prediction, 3-layer for node classification, SIV-B), so tgl uses
/// hand-derived backward passes instead of a tape autodiff: every
/// gradient is a GEMM or an elementwise map, which keeps the classifier
/// phase transparent to the profiling substrate.
#pragma once

#include "nn/gemm.hpp"
#include "nn/tensor.hpp"
#include "rng/random.hpp"

#include <cmath>
#include <memory>
#include <string>
#include <vector>

namespace tgl::nn {

/// One learnable parameter with its gradient accumulator.
struct Parameter
{
    std::string name;
    Tensor value;
    Tensor grad;
};

/// Abstract layer: forward caches whatever backward needs.
class Layer
{
  public:
    virtual ~Layer() = default;

    /// Compute the layer output for @p input (batch rows).
    virtual const Tensor& forward(const Tensor& input) = 0;

    /// Given dLoss/dOutput, accumulate parameter grads and return
    /// dLoss/dInput. Must be called after forward on the same batch.
    virtual const Tensor& backward(const Tensor& grad_output) = 0;

    /// Learnable parameters (empty for activations).
    virtual std::vector<Parameter*> parameters() { return {}; }

    /// Human-readable layer description.
    virtual std::string describe() const = 0;
};

/// Fully connected layer: Y = X * W^T + b, W stored (out x in).
class Linear : public Layer
{
  public:
    Linear(std::size_t in_features, std::size_t out_features,
           rng::Random& random);

    const Tensor& forward(const Tensor& input) override;
    const Tensor& backward(const Tensor& grad_output) override;
    std::vector<Parameter*> parameters() override;
    std::string describe() const override;

    std::size_t in_features() const { return in_features_; }
    std::size_t out_features() const { return out_features_; }

  private:
    std::size_t in_features_;
    std::size_t out_features_;
    Parameter weight_; // (out x in)
    Parameter bias_;   // (1 x out)
    Tensor input_cache_;
    Tensor output_;
    Tensor grad_input_;
};

/// Elementwise max(0, x).
class ReLU : public Layer
{
  public:
    const Tensor& forward(const Tensor& input) override;
    const Tensor& backward(const Tensor& grad_output) override;
    std::string describe() const override { return "ReLU"; }

  private:
    Tensor output_;
    Tensor grad_input_;
};

/// The logistic function exactly as Sigmoid evaluates it (shared with
/// the fused link-predictor kernel, nn/link_kernel.hpp).
inline float
sigmoid(float v)
{
    return 1.0f / (1.0f + std::exp(-v));
}

/// Elementwise logistic sigmoid (the link-prediction output layer).
class Sigmoid : public Layer
{
  public:
    const Tensor& forward(const Tensor& input) override;
    const Tensor& backward(const Tensor& grad_output) override;
    std::string describe() const override { return "Sigmoid"; }

  private:
    Tensor output_;
    Tensor grad_input_;
};

/// Pre-activation residual block: y = ReLU(x + W2 ReLU(W1 x + b1) + b2)
/// with square weight matrices (width x width).
///
/// The paper's SVIII-A notes that swapping the plain FNN for a
/// ResNet-style architecture buys ~2% link-prediction accuracy; this
/// block is that extension (see make_residual_link_predictor).
class ResidualBlock : public Layer
{
  public:
    ResidualBlock(std::size_t width, rng::Random& random);

    const Tensor& forward(const Tensor& input) override;
    const Tensor& backward(const Tensor& grad_output) override;
    std::vector<Parameter*> parameters() override;
    std::string describe() const override;

  private:
    std::size_t width_;
    Parameter weight1_, bias1_;
    Parameter weight2_, bias2_;
    Tensor input_cache_;
    Tensor hidden_pre_;   // W1 x + b1
    Tensor hidden_post_;  // ReLU of the above
    Tensor output_;       // final ReLU(x + branch)
    Tensor grad_input_;
    Tensor branch_grad_;  // scratch
};

/// Row-wise log-softmax (the node-classification output layer; pairs
/// with NllLoss to form cross-entropy).
class LogSoftmax : public Layer
{
  public:
    const Tensor& forward(const Tensor& input) override;
    const Tensor& backward(const Tensor& grad_output) override;
    std::string describe() const override { return "LogSoftmax"; }

  private:
    Tensor output_;
    Tensor grad_input_;
};

} // namespace tgl::nn
