/// @file
/// Fused kernel for the plain link predictor (make_link_predictor:
/// Linear -> ReLU -> Linear -> Sigmoid, trained with binary
/// cross-entropy), for any input and hidden width.
///
/// The layered nn::Mlp path copies every activation through virtual
/// Layers and runs scalar-reduction GEMMs on 16 -> 16 -> 1 shapes, the
/// tiny shapes SVIII-A says generic GEMM code handles badly. This kernel
/// runs a whole mini-batch through forward, loss and backward with
/// lanes over hidden units, and writes the parameter gradients
/// directly: no per-layer copies, no dX, no per-batch allocation.
///
/// It is bit-identical to the layered path, not merely close: every sum
/// starts from +0 and adds its terms in the reference's order, multiply
/// and add round separately, the ReLU is `v > 0 ? v : 0`, and the
/// sigmoid and loss are the very helpers nn::Sigmoid and
/// nn::binary_cross_entropy call. DESIGN.md §16 gives the argument.
///
/// Intrinsics stay inside link_kernel.cpp, an ISA-flagged TU like
/// embed/kernels.cpp (see src/CMakeLists.txt); this header has none.
#pragma once

#include "nn/data_loader.hpp"
#include "nn/mlp.hpp"

#include <cstdint>
#include <span>
#include <vector>

namespace tgl::nn {

/// The weights of one make_link_predictor network in the kernel's
/// layout, with a fused training step and a parallel forward.
class LinkKernel
{
  public:
    /// Copy the weights of @p net. Throws util::Error unless @p net is
    /// a make_link_predictor network.
    explicit LinkKernel(Mlp& net);

    /// Parameters for nn::Sgd: W1 transposed (input x hidden), b1, W2
    /// and b2. Hidden columns are zero-padded to the vector width; the
    /// padding has a zero gradient, so SGD keeps it at zero.
    std::vector<Parameter*> parameters();

    /// One mini-batch over rows @p rows of @p data: forward, mean
    /// binary cross-entropy and backward. Overwrites the parameter
    /// gradients (no zero_grad needed) and returns the batch loss; the
    /// caller then steps the optimizer.
    double train_step(const TaskDataset& data,
                      std::span<const std::uint32_t> rows);

    /// Edge probabilities (rows x 1) for every row of @p features,
    /// computed in parallel over row blocks.
    void predict(const Tensor& features, Tensor& probabilities) const;

    /// Write the weights back into @p net, the network the kernel was
    /// built from.
    void store(Mlp& net) const;

  private:
    /// Hidden activations of a block of rows into @p act (row stride
    /// padded_dim_) and their output logits into @p logits.
    void forward_block(const float* const* rows, float* act,
                       float* logits) const;

    std::size_t input_dim_ = 0;
    std::size_t hidden_dim_ = 0;
    std::size_t padded_dim_ = 0;
    Parameter w1t_; // (input x padded)
    Parameter b1_;  // (1 x padded)
    Parameter w2_;  // (1 x padded)
    Parameter b2_;  // (1 x 1)
    // train_step scratch, one entry per batch row: the feature row, the
    // hidden activations (then dLoss/dh) and the logit (then dLoss/dz).
    std::vector<const float*> x_;
    std::vector<float> act_;
    std::vector<float> dz_;
};

} // namespace tgl::nn
