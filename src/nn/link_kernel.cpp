/// @file
/// The fused link-predictor kernel over util/simd.hpp's f32 half.
///
/// Lanes run over hidden units. Exactness against the layered path
/// rests on reproducing each of its sums term by term:
///   - h[j] = (+0 + x[0] W[j][0] + ... + x[in-1] W[j][in-1]) + b1[j]
///     (matmul_nt, then the bias add), one lane per j;
///   - z = (+0 + a[0] w2[0] + ... + a[h-1] w2[h-1]) + b2, summed in
///     scalar over j because the lanes would reorder it;
///   - every gradient is +0 plus its per-row terms in batch order
///     (zero_grad, then matmul_tn or the bias column sums).
/// Only the order within each sum is fixed, so the loops are free to
/// interleave independent sums: the forward runs kRowBlock rows at a
/// time, and each backward pass keeps several gradient sums in
/// registers while it walks the whole batch.
#include "nn/link_kernel.hpp"

#include "nn/loss.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/parallel_for.hpp"
#include "util/simd.hpp"

#include <algorithm>

namespace tgl::nn {

namespace {

namespace simd = util::simd;

constexpr std::size_t kLanes = simd::kF32Lanes;
/// Rows whose forward passes interleave (one add chain each).
constexpr std::size_t kRowBlock = 8;
/// Inputs whose weight-gradient sums one backward pass over the batch
/// carries in registers.
constexpr std::size_t kInputGroup = 4;
/// How far ahead of the current block train_step prefetches rows.
constexpr std::size_t kPrefetchRows = 16;
/// Rows per parallel_for iteration in predict.
constexpr std::size_t kPredictRows = 256;

/// W1^T gradient rows l .. l + G - 1, hidden units v .. v + kLanes - 1:
/// +0 plus dh[r] x[r][l + i] over the batch rows r = 0 .. n - 1 in
/// order. @p dh has row stride @p stride, as does @p dw1t.
template <std::size_t G>
void
input_gradients(const float* const* x, const float* dh, std::size_t n,
                std::size_t l, std::size_t v, std::size_t stride,
                float* dw1t)
{
    simd::VFloat acc[G];
    for (simd::VFloat& a : acc) {
        a = simd::fsplat(0.0f);
    }
    for (std::size_t r = 0; r < n; ++r) {
        const simd::VFloat g = simd::fload(dh + r * stride + v);
        for (std::size_t i = 0; i < G; ++i) {
            acc[i] = simd::fadd(acc[i],
                                simd::fmul(g, simd::fsplat(x[r][l + i])));
        }
    }
    for (std::size_t i = 0; i < G; ++i) {
        simd::fstore(dw1t + (l + i) * stride + v, acc[i]);
    }
}

} // namespace

LinkKernel::LinkKernel(Mlp& net)
{
    const std::vector<Parameter*> params = net.parameters();
    if (!params.empty()) {
        input_dim_ = params[0]->value.cols();
        hidden_dim_ = params[0]->value.rows();
    }
    if (net.describe() !=
        util::strcat("Linear(", input_dim_, " -> ", hidden_dim_,
                     ") -> ReLU -> Linear(", hidden_dim_,
                     " -> 1) -> Sigmoid")) {
        util::fatal(util::strcat("link kernel: expected a 2-layer link "
                                 "predictor, got ", net.describe()));
    }
    padded_dim_ = (hidden_dim_ + kLanes - 1) / kLanes * kLanes;

    for (Parameter* p : {&w1t_, &b1_, &w2_, &b2_}) {
        const std::size_t rows = p == &w1t_ ? input_dim_ : 1;
        const std::size_t cols = p == &b2_ ? 1 : padded_dim_;
        p->value.resize(rows, cols);
        p->grad.resize(rows, cols);
    }
    for (std::size_t j = 0; j < hidden_dim_; ++j) {
        for (std::size_t l = 0; l < input_dim_; ++l) {
            w1t_.value(l, j) = params[0]->value(j, l);
        }
        b1_.value(0, j) = params[1]->value(0, j);
        w2_.value(0, j) = params[2]->value(0, j);
    }
    b2_.value(0, 0) = params[3]->value(0, 0);
}

std::vector<Parameter*>
LinkKernel::parameters()
{
    return {&w1t_, &b1_, &w2_, &b2_};
}

void
LinkKernel::store(Mlp& net) const
{
    const std::vector<Parameter*> params = net.parameters();
    TGL_ASSERT(params.size() == 4 &&
               params[0]->value.rows() == hidden_dim_ &&
               params[0]->value.cols() == input_dim_);
    for (std::size_t j = 0; j < hidden_dim_; ++j) {
        for (std::size_t l = 0; l < input_dim_; ++l) {
            params[0]->value(j, l) = w1t_.value(l, j);
        }
        params[1]->value(0, j) = b1_.value(0, j);
        params[2]->value(0, j) = w2_.value(0, j);
    }
    params[3]->value(0, 0) = b2_.value(0, 0);
}

void
LinkKernel::forward_block(const float* const* rows, float* act,
                          float* logits) const
{
    const float* w1t = w1t_.value.data();
    const float* b1 = b1_.value.data();
    const simd::VFloat zero = simd::fsplat(0.0f);
    for (std::size_t v = 0; v < padded_dim_; v += kLanes) {
        simd::VFloat acc[kRowBlock];
        for (simd::VFloat& a : acc) {
            a = zero;
        }
        for (std::size_t l = 0; l < input_dim_; ++l) {
            const simd::VFloat w = simd::fload(w1t + l * padded_dim_ + v);
            for (std::size_t r = 0; r < kRowBlock; ++r) {
                acc[r] = simd::fadd(
                    acc[r], simd::fmul(simd::fsplat(rows[r][l]), w));
            }
        }
        const simd::VFloat bias = simd::fload(b1 + v);
        for (std::size_t r = 0; r < kRowBlock; ++r) {
            const simd::VFloat h = simd::fadd(acc[r], bias);
            simd::fstore(act + r * padded_dim_ + v,
                         simd::fselect(simd::fgt(h, zero), h, zero));
        }
    }

    const float* w2 = w2_.value.data();
    float sums[kRowBlock] = {};
    for (std::size_t j = 0; j < hidden_dim_; ++j) {
        for (std::size_t r = 0; r < kRowBlock; ++r) {
            sums[r] += act[r * padded_dim_ + j] * w2[j];
        }
    }
    for (std::size_t r = 0; r < kRowBlock; ++r) {
        logits[r] = sums[r] + b2_.value(0, 0);
    }
}

double
LinkKernel::train_step(const TaskDataset& data,
                       std::span<const std::uint32_t> rows)
{
    TGL_ASSERT(!rows.empty());
    TGL_ASSERT(data.features.cols() == input_dim_);
    const std::size_t n = rows.size();
    // Scratch grows to the largest batch seen, then is reused. A short
    // last block repeats the final row; its extra results go unread.
    const std::size_t blocked = (n + kRowBlock - 1) / kRowBlock * kRowBlock;
    if (x_.size() < blocked) {
        x_.resize(blocked);
        act_.resize(blocked * padded_dim_);
        dz_.resize(blocked);
    }
    for (std::size_t r = 0; r < blocked; ++r) {
        x_[r] = data.features.row(rows[std::min(r, n - 1)]).data();
    }

    // Forward. The rows are a random gather from the whole training
    // set, so fetch a few blocks ahead.
    for (std::size_t begin = 0; begin < n; begin += kRowBlock) {
        for (std::size_t r = begin + kPrefetchRows;
             r < std::min(n, begin + kPrefetchRows + kRowBlock); ++r) {
            simd::prefetch_read(x_[r]);
            simd::prefetch_read(&data.binary_labels[rows[r]]);
        }
        forward_block(x_.data() + begin, act_.data() + begin * padded_dim_,
                      dz_.data() + begin);
    }

    // Loss; dz_ turns from logits into dLoss/dz.
    const float inv_batch = 1.0f / static_cast<float>(n);
    double total = 0.0;
    float db2 = 0.0f;
    for (std::size_t r = 0; r < n; ++r) {
        const float p = sigmoid(dz_[r]);
        dz_[r] = bce_row(p, data.binary_labels[rows[r]], inv_batch, total) *
                 (p * (1.0f - p));
        db2 += dz_[r];
    }
    b2_.grad(0, 0) = db2;

    // dW2 and db1. Each row's activations turn into its dLoss/dh: the
    // ReLU mask of (+0 + dz w2).
    const simd::VFloat zero = simd::fsplat(0.0f);
    for (std::size_t v = 0; v < padded_dim_; v += kLanes) {
        const simd::VFloat w2 = simd::fload(w2_.value.data() + v);
        simd::VFloat dw2 = zero;
        simd::VFloat db1 = zero;
        for (std::size_t r = 0; r < n; ++r) {
            float* slot = act_.data() + r * padded_dim_ + v;
            const simd::VFloat a = simd::fload(slot);
            const simd::VFloat dz = simd::fsplat(dz_[r]);
            dw2 = simd::fadd(dw2, simd::fmul(dz, a));
            const simd::VFloat dh = simd::fselect(
                simd::fgt(a, zero), simd::fadd(zero, simd::fmul(dz, w2)),
                zero);
            db1 = simd::fadd(db1, dh);
            simd::fstore(slot, dh);
        }
        simd::fstore(w2_.grad.data() + v, dw2);
        simd::fstore(b1_.grad.data() + v, db1);
    }

    // dW1^T, kInputGroup inputs per pass.
    float* dw1t = w1t_.grad.data();
    std::size_t l = 0;
    for (; l + kInputGroup <= input_dim_; l += kInputGroup) {
        for (std::size_t v = 0; v < padded_dim_; v += kLanes) {
            input_gradients<kInputGroup>(x_.data(), act_.data(), n, l, v,
                                         padded_dim_, dw1t);
        }
    }
    for (; l < input_dim_; ++l) {
        for (std::size_t v = 0; v < padded_dim_; v += kLanes) {
            input_gradients<1>(x_.data(), act_.data(), n, l, v, padded_dim_,
                               dw1t);
        }
    }
    return total / static_cast<double>(n);
}

void
LinkKernel::predict(const Tensor& features, Tensor& probabilities) const
{
    TGL_ASSERT(features.cols() == input_dim_);
    const std::size_t n = features.rows();
    probabilities.resize(n, 1);
    const std::size_t tasks = (n + kPredictRows - 1) / kPredictRows;
    util::parallel_for(0, tasks, [&](std::size_t t) {
        std::vector<float> act(kRowBlock * padded_dim_);
        const std::size_t end = std::min(n, (t + 1) * kPredictRows);
        for (std::size_t begin = t * kPredictRows; begin < end;
             begin += kRowBlock) {
            const float* x[kRowBlock];
            for (std::size_t r = 0; r < kRowBlock; ++r) {
                x[r] = features.row(std::min(begin + r, end - 1)).data();
            }
            float logits[kRowBlock];
            forward_block(x, act.data(), logits);
            for (std::size_t r = 0; r < std::min(kRowBlock, end - begin);
                 ++r) {
                probabilities(begin + r, 0) = sigmoid(logits[r]);
            }
        }
    });
}

} // namespace tgl::nn
