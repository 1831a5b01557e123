#include "nn/layers.hpp"

#include "nn/init.hpp"
#include "util/logging.hpp"

#include <cmath>

namespace tgl::nn {

Linear::Linear(std::size_t in_features, std::size_t out_features,
               rng::Random& random)
    : in_features_(in_features), out_features_(out_features)
{
    weight_.name = util::strcat("linear", out_features, "x", in_features,
                                ".weight");
    weight_.value.resize(out_features, in_features);
    weight_.grad.resize(out_features, in_features);
    xavier_uniform(weight_.value, in_features, out_features, random);

    bias_.name = util::strcat("linear", out_features, "x", in_features,
                              ".bias");
    bias_.value.resize(1, out_features);
    bias_.grad.resize(1, out_features);
}

const Tensor&
Linear::forward(const Tensor& input)
{
    TGL_ASSERT(input.cols() == in_features_);
    input_cache_ = input;
    matmul_nt(input, weight_.value, output_);
    for (std::size_t r = 0; r < output_.rows(); ++r) {
        float* row = output_.data() + r * out_features_;
        for (std::size_t c = 0; c < out_features_; ++c) {
            row[c] += bias_.value(0, c);
        }
    }
    return output_;
}

const Tensor&
Linear::backward(const Tensor& grad_output)
{
    TGL_ASSERT(grad_output.rows() == input_cache_.rows());
    TGL_ASSERT(grad_output.cols() == out_features_);

    // dW += dY^T * X ; db += column sums of dY ; dX = dY * W.
    Tensor weight_grad;
    matmul_tn(grad_output, input_cache_, weight_grad);
    weight_.grad.add(weight_grad);

    for (std::size_t r = 0; r < grad_output.rows(); ++r) {
        const float* row = grad_output.data() + r * out_features_;
        for (std::size_t c = 0; c < out_features_; ++c) {
            bias_.grad(0, c) += row[c];
        }
    }

    matmul(grad_output, weight_.value, grad_input_);
    return grad_input_;
}

std::vector<Parameter*>
Linear::parameters()
{
    return {&weight_, &bias_};
}

std::string
Linear::describe() const
{
    return util::strcat("Linear(", in_features_, " -> ", out_features_, ")");
}

const Tensor&
ReLU::forward(const Tensor& input)
{
    output_ = input;
    for (std::size_t r = 0; r < output_.rows(); ++r) {
        for (float& v : output_.row(r)) {
            v = v > 0.0f ? v : 0.0f;
        }
    }
    return output_;
}

const Tensor&
ReLU::backward(const Tensor& grad_output)
{
    TGL_ASSERT(grad_output.same_shape(output_));
    grad_input_ = grad_output;
    for (std::size_t r = 0; r < grad_input_.rows(); ++r) {
        auto g = grad_input_.row(r);
        const auto y = output_.row(r);
        for (std::size_t c = 0; c < g.size(); ++c) {
            if (y[c] <= 0.0f) {
                g[c] = 0.0f;
            }
        }
    }
    return grad_input_;
}

const Tensor&
Sigmoid::forward(const Tensor& input)
{
    output_ = input;
    for (std::size_t r = 0; r < output_.rows(); ++r) {
        for (float& v : output_.row(r)) {
            v = sigmoid(v);
        }
    }
    return output_;
}

const Tensor&
Sigmoid::backward(const Tensor& grad_output)
{
    TGL_ASSERT(grad_output.same_shape(output_));
    grad_input_ = grad_output;
    for (std::size_t r = 0; r < grad_input_.rows(); ++r) {
        auto g = grad_input_.row(r);
        const auto y = output_.row(r);
        for (std::size_t c = 0; c < g.size(); ++c) {
            g[c] *= y[c] * (1.0f - y[c]);
        }
    }
    return grad_input_;
}

ResidualBlock::ResidualBlock(std::size_t width, rng::Random& random)
    : width_(width)
{
    weight1_.name = util::strcat("res", width, ".weight1");
    weight1_.value.resize(width, width);
    weight1_.grad.resize(width, width);
    xavier_uniform(weight1_.value, width, width, random);
    bias1_.name = util::strcat("res", width, ".bias1");
    bias1_.value.resize(1, width);
    bias1_.grad.resize(1, width);

    weight2_.name = util::strcat("res", width, ".weight2");
    weight2_.value.resize(width, width);
    weight2_.grad.resize(width, width);
    // Zero-init the branch's output projection ("zero-gamma" trick):
    // every block starts as the identity, so a residual stack is never
    // worse-conditioned than the plain network it extends.
    weight2_.value.zero();
    bias2_.name = util::strcat("res", width, ".bias2");
    bias2_.value.resize(1, width);
    bias2_.grad.resize(1, width);
}

const Tensor&
ResidualBlock::forward(const Tensor& input)
{
    TGL_ASSERT(input.cols() == width_);
    input_cache_ = input;

    matmul_nt(input, weight1_.value, hidden_pre_);
    for (std::size_t r = 0; r < hidden_pre_.rows(); ++r) {
        auto row = hidden_pre_.row(r);
        for (std::size_t c = 0; c < width_; ++c) {
            row[c] += bias1_.value(0, c);
        }
    }
    hidden_post_ = hidden_pre_;
    for (std::size_t r = 0; r < hidden_post_.rows(); ++r) {
        for (float& v : hidden_post_.row(r)) {
            v = v > 0.0f ? v : 0.0f;
        }
    }

    matmul_nt(hidden_post_, weight2_.value, output_);
    for (std::size_t r = 0; r < output_.rows(); ++r) {
        auto out = output_.row(r);
        const auto in = input.row(r);
        for (std::size_t c = 0; c < width_; ++c) {
            out[c] += bias2_.value(0, c) + in[c]; // skip connection
            out[c] = out[c] > 0.0f ? out[c] : 0.0f;
        }
    }
    return output_;
}

const Tensor&
ResidualBlock::backward(const Tensor& grad_output)
{
    TGL_ASSERT(grad_output.same_shape(output_));

    // ds = dy masked by the final ReLU.
    Tensor ds = grad_output;
    for (std::size_t r = 0; r < ds.rows(); ++r) {
        auto g = ds.row(r);
        const auto y = output_.row(r);
        for (std::size_t c = 0; c < width_; ++c) {
            if (y[c] <= 0.0f) {
                g[c] = 0.0f;
            }
        }
    }

    // Branch: dh2 = ds; dW2 += dh2^T a1; db2 += colsum(dh2);
    // da1 = dh2 W2; dh1 = da1 masked by the inner ReLU;
    // dW1 += dh1^T x; db1 += colsum(dh1); dx = ds + dh1 W1.
    Tensor weight2_grad;
    matmul_tn(ds, hidden_post_, weight2_grad);
    weight2_.grad.add(weight2_grad);
    for (std::size_t r = 0; r < ds.rows(); ++r) {
        const auto g = ds.row(r);
        for (std::size_t c = 0; c < width_; ++c) {
            bias2_.grad(0, c) += g[c];
        }
    }

    matmul(ds, weight2_.value, branch_grad_); // da1
    for (std::size_t r = 0; r < branch_grad_.rows(); ++r) {
        auto g = branch_grad_.row(r);
        const auto h = hidden_pre_.row(r);
        for (std::size_t c = 0; c < width_; ++c) {
            if (h[c] <= 0.0f) {
                g[c] = 0.0f;
            }
        }
    }

    Tensor weight1_grad;
    matmul_tn(branch_grad_, input_cache_, weight1_grad);
    weight1_.grad.add(weight1_grad);
    for (std::size_t r = 0; r < branch_grad_.rows(); ++r) {
        const auto g = branch_grad_.row(r);
        for (std::size_t c = 0; c < width_; ++c) {
            bias1_.grad(0, c) += g[c];
        }
    }

    matmul(branch_grad_, weight1_.value, grad_input_);
    grad_input_.add(ds);
    return grad_input_;
}

std::vector<Parameter*>
ResidualBlock::parameters()
{
    return {&weight1_, &bias1_, &weight2_, &bias2_};
}

std::string
ResidualBlock::describe() const
{
    return util::strcat("ResidualBlock(", width_, ")");
}

const Tensor&
LogSoftmax::forward(const Tensor& input)
{
    output_ = input;
    for (std::size_t r = 0; r < output_.rows(); ++r) {
        auto row = output_.row(r);
        float max_val = row[0];
        for (float v : row) {
            max_val = std::max(max_val, v);
        }
        float sum = 0.0f;
        for (float v : row) {
            sum += std::exp(v - max_val);
        }
        const float log_sum = std::log(sum) + max_val;
        for (float& v : row) {
            v -= log_sum;
        }
    }
    return output_;
}

const Tensor&
LogSoftmax::backward(const Tensor& grad_output)
{
    TGL_ASSERT(grad_output.same_shape(output_));
    // dx_i = g_i - softmax_i * sum(g).
    grad_input_ = grad_output;
    for (std::size_t r = 0; r < grad_input_.rows(); ++r) {
        auto g = grad_input_.row(r);
        const auto y = output_.row(r);
        float total = 0.0f;
        for (float v : g) {
            total += v;
        }
        for (std::size_t c = 0; c < g.size(); ++c) {
            g[c] -= std::exp(y[c]) * total;
        }
    }
    return grad_input_;
}

} // namespace tgl::nn
