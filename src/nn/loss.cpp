#include "nn/loss.hpp"

namespace tgl::nn {

LossResult
binary_cross_entropy(const Tensor& probabilities,
                     const std::vector<float>& targets)
{
    TGL_ASSERT(probabilities.cols() == 1);
    TGL_ASSERT(probabilities.rows() == targets.size());
    const std::size_t batch = probabilities.rows();
    TGL_ASSERT(batch > 0);

    LossResult result;
    result.grad.resize(batch, 1);
    const float inv_batch = 1.0f / static_cast<float>(batch);

    double total = 0.0;
    for (std::size_t i = 0; i < batch; ++i) {
        result.grad(i, 0) =
            bce_row(probabilities(i, 0), targets[i], inv_batch, total);
    }
    result.loss = total / static_cast<double>(batch);
    return result;
}

LossResult
nll_loss(const Tensor& log_probs,
         const std::vector<std::uint32_t>& targets)
{
    TGL_ASSERT(log_probs.rows() == targets.size());
    const std::size_t batch = log_probs.rows();
    const std::size_t classes = log_probs.cols();
    TGL_ASSERT(batch > 0);

    LossResult result;
    result.grad.resize(batch, classes);
    const float inv_batch = 1.0f / static_cast<float>(batch);

    double total = 0.0;
    for (std::size_t i = 0; i < batch; ++i) {
        const std::uint32_t target = targets[i];
        TGL_ASSERT(target < classes);
        total -= static_cast<double>(log_probs(i, target));
        result.grad(i, target) = -inv_batch;
    }
    result.loss = total / static_cast<double>(batch);
    return result;
}

} // namespace tgl::nn
