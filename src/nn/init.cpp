#include "nn/init.hpp"

#include <cmath>

namespace tgl::nn {

void
xavier_uniform(Tensor& weights, std::size_t fan_in, std::size_t fan_out,
               rng::Random& random)
{
    const double bound =
        std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
    for (std::size_t r = 0; r < weights.rows(); ++r) {
        for (std::size_t c = 0; c < weights.cols(); ++c) {
            weights(r, c) =
                static_cast<float>(random.next_double(-bound, bound));
        }
    }
}

} // namespace tgl::nn
