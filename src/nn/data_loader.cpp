#include "nn/data_loader.hpp"

#include "util/error.hpp"

#include <algorithm>
#include <numeric>

namespace tgl::nn {

DataLoader::DataLoader(const TaskDataset& dataset, std::size_t batch_size,
                       bool shuffle, std::uint64_t seed)
    : dataset_(dataset), batch_size_(batch_size), shuffle_(shuffle),
      random_(seed), order_(dataset.size())
{
    TGL_ASSERT(batch_size_ > 0);
    std::iota(order_.begin(), order_.end(), 0u);
    if (shuffle_) {
        random_.shuffle(order_);
    }
}

std::size_t
DataLoader::num_batches() const
{
    return (dataset_.size() + batch_size_ - 1) / batch_size_;
}

void
DataLoader::start_epoch()
{
    if (shuffle_) {
        random_.shuffle(order_);
    }
}

std::span<const std::uint32_t>
DataLoader::indices(std::size_t b) const
{
    const std::size_t begin = b * batch_size_;
    TGL_ASSERT(begin < dataset_.size());
    const std::size_t end =
        std::min(dataset_.size(), begin + batch_size_);
    return {order_.data() + begin, end - begin};
}

void
DataLoader::batch(std::size_t b, Tensor& features,
                  std::vector<float>& binary_labels,
                  std::vector<std::uint32_t>& class_labels) const
{
    const std::span<const std::uint32_t> examples = indices(b);
    const std::size_t dim = dataset_.features.cols();

    features.resize(examples.size(), dim);
    binary_labels.clear();
    class_labels.clear();
    for (std::size_t i = 0; i < examples.size(); ++i) {
        const std::uint32_t example = examples[i];
        const auto src = dataset_.features.row(example);
        auto dst = features.row(i);
        for (std::size_t c = 0; c < dim; ++c) {
            dst[c] = src[c];
        }
        if (!dataset_.binary_labels.empty()) {
            binary_labels.push_back(dataset_.binary_labels[example]);
        }
        if (!dataset_.class_labels.empty()) {
            class_labels.push_back(dataset_.class_labels[example]);
        }
    }
}

} // namespace tgl::nn
