/// @file
/// Mini-batch iteration over feature/label datasets.
///
/// The paper's PyTorch pipeline pays heavily for multi-process data
/// loading workers (SVIII-A recommends in-process multi-threading);
/// this loader is the in-process design: zero-copy feature storage and
/// an epoch-shuffled index, so batch assembly is a gather.
#pragma once

#include "nn/tensor.hpp"
#include "rng/random.hpp"

#include <cstdint>
#include <span>
#include <vector>

namespace tgl::nn {

/// A supervised dataset: one feature row + one label per example.
/// Binary tasks use float labels in {0, 1}; multi-class tasks use
/// class indices.
struct TaskDataset
{
    Tensor features;                      ///< (examples x feature_dim)
    std::vector<float> binary_labels;     ///< link prediction
    std::vector<std::uint32_t> class_labels; ///< node classification

    std::size_t size() const { return features.rows(); }
};

/// Shuffling mini-batch view over a TaskDataset.
class DataLoader
{
  public:
    /// @param dataset borrowed; must outlive the loader
    DataLoader(const TaskDataset& dataset, std::size_t batch_size,
               bool shuffle, std::uint64_t seed);

    /// Number of batches per epoch (last batch may be short).
    std::size_t num_batches() const;

    /// Reshuffle for a new epoch.
    void start_epoch();

    /// Dataset rows of batch b in this epoch's order (the rows batch()
    /// gathers). Valid until the next start_epoch().
    std::span<const std::uint32_t> indices(std::size_t b) const;

    /// Materialize batch b: gathers features and the matching labels.
    void batch(std::size_t b, Tensor& features,
               std::vector<float>& binary_labels,
               std::vector<std::uint32_t>& class_labels) const;

  private:
    const TaskDataset& dataset_;
    std::size_t batch_size_;
    bool shuffle_;
    rng::Random random_;
    std::vector<std::uint32_t> order_;
};

} // namespace tgl::nn
