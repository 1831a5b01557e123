/// @file
/// Micro-benchmarks of the GEMM substrate at the paper's classifier
/// shapes (tiny, skinny matrices — the shapes SVIII-A says vendor
/// libraries mishandle) and at VGG-like shapes for contrast, plus the
/// blocked-vs-naive ablation and one link-predictor training step on
/// the layered path and on the fused kernel.
///
/// GEMMs of at least kParallelFlopThreshold flops run on the thread
/// pool, so those cases report wall time (UseRealTime): rates from the
/// main thread's CPU time alone would overstate them.
#include "nn/gemm.hpp"
#include "nn/link_kernel.hpp"
#include "nn/loss.hpp"
#include "nn/optim.hpp"
#include "rng/random.hpp"

#include <benchmark/benchmark.h>

#include <optional>

namespace {

using namespace tgl;

nn::Tensor
random_tensor(std::size_t rows, std::size_t cols, std::uint64_t seed)
{
    nn::Tensor t(rows, cols);
    rng::Random random(seed);
    for (std::size_t i = 0; i < t.size(); ++i) {
        t.data()[i] = random.next_float() - 0.5f;
    }
    return t;
}

void
BM_MatmulSquare(benchmark::State& state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const nn::Tensor a = random_tensor(n, n, 1);
    const nn::Tensor b = random_tensor(n, n, 2);
    nn::Tensor c;
    for (auto _ : state) {
        nn::matmul(a, b, c);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 *
                            static_cast<std::int64_t>(n * n * n));
}

BENCHMARK(BM_MatmulSquare)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Arg(512)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void
BM_MatmulNaiveSquare(benchmark::State& state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const nn::Tensor a = random_tensor(n, n, 1);
    const nn::Tensor b = random_tensor(n, n, 2);
    nn::Tensor c;
    for (auto _ : state) {
        nn::matmul_naive(a, b, c);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 2 *
                            static_cast<std::int64_t>(n * n * n));
}

BENCHMARK(BM_MatmulNaiveSquare)
    ->Arg(16)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMicrosecond);

/// The classifier's actual forward shape: batch x 2d times hidden.
void
BM_ClassifierForwardShape(benchmark::State& state)
{
    const auto batch = static_cast<std::size_t>(state.range(0));
    const nn::Tensor x = random_tensor(batch, 16, 3);
    const nn::Tensor w = random_tensor(16, 16, 4);
    nn::Tensor y;
    for (auto _ : state) {
        nn::matmul_nt(x, w, y);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(2 * batch * 16 * 16));
}

BENCHMARK(BM_ClassifierForwardShape)
    ->Arg(64)
    ->Arg(256)
    ->Arg(4096)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

/// VGG-like fat shape for the per-instruction-efficiency contrast the
/// paper draws (37.4x, SVII-B).
void
BM_VggLikeShape(benchmark::State& state)
{
    const nn::Tensor x = random_tensor(64, 2048, 5);
    const nn::Tensor w = random_tensor(1024, 2048, 6);
    nn::Tensor y;
    for (auto _ : state) {
        nn::matmul_nt(x, w, y);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(2ll * 64 * 2048 * 1024));
}

BENCHMARK(BM_VggLikeShape)->UseRealTime()->Unit(benchmark::kMillisecond);

void
BM_GradientShapes(benchmark::State& state)
{
    // dW = dY^T X at classifier sizes.
    const nn::Tensor dy = random_tensor(256, 16, 7);
    const nn::Tensor x = random_tensor(256, 16, 8);
    nn::Tensor dw;
    for (auto _ : state) {
        nn::matmul_tn(dy, x, dw);
        benchmark::DoNotOptimize(dw.data());
    }
}

BENCHMARK(BM_GradientShapes)->Unit(benchmark::kMicrosecond);

/// One SGD mini-batch of the paper's link predictor (batch 256, 16 ->
/// 16 -> 1, momentum 0.9) over shuffled rows of a dataset larger than
/// L2, as in training: the layered nn::Mlp path or the fused kernel.
void
BM_LinkPredictorStep(benchmark::State& state, bool fused)
{
    constexpr std::size_t kRows = 1 << 16;
    nn::TaskDataset data;
    data.features = random_tensor(kRows, 16, 9);
    rng::Random random(10);
    for (std::size_t i = 0; i < kRows; ++i) {
        data.binary_labels.push_back(random.next_index(2) ? 1.0f : 0.0f);
    }
    nn::Mlp net = nn::make_link_predictor(16, 16, random);
    std::optional<nn::LinkKernel> kernel;
    if (fused) {
        kernel.emplace(net);
    }
    nn::Sgd optimizer(kernel ? kernel->parameters() : net.parameters(),
                      0.05f, 0.9f);
    nn::DataLoader loader(data, 256, true, 11);
    nn::Tensor features;
    std::vector<float> binary;
    std::vector<std::uint32_t> classes;
    std::size_t b = 0;
    for (auto _ : state) {
        double loss = 0.0;
        if (kernel) {
            loss = kernel->train_step(data, loader.indices(b));
        } else {
            loader.batch(b, features, binary, classes);
            const nn::LossResult result =
                nn::binary_cross_entropy(net.forward(features), binary);
            optimizer.zero_grad();
            net.backward(result.grad);
            loss = result.loss;
        }
        optimizer.step();
        benchmark::DoNotOptimize(loss);
        b = (b + 1) % loader.num_batches();
    }
    state.SetItemsProcessed(state.iterations() * 256);
}

BENCHMARK_CAPTURE(BM_LinkPredictorStep, layered, false)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_LinkPredictorStep, kernel, true)
    ->Unit(benchmark::kMicrosecond);

} // namespace
