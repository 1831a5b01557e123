/// @file
/// Micro-benchmarks of the temporal random walk kernel: transition
/// model cost, neighbor-search ablation (binary vs the paper's linear
/// scan), strictness modes, and the prefix-CDF transition cache
/// against the direct exp-scan. Throughput is reported in walk steps
/// per second.
///
/// After the google-benchmark suite, a dedicated comparison harness
/// times cached vs direct sampling on a degree-skewed R-MAT graph and
/// records the measurements (including the cached/direct speedup per
/// transition kind) to BENCH_walk.json — see bench_json.hpp for the
/// schema.
#include "bench_json.hpp"
#include "tgl/tgl.hpp"
#include "util/timer.hpp"

#include <benchmark/benchmark.h>

#include <cstdio>

namespace {

using namespace tgl;

const graph::TemporalGraph&
shared_graph()
{
    static const graph::TemporalGraph graph = [] {
        const auto dataset = gen::make_dataset("ia-email", 0.05, 7);
        return graph::GraphBuilder::build(dataset.edges,
                                          {.symmetrize = true});
    }();
    return graph;
}

void
run_walks(benchmark::State& state, walk::TransitionKind transition,
          bool linear_search,
          walk::TransitionCacheMode cache = walk::TransitionCacheMode::kOff)
{
    const graph::TemporalGraph& graph = shared_graph();
    walk::WalkConfig config;
    config.walks_per_node = 2;
    config.max_length = 6;
    config.transition = transition;
    config.linear_neighbor_search = linear_search;
    config.transition_cache = cache;
    config.seed = 11;

    std::uint64_t steps = 0;
    for (auto _ : state) {
        walk::WalkProfile profile;
        const walk::Corpus corpus =
            walk::generate_walks(graph, config, &profile);
        benchmark::DoNotOptimize(corpus.num_tokens());
        steps += profile.steps_taken;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(steps));
}

void
BM_WalkUniform(benchmark::State& state)
{
    run_walks(state, walk::TransitionKind::kUniform, false);
}

void
BM_WalkExponential(benchmark::State& state)
{
    run_walks(state, walk::TransitionKind::kExponential, false);
}

void
BM_WalkExponentialDecay(benchmark::State& state)
{
    run_walks(state, walk::TransitionKind::kExponentialDecay, false);
}

void
BM_WalkLinearBias(benchmark::State& state)
{
    run_walks(state, walk::TransitionKind::kLinear, false);
}

void
BM_WalkLinearNeighborScan(benchmark::State& state)
{
    // The paper's O(max-degree) sampleLatent search.
    run_walks(state, walk::TransitionKind::kExponential, true);
}

void
BM_WalkBinaryNeighborSearch(benchmark::State& state)
{
    run_walks(state, walk::TransitionKind::kExponential, false);
}

void
BM_WalkExponentialCached(benchmark::State& state)
{
    // Prefix-CDF path, table built inside generate_walks each
    // iteration (the honest amortized cost a pipeline run pays).
    run_walks(state, walk::TransitionKind::kExponential, false,
              walk::TransitionCacheMode::kOn);
}

void
BM_WalkExponentialDecayCached(benchmark::State& state)
{
    run_walks(state, walk::TransitionKind::kExponentialDecay, false,
              walk::TransitionCacheMode::kOn);
}

BENCHMARK(BM_WalkUniform)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_WalkExponential)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_WalkExponentialDecay)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_WalkLinearBias)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_WalkLinearNeighborScan)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_WalkBinaryNeighborSearch)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_WalkExponentialCached)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_WalkExponentialDecayCached)->Unit(benchmark::kMillisecond);

void
BM_WalkLengthSweep(benchmark::State& state)
{
    const graph::TemporalGraph& graph = shared_graph();
    walk::WalkConfig config;
    config.walks_per_node = 2;
    config.max_length = static_cast<unsigned>(state.range(0));
    config.seed = 13;
    for (auto _ : state) {
        const walk::Corpus corpus = walk::generate_walks(graph, config);
        benchmark::DoNotOptimize(corpus.num_tokens());
    }
}

BENCHMARK(BM_WalkLengthSweep)
    ->Arg(2)
    ->Arg(6)
    ->Arg(20)
    ->Arg(80)
    ->Unit(benchmark::kMillisecond);

/// Best-of-N wall time of one full generate_walks call; returns steps
/// taken via @p steps so rates use the measured run's real work.
double
time_walks(const graph::TemporalGraph& graph, walk::WalkConfig config,
           walk::TransitionCacheMode mode, std::uint64_t* steps)
{
    config.transition_cache = mode;
    constexpr int kReps = 3;
    double best = 1e300;
    for (int rep = 0; rep < kReps; ++rep) {
        walk::WalkProfile profile;
        util::Timer timer;
        const walk::Corpus corpus =
            walk::generate_walks(graph, config, &profile);
        const double seconds = timer.seconds();
        benchmark::DoNotOptimize(corpus.num_tokens());
        if (seconds < best) {
            best = seconds;
            *steps = profile.steps_taken;
        }
    }
    return best;
}

/// Cached-vs-direct A/B on a degree-skewed R-MAT graph (mean degree
/// >= 16, the regime the cache targets), written to BENCH_walk.json.
void
run_cache_comparison()
{
    gen::RmatParams params;
    params.scale = 14;                // 16384 nodes
    params.num_edges = 1u << 18;      // 262144 edges -> skewed degrees
    params.seed = 5;
    const auto graph = graph::GraphBuilder::build(generate_rmat(params),
                                                  {.symmetrize = true});
    const double mean_degree = static_cast<double>(graph.num_edges()) /
                               static_cast<double>(graph.num_nodes());

    walk::WalkConfig config;
    config.walks_per_node = 4;
    config.max_length = 20;
    config.seed = 17;

    std::vector<bench::BenchEntry> entries;
    std::printf("\n--- prefix-CDF cache vs direct exp-scan (R-MAT "
                "2^%u nodes, %llu edges, mean degree %.1f) ---\n",
                params.scale,
                static_cast<unsigned long long>(graph.num_edges()),
                mean_degree);
    for (const walk::TransitionKind kind :
         {walk::TransitionKind::kExponential,
          walk::TransitionKind::kExponentialDecay,
          walk::TransitionKind::kLinear, walk::TransitionKind::kUniform}) {
        config.transition = kind;
        std::uint64_t direct_steps = 0, cached_steps = 0;
        const double direct = time_walks(
            graph, config, walk::TransitionCacheMode::kOff, &direct_steps);
        const double cached = time_walks(
            graph, config, walk::TransitionCacheMode::kOn, &cached_steps);
        const double speedup = cached > 0.0 ? direct / cached : 0.0;

        const std::string name = walk::transition_name(kind);
        entries.push_back(
            {"walk/" + name + "/direct", direct,
             direct > 0.0 ? direct_steps / direct : 0.0,
             {{"steps", static_cast<double>(direct_steps)},
              {"mean_degree", mean_degree}}});
        entries.push_back(
            {"walk/" + name + "/cached", cached,
             cached > 0.0 ? cached_steps / cached : 0.0,
             {{"steps", static_cast<double>(cached_steps)},
              {"mean_degree", mean_degree},
              {"speedup_vs_direct", speedup}}});
        std::printf("%-10s direct %8.4fs | cached %8.4fs | speedup "
                    "%5.2fx\n",
                    name.c_str(), direct, cached, speedup);
    }
    bench::write_bench_json("BENCH_walk.json", "walk", entries);
}

} // namespace

int
main(int argc, char** argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
        return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    run_cache_comparison();
    return 0;
}
