/// @file
/// Micro-benchmarks of the graph substrate: CSR construction, temporal
/// neighborhood queries (binary search vs the paper's linear scan),
/// and membership tests.
#include "gen/barabasi_albert.hpp"
#include "gen/erdos_renyi.hpp"
#include "graph/builder.hpp"
#include "rng/random.hpp"

#include <benchmark/benchmark.h>

namespace {

using namespace tgl;

const graph::EdgeList&
shared_edges()
{
    static const graph::EdgeList edges = gen::generate_barabasi_albert(
        {.num_nodes = 20000, .edges_per_node = 5, .seed = 5});
    return edges;
}

const graph::TemporalGraph&
shared_graph()
{
    static const graph::TemporalGraph graph =
        graph::GraphBuilder::build(shared_edges(), {.symmetrize = true});
    return graph;
}

void
BM_BuildCsr(benchmark::State& state)
{
    const graph::EdgeList& edges = shared_edges();
    for (auto _ : state) {
        benchmark::DoNotOptimize(graph::GraphBuilder::build(edges));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(edges.size()));
}

BENCHMARK(BM_BuildCsr)->Unit(benchmark::kMillisecond);

void
BM_BuildCsrSymmetrized(benchmark::State& state)
{
    const graph::EdgeList& edges = shared_edges();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            graph::GraphBuilder::build(edges, {.symmetrize = true}));
    }
}

BENCHMARK(BM_BuildCsrSymmetrized)->Unit(benchmark::kMillisecond);

void
BM_TemporalNeighborsBinary(benchmark::State& state)
{
    const graph::TemporalGraph& graph = shared_graph();
    rng::Random random(1);
    for (auto _ : state) {
        const auto u = static_cast<graph::NodeId>(
            random.next_index(graph.num_nodes()));
        benchmark::DoNotOptimize(
            graph.temporal_neighbors(u, random.next_double(), true));
    }
}

BENCHMARK(BM_TemporalNeighborsBinary);

void
BM_TemporalNeighborsLinear(benchmark::State& state)
{
    const graph::TemporalGraph& graph = shared_graph();
    rng::Random random(1);
    std::vector<std::uint32_t> scratch;
    for (auto _ : state) {
        const auto u = static_cast<graph::NodeId>(
            random.next_index(graph.num_nodes()));
        benchmark::DoNotOptimize(graph.temporal_neighbors_linear(
            u, random.next_double(), true, scratch));
    }
}

BENCHMARK(BM_TemporalNeighborsLinear);

void
BM_HasEdge(benchmark::State& state)
{
    const graph::TemporalGraph& graph = shared_graph();
    rng::Random random(2);
    for (auto _ : state) {
        const auto u = static_cast<graph::NodeId>(
            random.next_index(graph.num_nodes()));
        const auto v = static_cast<graph::NodeId>(
            random.next_index(graph.num_nodes()));
        benchmark::DoNotOptimize(graph.has_edge(u, v));
    }
}

BENCHMARK(BM_HasEdge);

void
BM_ErdosRenyiGenerate(benchmark::State& state)
{
    const auto edges = static_cast<graph::EdgeId>(state.range(0));
    for (auto _ : state) {
        benchmark::DoNotOptimize(gen::generate_erdos_renyi(
            {.num_nodes = 10000, .num_edges = edges, .seed = 3}));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(edges));
}

BENCHMARK(BM_ErdosRenyiGenerate)
    ->Arg(10000)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

} // namespace
