/// @file
/// Table III reproduction: end-to-end phase time breakdown across
/// synthetic Erdős–Rényi graphs of growing edge counts, for the
/// standard CPU execution and the batched "GPU execution model"
/// word2vec (the cross-platform comparison column).
///
/// Paper findings: (1) classifier training dominates end-to-end time;
/// (2) every phase grows monotonically with graph size; (3) the
/// batched/GPU execution loses at small sizes (fixed overheads) and
/// wins at large sizes. The default run scales the paper's 1M-node
/// configs down 100x; pass --node-scale 1 for paper size.
#include "tgl/tgl.hpp"

#include <cstdio>

int
main(int argc, char** argv)
{
    using namespace tgl;
    util::CliParser cli("table3_time_breakdown",
                        "Table III: phase time breakdown vs graph size");
    cli.add_flag("node-scale", "0.01",
                 "scale on the paper's 1M-node configs");
    cli.add_flag("max-rows", "6", "how many of the 9 size rows to run");
    cli.add_flag("seed", "1", "random seed");
    cli.add_flag("sgns-backend", "auto",
                 "SGNS kernel backend: auto | scalar | simd");
    try {
        if (!cli.parse(argc, argv)) {
            return 0;
        }
        const double node_scale = cli.get_double("node-scale");
        const long long max_rows = cli.get_int("max-rows");
        const auto seed =
            static_cast<std::uint64_t>(cli.get_int("seed"));
        const auto sgns_backend = embed::kernels::parse_sgns_backend(
            cli.get_string("sgns-backend"));
        if (!sgns_backend) {
            util::fatal("--sgns-backend expects auto | scalar | simd");
        }

        // Paper rows: 1M nodes x {100k, 1M, 2M, 5M, 10M, 20M, 50M,
        // 100M, 200M} edges.
        const double edge_multipliers[] = {0.1, 1, 2, 5, 10, 20, 50,
                                           100, 200};
        const auto nodes = static_cast<graph::NodeId>(1e6 * node_scale);

        std::printf("# Table III reproduction — ER graphs, %s nodes "
                    "(paper: 1M), per-epoch train times; cpu = "
                    "Hogwild w2v, batched = GPU execution model\n",
                    util::format_count(nodes).c_str());
        std::printf("%-14s %10s %10s %12s %12s %12s %10s\n", "graph",
                    "rwalk(s)", "w2v-cpu(s)", "w2v-batch(s)",
                    "train/ep(s)", "test(s)", "total(s)");

        for (int row = 0;
             row < static_cast<int>(std::size(edge_multipliers)) &&
             row < max_rows;
             ++row) {
            const auto edge_count = static_cast<graph::EdgeId>(
                1e6 * edge_multipliers[row] * node_scale);
            const auto edges = gen::generate_erdos_renyi(
                {.num_nodes = nodes, .num_edges = edge_count,
                 .seed = seed});

            core::PipelineConfig config;
            config.walk.walks_per_node = 10;
            config.walk.max_length = 6;
            config.walk.seed = seed;
            config.sgns.dim = 8;
            config.sgns.epochs = 1;
            config.sgns.seed = seed;
            config.sgns.backend = *sgns_backend;
            config.classifier.max_epochs = 3;

            const core::PipelineResult cpu =
                core::run_link_prediction_pipeline(edges, config);

            config.w2v_mode = core::W2vMode::kBatched;
            config.w2v_batch_size = 16384;
            const core::PipelineResult batched =
                core::run_link_prediction_pipeline(edges, config);

            std::printf(
                "%-3s,%-9s %10.3f %10.3f %12.3f %12.3f %12.3f %10.3f\n",
                util::format_count(nodes).c_str(),
                util::format_count(edge_count).c_str(),
                cpu.times.random_walk, cpu.times.word2vec,
                batched.times.word2vec, cpu.times.train_per_epoch,
                cpu.times.test, cpu.times.total());
        }
        std::printf("\n# paper shape check: train dominates total "
                    "time; all phases grow with edges; the batched "
                    "w2v column overtakes the cpu column as graphs "
                    "grow.\n");
    } catch (const util::Error& error) {
        std::fprintf(stderr, "error: %s\n", error.what());
        return 1;
    }
    return 0;
}
