/// Forced-degradation tests for obs/perf_events: with
/// TGL_PERF_DISABLE=1 the probe must report unavailable and every
/// scope must behave exactly as if counters were off — same pipeline
/// results, no perf.* metrics, no crashes — regardless of the
/// requested mode. The probe result is latched process-wide
/// (std::call_once), so this lives in its own binary with a custom
/// main() that sets the env var before any test can trigger the probe.
#include "obs/metrics.hpp"
#include "obs/perf_events.hpp"
#include "obs/trace.hpp"

#include "gen/erdos_renyi.hpp"
#include "graph/builder.hpp"
#include "walk/engine.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

namespace tgl::obs {
namespace {

TEST(PerfDisabled, ProbeReportsTheEnvOverride)
{
    set_perf_mode(PerfMode::kOn);
    const PerfAvailability& availability = perf_availability();
    EXPECT_FALSE(availability.available);
    EXPECT_NE(availability.reason.find("TGL_PERF_DISABLE"),
              std::string::npos)
        << availability.reason;
    EXPECT_FALSE(perf_active());
}

TEST(PerfDisabled, ScopesAreInertUnderEveryMode)
{
    for (const PerfMode mode : {PerfMode::kOff, PerfMode::kOn}) {
        set_perf_mode(mode);
        PerfScope scope("disabled_phase");
        EXPECT_FALSE(scope.active());
        EXPECT_FALSE(scope.sample().valid);
        EXPECT_FALSE(scope.close().valid);
    }
    EXPECT_FALSE(perf_phase_total("disabled_phase").valid);
    EXPECT_TRUE(perf_phase_totals().empty());
}

TEST(PerfDisabled, RankScopesAreInert)
{
    set_perf_mode(PerfMode::kOn);
    PerfRankScopes scopes("disabled_ranked", 4);
    scopes.ensure(0);
    EXPECT_FALSE(scopes.close().valid);
}

/// The acceptance property: a counters-requested run must produce
/// byte-identical results to a counters-off run — degradation may
/// drop the perf.* metrics, never change behavior.
TEST(PerfDisabled, WalkResultsMatchCountersOffExactly)
{
    const auto edges = gen::generate_erdos_renyi(
        {.num_nodes = 500, .num_edges = 4000, .seed = 7});
    const auto graph = graph::GraphBuilder::build(edges);
    walk::WalkConfig config;
    config.walks_per_node = 4;
    config.max_length = 5;
    config.seed = 7;

    set_perf_mode(PerfMode::kOff);
    const walk::Corpus off = walk::generate_walks(graph, config);
    set_perf_mode(PerfMode::kOn); // degraded: must change nothing
    const walk::Corpus on = walk::generate_walks(graph, config);

    EXPECT_EQ(off.tokens(), on.tokens());
    EXPECT_EQ(off.offsets(), on.offsets());
}

TEST(PerfDisabled, NoPerfMetricsEverReachTheRegistry)
{
    set_perf_mode(PerfMode::kOn);
    {
        PerfScope scope("leak_check");
        TraceSession session;
        session.start();
        { Span span("span.with.perf", "leak_check"); }
        session.stop();
    }
    for (const MetricValue& metric :
         Registry::global().snapshot().metrics) {
        EXPECT_NE(metric.name.rfind("perf.", 0), 0u)
            << "unexpected metric " << metric.name;
    }
}

} // namespace
} // namespace tgl::obs

int
main(int argc, char** argv)
{
    // Before InitGoogleTest and before anything can run the one-shot
    // probe — this is the whole reason for the custom main().
    ::setenv("TGL_PERF_DISABLE", "1", 1);
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
