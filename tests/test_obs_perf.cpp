/// Unit tests for obs/perf_events (hardware counters), the perf-aware
/// trace spans, and the getrusage process gauges.
///
/// The syscall-backed tests cannot assume a PMU: CI containers hide
/// hardware events and sometimes the whole syscall. They therefore
/// GTEST_SKIP when perf_availability() reports the host refused, and
/// the deterministic parts (mode parsing, sample math, span-arg
/// rendering, JSON escaping) run everywhere. The forced-degradation
/// path has its own binary (test_obs_perf_disabled) because the
/// TGL_PERF_DISABLE probe result is latched process-wide.
#include "obs/metrics.hpp"
#include "obs/perf_events.hpp"
#include "obs/process_stats.hpp"
#include "obs/trace.hpp"

#include "util/parallel_for.hpp"
#include "util/string_util.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <string>
#include <vector>

namespace tgl::obs {
namespace {

/// Every test leaves the process-wide mode off so suites compose.
class PerfTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        set_perf_mode(PerfMode::kOff);
        perf_reset_phase_totals();
    }
    void TearDown() override
    {
        set_perf_mode(PerfMode::kOff);
        perf_reset_phase_totals();
    }

    /// Enable counters; skip the calling test when the host refuses.
    void require_counters()
    {
        set_perf_mode(PerfMode::kOn);
        if (!perf_availability().available) {
            GTEST_SKIP() << "perf counters unavailable: "
                         << perf_availability().reason;
        }
    }

    /// A little on-CPU work so task-clock style counters move.
    static double burn()
    {
        volatile double sink = 1.0;
        for (int i = 0; i < 200000; ++i) {
            sink = sink * 1.0000001 + 0.5;
        }
        return sink;
    }
};

PerfSample
synthetic_sample()
{
    PerfSample sample;
    sample.valid = true;
    const auto set = [&sample](PerfEvent event, double value) {
        sample.values[static_cast<std::size_t>(event)] = value;
        sample.present[static_cast<std::size_t>(event)] = true;
    };
    set(PerfEvent::kCycles, 1000.0);
    set(PerfEvent::kInstructions, 2000.0);
    set(PerfEvent::kBranches, 400.0);
    set(PerfEvent::kBranchMisses, 40.0);
    set(PerfEvent::kCacheReferences, 100.0);
    set(PerfEvent::kCacheMisses, 25.0);
    set(PerfEvent::kStalledFrontend, 100.0);
    set(PerfEvent::kStalledBackend, 300.0);
    set(PerfEvent::kL1dLoads, 500.0);
    set(PerfEvent::kL1dStores, 100.0);
    sample.time_enabled_seconds = 1.0;
    sample.time_running_seconds = 1.0;
    return sample;
}

TEST_F(PerfTest, ParsePerfModeAcceptsOnAndOff)
{
    EXPECT_EQ(parse_perf_mode("on"), PerfMode::kOn);
    EXPECT_EQ(parse_perf_mode("off"), PerfMode::kOff);
    EXPECT_FALSE(parse_perf_mode("auto").has_value());
    EXPECT_FALSE(parse_perf_mode("ON").has_value());
    EXPECT_FALSE(parse_perf_mode("").has_value());
    EXPECT_FALSE(parse_perf_mode("yes").has_value());
}

TEST_F(PerfTest, SetPerfModeIsObservable)
{
    set_perf_mode(PerfMode::kOn);
    EXPECT_EQ(perf_mode(), PerfMode::kOn);
    set_perf_mode(PerfMode::kOff);
    EXPECT_EQ(perf_mode(), PerfMode::kOff);
}

TEST_F(PerfTest, EventNamesAreStableSnakeCase)
{
    EXPECT_STREQ(perf_event_name(PerfEvent::kCycles), "cycles");
    EXPECT_STREQ(perf_event_name(PerfEvent::kInstructions),
                 "instructions");
    EXPECT_STREQ(perf_event_name(PerfEvent::kTaskClock),
                 "task_clock_ns");
    EXPECT_STREQ(perf_event_name(PerfEvent::kL1dLoads), "l1d_loads");
}

TEST_F(PerfTest, DerivedRatiosFromSyntheticSample)
{
    const PerfSample sample = synthetic_sample();
    EXPECT_DOUBLE_EQ(sample.ipc(), 2.0);
    EXPECT_DOUBLE_EQ(sample.llc_miss_rate(), 0.25);
    EXPECT_DOUBLE_EQ(sample.branch_miss_rate(), 0.1);
    EXPECT_DOUBLE_EQ(sample.frontend_stall_fraction(), 0.1);
    EXPECT_DOUBLE_EQ(sample.backend_stall_fraction(), 0.3);
    EXPECT_DOUBLE_EQ(sample.memory_op_fraction(), 0.3);
    EXPECT_DOUBLE_EQ(sample.branch_op_fraction(), 0.2);
}

TEST_F(PerfTest, DerivedRatiosAreZeroWhenInputsAbsent)
{
    PerfSample sample;
    sample.valid = true;
    // Nothing present: every ratio must be 0, never NaN.
    EXPECT_DOUBLE_EQ(sample.ipc(), 0.0);
    EXPECT_DOUBLE_EQ(sample.llc_miss_rate(), 0.0);
    EXPECT_DOUBLE_EQ(sample.branch_miss_rate(), 0.0);
    EXPECT_DOUBLE_EQ(sample.memory_op_fraction(), 0.0);
    // Instructions alone is not enough for IPC.
    sample.values[static_cast<std::size_t>(PerfEvent::kInstructions)] =
        100.0;
    sample.present[static_cast<std::size_t>(PerfEvent::kInstructions)] =
        true;
    EXPECT_DOUBLE_EQ(sample.ipc(), 0.0);
}

TEST_F(PerfTest, SampleAccumulationMergesPresence)
{
    PerfSample total;
    total += synthetic_sample();
    total += synthetic_sample();
    EXPECT_TRUE(total.valid);
    EXPECT_DOUBLE_EQ(total.value(PerfEvent::kCycles), 2000.0);
    EXPECT_DOUBLE_EQ(total.ipc(), 2.0); // ratios survive accumulation
    EXPECT_FALSE(total.has(PerfEvent::kTaskClock));

    // Adding an invalid sample is a no-op.
    const PerfSample before = total;
    total += PerfSample{};
    EXPECT_DOUBLE_EQ(total.value(PerfEvent::kCycles),
                     before.value(PerfEvent::kCycles));
}

TEST_F(PerfTest, SampleDifferenceClampsAtZero)
{
    PerfSample late = synthetic_sample();
    PerfSample early = synthetic_sample();
    late.values[static_cast<std::size_t>(PerfEvent::kCycles)] = 1500.0;
    const PerfSample delta = late - early;
    EXPECT_TRUE(delta.valid);
    EXPECT_DOUBLE_EQ(delta.value(PerfEvent::kCycles), 500.0);
    EXPECT_DOUBLE_EQ(delta.value(PerfEvent::kInstructions), 0.0);
    // A counter that went "backwards" (multiplexing jitter) clamps.
    early.values[static_cast<std::size_t>(PerfEvent::kBranches)] =
        9999.0;
    EXPECT_DOUBLE_EQ((late - early).value(PerfEvent::kBranches), 0.0);
}

TEST_F(PerfTest, SpanArgsRenderPresentEventsAndRatios)
{
    const auto args = perf_span_args(synthetic_sample());
    const auto find = [&args](const std::string& key) -> const double* {
        for (const auto& [name, value] : args) {
            if (name == key) {
                return &value;
            }
        }
        return nullptr;
    };
    ASSERT_NE(find("instructions"), nullptr);
    EXPECT_DOUBLE_EQ(*find("instructions"), 2000.0);
    ASSERT_NE(find("ipc"), nullptr);
    EXPECT_DOUBLE_EQ(*find("ipc"), 2.0);
    ASSERT_NE(find("llc_miss_rate"), nullptr);
    EXPECT_DOUBLE_EQ(*find("llc_miss_rate"), 0.25);
    // Absent events must not render at all.
    EXPECT_EQ(find("task_clock_ns"), nullptr);
}

TEST_F(PerfTest, SpanArgsEmptyForInvalidSample)
{
    EXPECT_TRUE(perf_span_args(PerfSample{}).empty());
}

TEST_F(PerfTest, ScopeIsInertWhenModeOff)
{
    ASSERT_EQ(perf_mode(), PerfMode::kOff);
    PerfScope scope("walk");
    EXPECT_FALSE(scope.active());
    burn();
    EXPECT_FALSE(scope.sample().valid);
    EXPECT_FALSE(scope.close().valid);
    EXPECT_FALSE(perf_phase_total("walk").valid);
}

TEST_F(PerfTest, ScopeMeasuresAndRecordsPhase)
{
    require_counters();
    Registry& registry = Registry::global();
    const MetricsSnapshot before = registry.snapshot();

    PerfScope scope("unit_test_phase");
    ASSERT_TRUE(scope.active());
    burn();
    const PerfSample mid = scope.sample();
    EXPECT_TRUE(mid.valid);
    EXPECT_TRUE(scope.active()); // sample() keeps the scope open
    const PerfSample final_sample = scope.close();
    ASSERT_TRUE(final_sample.valid);

    // At least one event scheduled, with a positive reading (the
    // standard set includes software task-clock precisely so this
    // holds on PMU-less hosts).
    bool any = false;
    for (std::size_t i = 0; i < kNumPerfEvents; ++i) {
        if (final_sample.present[i]) {
            any = true;
            EXPECT_GE(final_sample.values[i], 0.0);
        }
    }
    EXPECT_TRUE(any);
    EXPECT_GT(final_sample.time_enabled_seconds, 0.0);

    // Phase aggregate and registry metrics picked the deltas up.
    const PerfSample total = perf_phase_total("unit_test_phase");
    ASSERT_TRUE(total.valid);
    const MetricsSnapshot after = registry.snapshot();
    bool any_metric = false;
    for (const MetricValue& metric : after.metrics) {
        if (metric.name.rfind("perf.unit_test_phase.", 0) == 0) {
            any_metric = true;
            EXPECT_GE(metric.value, 0.0);
        }
    }
    EXPECT_TRUE(any_metric);
    EXPECT_EQ(before.find("perf.unit_test_phase.task_clock_ns"),
              nullptr);

    // close() is idempotent: totals must not double.
    const double first_total = total.time_enabled_seconds;
    scope.close();
    EXPECT_DOUBLE_EQ(
        perf_phase_total("unit_test_phase").time_enabled_seconds,
        first_total);
}

TEST_F(PerfTest, NestedScopeOnSameThreadIsInert)
{
    require_counters();
    PerfScope outer("outer_phase");
    ASSERT_TRUE(outer.active());
    {
        PerfScope inner("inner_phase");
        EXPECT_FALSE(inner.active()); // depth guard: no double count
        burn();
    }
    outer.close();
    EXPECT_TRUE(perf_phase_total("outer_phase").valid);
    EXPECT_FALSE(perf_phase_total("inner_phase").valid);
}

TEST_F(PerfTest, PhaseTotalsAccumulateAcrossScopes)
{
    require_counters();
    {
        PerfScope first("accum_phase");
        burn();
    }
    const double after_one =
        perf_phase_total("accum_phase").time_enabled_seconds;
    {
        PerfScope second("accum_phase");
        burn();
    }
    const double after_two =
        perf_phase_total("accum_phase").time_enabled_seconds;
    EXPECT_GT(after_one, 0.0);
    EXPECT_GT(after_two, after_one);

    bool listed = false;
    for (const auto& [phase, sample] : perf_phase_totals()) {
        listed = listed || (phase == "accum_phase" && sample.valid);
    }
    EXPECT_TRUE(listed);

    perf_reset_phase_totals();
    EXPECT_FALSE(perf_phase_total("accum_phase").valid);
}

TEST_F(PerfTest, RankScopesAggregateATeam)
{
    require_counters();
    PerfRankScopes scopes("ranked_phase", 4);
    std::atomic<int> work{0};
    util::parallel_for_ranked(
        0, 64,
        [&](std::size_t, unsigned rank) {
            scopes.ensure(rank);
            burn();
            work.fetch_add(1, std::memory_order_relaxed);
        },
        {.num_threads = 4});
    EXPECT_EQ(work.load(), 64);
    const PerfSample aggregate = scopes.close();
    ASSERT_TRUE(aggregate.valid);
    EXPECT_GT(aggregate.time_enabled_seconds, 0.0);
    EXPECT_TRUE(perf_phase_total("ranked_phase").valid);
    // Idempotent close: the aggregate must not record twice.
    const double total =
        perf_phase_total("ranked_phase").time_enabled_seconds;
    scopes.close();
    EXPECT_DOUBLE_EQ(
        perf_phase_total("ranked_phase").time_enabled_seconds, total);
}

TEST_F(PerfTest, RankScopesAreInertWhenModeOff)
{
    ASSERT_EQ(perf_mode(), PerfMode::kOff);
    PerfRankScopes scopes("off_phase", 2);
    util::parallel_for_ranked(
        0, 8, [&](std::size_t, unsigned rank) { scopes.ensure(rank); },
        {.num_threads = 2});
    EXPECT_FALSE(scopes.close().valid);
    EXPECT_FALSE(perf_phase_total("off_phase").valid);
}

TEST_F(PerfTest, PerfSpanAttachesCounterArgs)
{
    require_counters();
    TraceSession session;
    session.start();
    {
        Span span("perf.span.test", "span_phase");
        burn();
        span.arg("custom_arg", 42.0);
    }
    session.stop();
    const std::vector<TraceEvent> events = session.events();
    ASSERT_EQ(events.size(), 1u);
    bool has_custom = false;
    bool has_counter = false;
    for (const auto& [key, value] : events[0].args) {
        has_custom = has_custom || (key == "custom_arg" && value == 42.0);
        has_counter = has_counter || key == "task_clock_ns" ||
                      key == "instructions";
    }
    EXPECT_TRUE(has_custom);
    EXPECT_TRUE(has_counter);
    EXPECT_TRUE(perf_phase_total("span_phase").valid);
}

TEST_F(PerfTest, PerfSpanRecordsMetricsEvenWithoutSession)
{
    require_counters();
    ASSERT_EQ(TraceSession::current(), nullptr);
    {
        Span span("no.session", "sessionless_phase");
        burn();
    }
    EXPECT_TRUE(perf_phase_total("sessionless_phase").valid);
}

// --------------------------------------------------------------------
// Satellite: TraceSession JSON escaping (regression for the lossy
// pre-RFC-8259 escaper, which dropped backslashes and control bytes).

TEST(TraceEscaping, HostileSpanNamesAreEscapedPerJsonSpec)
{
    TraceSession session;
    session.start();
    {
        Span span("evil\"name\\with\nnewline\tand\x01"
                  "ctrl");
    }
    session.stop();
    const std::string json = session.to_chrome_json();
    EXPECT_NE(
        json.find("evil\\\"name\\\\with\\nnewline\\tand\\u0001ctrl"),
        std::string::npos)
        << json;
    // No raw control bytes from the name may survive into the
    // serialized form ('\n' alone is the serializer's own formatting).
    for (const char c : json) {
        if (c != '\n') {
            EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
        }
    }
}

TEST(TraceEscaping, ArgsObjectSerializesNumericValues)
{
    TraceSession session;
    session.start();
    {
        Span span("argful");
        span.arg("count", 3.0);
        span.arg("rate\"key", 0.5); // hostile arg key
    }
    session.stop();
    const std::string json = session.to_chrome_json();
    EXPECT_NE(json.find("\"args\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"count\": 3"), std::string::npos) << json;
    EXPECT_NE(json.find("rate\\\"key"), std::string::npos) << json;
}

TEST(TraceEscaping, MetricNamesAreEscapedInSnapshotJson)
{
    Registry registry;
    registry.counter("weird\"metric\\name").add(1);
    const std::string json = registry.snapshot().to_json();
    EXPECT_NE(json.find("weird\\\"metric\\\\name"), std::string::npos)
        << json;
}

// --------------------------------------------------------------------
// Satellite: process gauges from getrusage.

TEST(ProcessStats, QueryReportsLiveUsage)
{
    const ProcessUsage usage = query_process_usage();
    // Any live test process has touched megabytes of RSS and burned
    // some user time.
    EXPECT_GT(usage.peak_rss_bytes, 1024u * 1024u);
    EXPECT_GE(usage.utime_seconds + usage.stime_seconds, 0.0);
}

TEST(ProcessStats, GaugesLandInSnapshot)
{
    Registry registry;
    record_process_gauges(registry);
    const MetricsSnapshot snapshot = registry.snapshot();
    const MetricValue* rss = snapshot.find("process.peak_rss_bytes");
    ASSERT_NE(rss, nullptr);
    EXPECT_GT(rss->value, 0.0);
    ASSERT_NE(snapshot.find("process.utime_seconds"), nullptr);
    ASSERT_NE(snapshot.find("process.stime_seconds"), nullptr);
    // Re-recording updates rather than duplicating.
    record_process_gauges(registry);
    std::size_t matches = 0;
    for (const MetricValue& metric : registry.snapshot().metrics) {
        matches += metric.name == "process.peak_rss_bytes";
    }
    EXPECT_EQ(matches, 1u);
}

} // namespace
} // namespace tgl::obs
