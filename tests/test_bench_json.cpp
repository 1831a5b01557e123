/// @file
/// Regression tests for the BENCH_*.json writer (bench/bench_json.hpp).
///
/// The load-bearing one is meta order-independence: write_bench_json()
/// takes the meta vector as one argument at the single emission call,
/// so a harness that learned provenance (the SIMD ISA probe, the sweep
/// kind) after its measurement loops had to thread that state back to
/// the call site — BENCH_serve.json silently shipped without its
/// `simd_isa` key in an early draft, which made tools/bench_compare.py
/// treat cross-ISA baselines as comparable. BenchReport::set_meta()
/// may now run before, between, or after add() calls and must always
/// land in the meta block, next to the `hardware_threads` key every
/// suite records.
#include "bench/bench_json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <fstream>
#include <sstream>
#include <string>

namespace {

using namespace tgl;

std::string
slurp(const std::string& path)
{
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/// The meta pair every suite carries on this host.
std::string
hardware_threads_meta()
{
    return "\"hardware_threads\": \"" +
           std::to_string(util::host_info().hardware_threads) + "\"";
}

class TempJson
{
  public:
    TempJson() : path_(testing::TempDir() + "bench_json_test.json") {}
    ~TempJson() { std::remove(path_.c_str()); }
    const std::string& path() const { return path_; }

  private:
    std::string path_;
};

TEST(BenchJson, MetaSetAfterEntriesStillEmitted)
{
    TempJson file;
    bench::BenchReport report("suite");
    report.add({"walk/a", 1.5, 10.0, {}});
    report.add({"walk/b", 2.5, 20.0, {{"count", 3.0}}});
    // Provenance learned after the measurement loop — the historical
    // dropped-meta shape.
    report.set_meta("simd_isa", "avx2");
    report.write(file.path());

    const std::string json = slurp(file.path());
    EXPECT_NE(json.find("\"meta\": {\"simd_isa\": \"avx2\", " +
                        hardware_threads_meta() + "}"),
              std::string::npos)
        << json;
    // Meta precedes entries regardless of call order.
    EXPECT_LT(json.find("\"meta\""), json.find("\"entries\""));
    EXPECT_NE(json.find("\"walk/a\""), std::string::npos);
    EXPECT_NE(json.find("\"walk/b\""), std::string::npos);
}

TEST(BenchJson, SetMetaUpsertsLastValueWins)
{
    TempJson file;
    bench::BenchReport report("suite");
    report.set_meta("sweep", "short");
    report.add({"x", 1.0, 0.0, {}});
    report.set_meta("sweep", "long");
    report.write(file.path());

    const std::string json = slurp(file.path());
    EXPECT_NE(json.find("\"sweep\": \"long\""), std::string::npos);
    EXPECT_EQ(json.find("\"sweep\": \"short\""), std::string::npos);
}

TEST(BenchJson, HigherIsBetterEmittedPerEntry)
{
    TempJson file;
    bench::BenchReport report("serve");
    report.add({"serve/link_p99", 0.002, 0.0, {}});
    report.add({"serve/peak_qps", 50000.0, 50000.0, {}, "qps",
                /*higher_is_better=*/true});
    report.write(file.path());

    const std::string json = slurp(file.path());
    EXPECT_NE(json.find("\"name\": \"serve/link_p99\", \"seconds\": "
                        "0.002, \"items_per_second\": 0, \"unit\": "
                        "\"seconds\", \"higher_is_better\": false"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"unit\": \"qps\", \"higher_is_better\": true"),
              std::string::npos)
        << json;
}

TEST(BenchJson, PositionalAggregateInitKeepsGateDefaults)
{
    // Every pre-existing timing call site initializes BenchEntry
    // positionally through `metrics` and relies on the trailing fields
    // defaulting to a gateable timing entry. Appending fields must not
    // disturb that.
    const bench::BenchEntry entry{"pipeline/walk", 1.0, 2.0, {}};
    EXPECT_EQ(entry.unit, "seconds");
    EXPECT_FALSE(entry.higher_is_better);
}

TEST(BenchJson, NoMetaStillRecordsHardwareThreads)
{
    // tools/bench_compare.py refuses to compare suites timed on hosts
    // with different thread counts, so even a suite without provenance
    // of its own records one.
    TempJson file;
    bench::BenchReport report("suite");
    report.add({"x", 1.0, 0.0, {}});
    report.write(file.path());
    EXPECT_NE(slurp(file.path())
                  .find("\"meta\": {" + hardware_threads_meta() + "}"),
              std::string::npos);
}

TEST(BenchJson, DegenerateNumbersClampToZero)
{
    TempJson file;
    bench::BenchReport report("suite");
    report.add({"nan", std::nan(""),
                std::numeric_limits<double>::infinity(), {}});
    report.write(file.path());
    const std::string json = slurp(file.path());
    EXPECT_NE(json.find("\"seconds\": 0, \"items_per_second\": 0"),
              std::string::npos)
        << json;
}

} // namespace
