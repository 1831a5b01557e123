/// @file
/// Machine-readable results for the micro benches.
///
/// Custom comparison harnesses (cached vs direct sampling, and any
/// future A/B kernel) record their measurements as BENCH_<name>.json
/// next to the working directory so CI and scripts can assert on them
/// without scraping console tables. One schema for every bench:
///
///   {
///     "benchmark": "<suite name>",
///     "schema_version": 1,
///     "meta": {"<key>": "<string>", ..., "hardware_threads": "<n>"},
///     "entries": [
///       {"name": "...", "seconds": s, "items_per_second": r,
///        "metrics": {"<key>": v, ...}},
///       ...
///     ]
///   }
///
/// `seconds` is the best-of-N wall time of the measured region,
/// `items_per_second` the work rate at that time, and `metrics` a
/// free-form numeric bag (speedups, counts, sizes). `meta` holds
/// string-valued run provenance (e.g. the SIMD ISA the binary was
/// compiled for); every suite's meta also records the host's
/// `hardware_threads`. tools/bench_compare.py refuses to compare timing
/// suites whose `simd_isa` or `hardware_threads` values differ.
#pragma once

#include "util/env.hpp"
#include "util/string_util.hpp"

#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace tgl::bench {

struct BenchEntry
{
    std::string name;
    double seconds = 0.0;
    double items_per_second = 0.0;
    std::vector<std::pair<std::string, double>> metrics;
    /// What `seconds` measures. "seconds" (default) marks a timing
    /// entry the regression gate may compare; anything else (e.g.
    /// "mix", "stall_share", "qps") marks a counter-valued entry tools
    /// must not treat as a wall-clock measurement. Declared after
    /// `metrics` so the positional aggregate initializers at timing
    /// call sites keep the default.
    std::string unit = "seconds";
    /// Gate direction. false (default): `seconds` is a cost and growth
    /// is a regression. true: the value is a rate (e.g. unit "qps"
    /// riding in the `seconds` slot) and *shrinkage* is a regression —
    /// tools/bench_compare.py inverts the ratio for these entries.
    /// Appended last, after `unit`, for the same positional-init
    /// reason.
    bool higher_is_better = false;
};

/// Serialize doubles with enough digits to round-trip; JSON has no
/// Inf/NaN, so degenerate measurements are clamped to 0.
inline std::string
json_number(double value)
{
    if (!(value == value) || value > 1e308 || value < -1e308) {
        return "0";
    }
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.17g", value);
    return buffer;
}

inline void
write_bench_json(const std::string& path, const std::string& suite,
                 const std::vector<BenchEntry>& entries,
                 std::vector<std::pair<std::string, std::string>> meta = {})
{
    // A 1-thread baseline against a 4-thread run is a host change, not
    // a speedup, so every suite says which host class it timed.
    meta.emplace_back("hardware_threads",
                      std::to_string(util::host_info().hardware_threads));
    std::ofstream out(path);
    out << "{\n  \"benchmark\": \"" << suite << "\",\n"
        << "  \"schema_version\": 1,\n"
        << "  \"meta\": {";
    for (std::size_t m = 0; m < meta.size(); ++m) {
        out << "\"" << util::json_escape(meta[m].first) << "\": \""
            << util::json_escape(meta[m].second) << "\"";
        if (m + 1 < meta.size()) {
            out << ", ";
        }
    }
    out << "},\n";
    out << "  \"entries\": [\n";
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const BenchEntry& entry = entries[i];
        out << "    {\"name\": \"" << util::json_escape(entry.name)
            << "\", \"seconds\": " << json_number(entry.seconds)
            << ", \"items_per_second\": "
            << json_number(entry.items_per_second) << ", \"unit\": \""
            << util::json_escape(entry.unit) << "\", \"higher_is_better\": "
            << (entry.higher_is_better ? "true" : "false")
            << ", \"metrics\": {";
        for (std::size_t m = 0; m < entry.metrics.size(); ++m) {
            out << "\"" << entry.metrics[m].first
                << "\": " << json_number(entry.metrics[m].second);
            if (m + 1 < entry.metrics.size()) {
                out << ", ";
            }
        }
        out << "}}";
        if (i + 1 < entries.size()) {
            out << ",";
        }
        out << "\n";
    }
    out << "  ]\n}\n";
    std::printf("wrote %s (%zu entries)\n", path.c_str(), entries.size());
}

/// Incremental builder over the same schema. write_bench_json() forces
/// every caller to assemble the complete meta vector before the single
/// serialization call — a harness that learns provenance late (e.g. the
/// ISA probe result after the measurement loops) either threads that
/// state through its whole control flow or silently drops the key,
/// which is exactly how BENCH_serve.json lost its `simd_isa` meta in
/// an early draft. BenchReport decouples declaration order from
/// emission order: add() and set_meta() may interleave arbitrarily,
/// set_meta() upserts (last value per key wins), and write() always
/// emits the meta block before the entries.
class BenchReport
{
  public:
    explicit BenchReport(std::string suite) : suite_(std::move(suite)) {}

    /// Insert or replace one provenance key. Callable before, between,
    /// or after add() calls — emission order is fixed by the schema,
    /// not by call order.
    void
    set_meta(const std::string& key, const std::string& value)
    {
        for (auto& [existing, slot] : meta_) {
            if (existing == key) {
                slot = value;
                return;
            }
        }
        meta_.emplace_back(key, value);
    }

    void add(BenchEntry entry) { entries_.push_back(std::move(entry)); }

    const std::vector<BenchEntry>& entries() const { return entries_; }
    const std::vector<std::pair<std::string, std::string>>&
    meta() const
    {
        return meta_;
    }

    void
    write(const std::string& path) const
    {
        write_bench_json(path, suite_, entries_, meta_);
    }

  private:
    std::string suite_;
    std::vector<BenchEntry> entries_;
    std::vector<std::pair<std::string, std::string>> meta_;
};

} // namespace tgl::bench
