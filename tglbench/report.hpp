/// @file
/// Shared plumbing of the benchmark driver: the metric report and its
/// JSON result line, order statistics, and the host fingerprint.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace tglbench {

using Clock = std::chrono::steady_clock;

inline double
seconds_between(Clock::time_point begin, Clock::time_point end)
{
    return std::chrono::duration<double>(end - begin).count();
}

inline double
seconds_since(Clock::time_point begin)
{
    return seconds_between(begin, Clock::now());
}

/// Median of @p values (0 when empty).
double median(std::vector<double> values);

/// Nearest-rank percentile, @p p in [0, 1], of @p values (0 when
/// empty). Infinite entries (failed requests) sort last.
double percentile(std::vector<double> values, double p);

/// Peak resident set of this process in MiB (VmHWM).
double peak_rss_mb();

/// nproc, SIMD ISA, build type and compiler as one JSON object.
std::string host_fingerprint_json();

/// Named metrics plus the correctness and error tallies of one run.
/// Every operation the run attempts goes through count(); every failed
/// operation or output check goes through fail().
class Report
{
  public:
    void add(std::string name, double value, std::string unit);

    void count(std::uint64_t attempted) { attempted_ += attempted; }

    /// Record one failed operation (@p check: a wrong output rather
    /// than a refused or broken request).
    void fail(const std::string& why, bool check = true);

    /// Human-readable summary on stdout, then the one-line JSON result
    /// (always the last line of stdout).
    void print() const;

  private:
    struct Metric
    {
        std::string name;
        double value = 0.0;
        std::string unit;
    };

    std::vector<Metric> metrics_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    bool correct_ = true;
};

} // namespace tglbench
