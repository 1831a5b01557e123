#include "report.hpp"

#include "embed/kernels.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

namespace tglbench {

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 0.5);
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty()) {
        return 0.0;
    }
    // Nearest rank: the smallest value with at least p of the sample
    // at or below it.
    auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(values.size())));
    rank = std::clamp<std::size_t>(rank, 1, values.size()) - 1;
    std::nth_element(values.begin(),
                     values.begin() + static_cast<std::ptrdiff_t>(rank),
                     values.end());
    return values[rank];
}

double
peak_rss_mb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
        }
    }
    return 0.0;
}

std::string
host_fingerprint_json()
{
    char buffer[256];
    std::snprintf(buffer, sizeof(buffer),
                  "{\"nproc\": %u, \"isa\": \"%s\", \"build_type\": "
                  "\"%s\", \"compiler\": \"%s\"}",
                  std::thread::hardware_concurrency(),
                  tgl::embed::kernels::simd_sgns_isa(),
                  TGLBENCH_BUILD_TYPE, __VERSION__);
    return buffer;
}

void
Report::add(std::string name, double value, std::string unit)
{
    if (!std::isfinite(value)) {
        fail("metric " + name + " is not finite");
        value = 0.0;
    }
    metrics_.push_back({std::move(name), value, std::move(unit)});
}

void
Report::fail(const std::string& why, bool check)
{
    ++failed_;
    if (check) {
        correct_ = false;
    }
    std::fprintf(stderr, "tglbench: %s: %s\n",
                 check ? "check failed" : "operation failed", why.c_str());
}

void
Report::print() const
{
    const double error_rate =
        attempted_ == 0 ? 1.0
                        : static_cast<double>(failed_) /
                              static_cast<double>(attempted_);
    for (const Metric& metric : metrics_) {
        std::printf("%-32s %16.6f %s\n", metric.name.c_str(), metric.value,
                    metric.unit.c_str());
    }
    std::printf("%-32s %16.6f ratio (%llu failed of %llu attempted)\n",
                "error_rate", error_rate,
                static_cast<unsigned long long>(failed_),
                static_cast<unsigned long long>(attempted_));

    std::string json = "{\"correct\": ";
    json += correct_ ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(std::max<std::uint64_t>(
                                      attempted_, 1));
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        // Shortest round-trip representation: every digit as measured.
        char number[64];
        const auto end = std::to_chars(number, number + sizeof(number),
                                       metrics_[i].value).ptr;
        json += (i == 0 ? "\"" : ", \"") + metrics_[i].name +
                "\": {\"value\": " + std::string(number, end) +
                ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

} // namespace tglbench
