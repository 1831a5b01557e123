#include "obs/trace.hpp"

#include "obs/perf_events.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace tgl::obs {

namespace {

std::atomic<TraceSession*> g_current{nullptr};

/// Microsecond rendering with fixed sub-microsecond precision; the
/// Trace Event Format allows fractional timestamps.
std::string
format_us(double value)
{
    if (!(value == value) || value < 0.0) {
        return "0";
    }
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.3f", value);
    return buffer;
}

/// Arg values are either counter readings (large integers) or derived
/// ratios; keep integers exact and ratios short.
std::string
format_arg_value(double value)
{
    if (!std::isfinite(value)) {
        return "0";
    }
    if (value == std::floor(value) && std::fabs(value) < 1e15) {
        char buffer[32];
        std::snprintf(buffer, sizeof(buffer), "%.0f", value);
        return buffer;
    }
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.6g", value);
    return buffer;
}

} // namespace

TraceSession::~TraceSession()
{
    stop();
}

TraceSession*
TraceSession::current()
{
    return g_current.load(std::memory_order_acquire);
}

void
TraceSession::start()
{
    origin_ = std::chrono::steady_clock::now();
    TraceSession* expected = nullptr;
    if (!g_current.compare_exchange_strong(expected, this,
                                           std::memory_order_acq_rel)) {
        if (expected == this) {
            return; // already active
        }
        util::fatal("obs::TraceSession: another trace session is "
                    "already active");
    }
}

void
TraceSession::stop()
{
    TraceSession* expected = this;
    g_current.compare_exchange_strong(expected, nullptr,
                                      std::memory_order_acq_rel);
}

void
TraceSession::record(std::string name,
                     std::chrono::steady_clock::time_point start,
                     std::chrono::steady_clock::time_point end)
{
    record(std::move(name), start, end, {});
}

void
TraceSession::record(std::string name,
                     std::chrono::steady_clock::time_point start,
                     std::chrono::steady_clock::time_point end,
                     std::vector<std::pair<std::string, double>> args)
{
    const auto to_us = [this](std::chrono::steady_clock::time_point t) {
        return std::chrono::duration<double, std::micro>(t - origin_)
            .count();
    };
    const std::thread::id self = std::this_thread::get_id();
    const std::lock_guard<std::mutex> lock(mutex_);
    std::uint32_t tid = 0;
    for (; tid < thread_ids_.size(); ++tid) {
        if (thread_ids_[tid] == self) {
            break;
        }
    }
    if (tid == thread_ids_.size()) {
        thread_ids_.push_back(self);
    }
    events_.push_back({std::move(name), to_us(start),
                       to_us(end) - to_us(start), tid + 1,
                       std::move(args)});
}

std::vector<TraceEvent>
TraceSession::events() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return events_;
}

std::string
TraceSession::to_chrome_json() const
{
    const std::vector<TraceEvent> snapshot = events();
    std::string out =
        "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n";
    for (std::size_t i = 0; i < snapshot.size(); ++i) {
        const TraceEvent& event = snapshot[i];
        out += "    {\"name\": \"" + util::json_escape(event.name) +
               "\", \"cat\": \"tgl\", \"ph\": \"X\", \"ts\": " +
               format_us(event.ts_us) + ", \"dur\": " +
               format_us(event.dur_us) + ", \"pid\": 1, \"tid\": " +
               std::to_string(event.tid);
        if (!event.args.empty()) {
            out += ", \"args\": {";
            for (std::size_t a = 0; a < event.args.size(); ++a) {
                if (a != 0) {
                    out += ", ";
                }
                out += "\"";
                out += util::json_escape(event.args[a].first);
                out += "\": ";
                out += format_arg_value(event.args[a].second);
            }
            out += "}";
        }
        out += "}";
        if (i + 1 < snapshot.size()) {
            out += ",";
        }
        out += "\n";
    }
    out += "  ]\n}\n";
    return out;
}

void
TraceSession::write_chrome_json(const std::string& path) const
{
    std::ofstream out(path);
    if (!out) {
        util::fatal("obs::TraceSession: cannot open " + path +
                    " for writing");
    }
    out << to_chrome_json();
    if (!out) {
        util::fatal("obs::TraceSession: failed writing " + path);
    }
}

Span::Span(std::string_view name) : session_(TraceSession::current())
{
    if (session_ != nullptr) {
        name_.assign(name);
        start_ = std::chrono::steady_clock::now();
    }
}

Span::Span(std::string_view name, std::string_view perf_phase)
    : Span(name)
{
    // The PerfScope exists even when tracing is off: its metrics
    // recording is independent of the trace session.
    perf_ = std::make_unique<PerfScope>(perf_phase);
}

void
Span::arg(std::string_view key, double value)
{
    if (session_ != nullptr) {
        args_.emplace_back(std::string(key), value);
    }
}

Span::~Span()
{
    if (perf_ != nullptr) {
        const PerfSample sample = perf_->close();
        if (session_ != nullptr) {
            for (auto& entry : perf_span_args(sample)) {
                args_.push_back(std::move(entry));
            }
        }
    }
    if (session_ != nullptr && TraceSession::current() == session_) {
        session_->record(std::move(name_), start_,
                         std::chrono::steady_clock::now(),
                         std::move(args_));
    }
}

} // namespace tgl::obs
