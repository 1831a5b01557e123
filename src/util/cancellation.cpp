#include "util/cancellation.hpp"

#include "util/logging.hpp"

#include <atomic>
#include <csignal>
#include <mutex>
#include <string>

namespace tgl::util {

namespace {

// The signal path may run at any time, so it touches only lock-free
// state; the programmatic path additionally records a reason string
// under a mutex. cancellation_requested() reads one relaxed atomic.
std::atomic<bool> g_cancelled{false};
volatile std::sig_atomic_t g_signal = 0;
std::mutex g_reason_mutex;
std::string g_reason;

extern "C" void
handle_cancel_signal(int signum)
{
    g_signal = signum;
    g_cancelled.store(true, std::memory_order_relaxed);
}

} // namespace

void
request_cancellation(const char* reason)
{
    {
        std::lock_guard<std::mutex> lock(g_reason_mutex);
        if (g_reason.empty()) { // first request wins
            g_reason = reason;
        }
    }
    g_cancelled.store(true, std::memory_order_relaxed);
}

bool
cancellation_requested()
{
    return g_cancelled.load(std::memory_order_relaxed);
}

std::string
cancellation_reason()
{
    if (!cancellation_requested()) {
        return "";
    }
    const int signum = g_signal;
    if (signum == SIGINT) {
        return "interrupted by signal SIGINT";
    }
    if (signum == SIGTERM) {
        return "interrupted by signal SIGTERM";
    }
    if (signum != 0) {
        return strcat("interrupted by signal ", signum);
    }
    std::lock_guard<std::mutex> lock(g_reason_mutex);
    return g_reason.empty() ? "cancellation requested" : g_reason;
}

void
reset_cancellation()
{
    std::lock_guard<std::mutex> lock(g_reason_mutex);
    g_reason.clear();
    g_signal = 0;
    g_cancelled.store(false, std::memory_order_relaxed);
}

void
check_cancellation(const char* where)
{
    if (cancellation_requested()) {
        throw Cancelled(strcat(cancellation_reason(), " — stopping at ",
                               where,
                               " (checkpoints written so far are intact; "
                               "rerun to resume)"));
    }
}

bool
install_signal_handlers()
{
    return std::signal(SIGINT, handle_cancel_signal) != SIG_ERR &&
           std::signal(SIGTERM, handle_cancel_signal) != SIG_ERR;
}

} // namespace tgl::util
