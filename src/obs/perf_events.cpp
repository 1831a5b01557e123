#include "obs/perf_events.hpp"

#include "obs/metrics.hpp"
#include "util/logging.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <mutex>

#if defined(__linux__)
#include <linux/perf_event.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace tgl::obs {

namespace {

// ---------------------------------------------------------------------------
// Event table

struct EventDesc
{
    std::uint32_t type;
    std::uint64_t config;
    const char* name;
};

#if defined(__linux__)
constexpr std::uint64_t
hw_cache_config(std::uint64_t cache, std::uint64_t op, std::uint64_t result)
{
    return cache | (op << 8) | (result << 16);
}
#endif

constexpr std::array<EventDesc, kNumPerfEvents> kEventTable = {{
#if defined(__linux__)
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES, "cycles"},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS, "instructions"},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_INSTRUCTIONS, "branches"},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_BRANCH_MISSES, "branch_misses"},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_REFERENCES,
     "cache_references"},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES, "cache_misses"},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_STALLED_CYCLES_FRONTEND,
     "stalled_frontend"},
    {PERF_TYPE_HARDWARE, PERF_COUNT_HW_STALLED_CYCLES_BACKEND,
     "stalled_backend"},
    {PERF_TYPE_SOFTWARE, PERF_COUNT_SW_TASK_CLOCK, "task_clock_ns"},
    {PERF_TYPE_HW_CACHE,
     hw_cache_config(PERF_COUNT_HW_CACHE_L1D, PERF_COUNT_HW_CACHE_OP_READ,
                     PERF_COUNT_HW_CACHE_RESULT_ACCESS),
     "l1d_loads"},
    {PERF_TYPE_HW_CACHE,
     hw_cache_config(PERF_COUNT_HW_CACHE_L1D,
                     PERF_COUNT_HW_CACHE_OP_WRITE,
                     PERF_COUNT_HW_CACHE_RESULT_ACCESS),
     "l1d_stores"},
#else
    {0, 0, "cycles"},
    {0, 1, "instructions"},
    {0, 4, "branches"},
    {0, 5, "branch_misses"},
    {0, 2, "cache_references"},
    {0, 3, "cache_misses"},
    {0, 7, "stalled_frontend"},
    {0, 8, "stalled_backend"},
    {1, 1, "task_clock_ns"},
    {3, 0, "l1d_loads"},
    {3, 0x100, "l1d_stores"},
#endif
}};

// ---------------------------------------------------------------------------
// Syscall layer

/// One read(2) result under
/// PERF_FORMAT_TOTAL_TIME_ENABLED | PERF_FORMAT_TOTAL_TIME_RUNNING.
struct Reading
{
    std::uint64_t value = 0;
    std::uint64_t time_enabled = 0;
    std::uint64_t time_running = 0;
};

#if defined(__linux__)

/// Open a per-thread (pid=0, cpu=-1) counting fd for (type, config).
/// Counting starts immediately; scopes work off read deltas, so no
/// enable/disable ioctls are needed. Returns -1 with errno set on
/// failure. exclude_kernel/hv keeps us admissible under
/// perf_event_paranoid == 2 (the common distro default) and matches
/// the userspace-only instrumentation the software models assume.
int
open_event(std::uint32_t type, std::uint64_t config)
{
    perf_event_attr attr;
    std::memset(&attr, 0, sizeof(attr));
    attr.size = sizeof(attr);
    attr.type = type;
    attr.config = config;
    attr.read_format =
        PERF_FORMAT_TOTAL_TIME_ENABLED | PERF_FORMAT_TOTAL_TIME_RUNNING;
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    const long fd = syscall(SYS_perf_event_open, &attr, /*pid=*/0,
                            /*cpu=*/-1, /*group_fd=*/-1, /*flags=*/0UL);
    return static_cast<int>(fd);
}

bool
read_event(int fd, Reading& out)
{
    if (fd < 0) {
        return false;
    }
    std::uint64_t buffer[3] = {0, 0, 0};
    const ssize_t got = read(fd, buffer, sizeof(buffer));
    if (got != static_cast<ssize_t>(sizeof(buffer))) {
        return false;
    }
    out.value = buffer[0];
    out.time_enabled = buffer[1];
    out.time_running = buffer[2];
    return true;
}

void
close_event(int fd)
{
    if (fd >= 0) {
        close(fd);
    }
}

#else // !__linux__

int
open_event(std::uint32_t, std::uint64_t)
{
    errno = ENOSYS;
    return -1;
}

bool
read_event(int, Reading&)
{
    return false;
}

void
close_event(int)
{
}

#endif

// ---------------------------------------------------------------------------
// Mode + availability

std::atomic<PerfMode> g_mode{PerfMode::kOff};

std::once_flag g_probe_once;
PerfAvailability g_availability;
std::atomic<bool> g_available{false};

std::string
probe_errno_reason(int err)
{
    std::string reason = "perf_event_open failed (";
    reason += std::strerror(err);
    reason += ")";
    if (err == EPERM || err == EACCES) {
        reason += " — check /proc/sys/kernel/perf_event_paranoid";
    } else if (err == ENOSYS) {
        reason += " — kernel or container without perf support";
    } else if (err == ENOENT || err == ENODEV || err == EOPNOTSUPP) {
        reason += " — no PMU exposed on this host";
    }
    return reason;
}

void
probe()
{
    const char* disable = std::getenv("TGL_PERF_DISABLE");
    if (disable != nullptr && disable[0] != '\0' &&
        !(disable[0] == '0' && disable[1] == '\0')) {
        g_availability = {false, "disabled via TGL_PERF_DISABLE"};
    } else {
        // Hardware first; a host that hides the PMU (VMs, containers)
        // may still grant software events, which keeps the syscall
        // path — multiplex scaling included — fully exercisable.
        const EventDesc& cycles =
            kEventTable[static_cast<std::size_t>(PerfEvent::kCycles)];
        int fd = open_event(cycles.type, cycles.config);
        int hw_errno = errno;
        if (fd < 0) {
            const EventDesc& clock = kEventTable[static_cast<std::size_t>(
                PerfEvent::kTaskClock)];
            fd = open_event(clock.type, clock.config);
        }
        if (fd >= 0) {
            close_event(fd);
            g_availability = {true, ""};
        } else {
            g_availability = {false, probe_errno_reason(hw_errno)};
        }
    }
    if (!g_availability.available) {
        util::inform("obs::perf: counters unavailable: " +
                     g_availability.reason +
                     " — perf scopes are no-ops");
    }
    g_available.store(g_availability.available,
                      std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Per-thread counter set

/// The standard event set, opened at most once per thread and cached
/// for the thread's lifetime. `depth` is the same-thread scope-nesting
/// guard: only the outermost scope measures, so nested phases (e.g. a
/// caller's span around the walk engine when threads == 1) never count
/// an instruction twice.
struct ThreadCounters
{
    std::array<int, kNumPerfEvents> fds;
    bool attempted = false;
    bool any_open = false;
    int depth = 0;

    ThreadCounters() { fds.fill(-1); }
    ~ThreadCounters()
    {
        for (int fd : fds) {
            close_event(fd);
        }
    }

    void open_all()
    {
        attempted = true;
        for (std::size_t i = 0; i < kNumPerfEvents; ++i) {
            fds[i] = open_event(kEventTable[i].type, kEventTable[i].config);
            any_open = any_open || fds[i] >= 0;
        }
    }
};

ThreadCounters&
thread_counters()
{
    thread_local ThreadCounters counters;
    if (!counters.attempted) {
        counters.open_all();
    }
    return counters;
}

/// Raw begin/end readings of one thread's set, flattened as
/// [value, time_enabled, time_running] triples (the layout PerfScope
/// stores in begin_).
void
read_all(const ThreadCounters& counters,
         std::array<std::uint64_t, 3 * kNumPerfEvents>& out)
{
    for (std::size_t i = 0; i < kNumPerfEvents; ++i) {
        Reading reading;
        if (!read_event(counters.fds[i], reading)) {
            // Leave zeros: a zero time_enabled delta marks the event
            // absent during scaling.
            out[3 * i] = 0;
            out[3 * i + 1] = 0;
            out[3 * i + 2] = 0;
            continue;
        }
        out[3 * i] = reading.value;
        out[3 * i + 1] = reading.time_enabled;
        out[3 * i + 2] = reading.time_running;
    }
}

/// Multiplexing-aware delta: each event scaled by how long the kernel
/// actually had it scheduled, scaled_delta = d_value * (d_te / d_tr).
/// d_te == 0 means the fd never produced a reading inside the scope
/// (not opened, or read failed) → absent. d_tr == 0 with d_te > 0
/// means enabled but never scheduled (PMU oversubscribed the whole
/// time) → absent too, since no extrapolation base exists.
PerfSample
scale_delta(const std::array<std::uint64_t, 3 * kNumPerfEvents>& begin,
            const std::array<std::uint64_t, 3 * kNumPerfEvents>& end)
{
    PerfSample sample;
    sample.valid = true;
    double max_te = 0.0;
    double max_tr = 0.0;
    for (std::size_t i = 0; i < kNumPerfEvents; ++i) {
        const std::uint64_t d_value = end[3 * i] - begin[3 * i];
        const std::uint64_t d_te = end[3 * i + 1] - begin[3 * i + 1];
        const std::uint64_t d_tr = end[3 * i + 2] - begin[3 * i + 2];
        if (end[3 * i + 1] == 0 || d_te == 0 || d_tr == 0) {
            continue;
        }
        const double scale =
            static_cast<double>(d_te) / static_cast<double>(d_tr);
        sample.values[i] = static_cast<double>(d_value) * scale;
        sample.present[i] = true;
        max_te = std::max(max_te, static_cast<double>(d_te));
        max_tr = std::max(max_tr, static_cast<double>(d_tr));
    }
    sample.time_enabled_seconds = max_te * 1e-9;
    sample.time_running_seconds = max_tr * 1e-9;
    return sample;
}

// ---------------------------------------------------------------------------
// Phase aggregates + registry recording

std::mutex g_phase_mutex;
std::vector<std::pair<std::string, PerfSample>> g_phase_totals;

void
record_phase_sample(const std::string& phase, const PerfSample& sample)
{
    if (!sample.valid) {
        return;
    }
    bool any_present = false;
    for (std::size_t i = 0; i < kNumPerfEvents; ++i) {
        if (!sample.present[i]) {
            continue;
        }
        any_present = true;
        Registry::global()
            .counter("perf." + phase + "." + kEventTable[i].name)
            .add(static_cast<std::uint64_t>(
                std::llround(std::max(0.0, sample.values[i]))));
    }
    if (!any_present) {
        return;
    }
    const std::lock_guard<std::mutex> lock(g_phase_mutex);
    for (auto& entry : g_phase_totals) {
        if (entry.first == phase) {
            entry.second += sample;
            return;
        }
    }
    g_phase_totals.emplace_back(phase, sample);
}

double
safe_ratio(double numerator, double denominator)
{
    return denominator > 0.0 ? numerator / denominator : 0.0;
}

} // namespace

// ---------------------------------------------------------------------------
// Mode

std::optional<PerfMode>
parse_perf_mode(std::string_view text)
{
    if (text == "off") {
        return PerfMode::kOff;
    }
    if (text == "on") {
        return PerfMode::kOn;
    }
    return std::nullopt;
}

void
set_perf_mode(PerfMode mode)
{
    g_mode.store(mode, std::memory_order_relaxed);
}

PerfMode
perf_mode()
{
    return g_mode.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Events / availability

const char*
perf_event_name(PerfEvent event)
{
    return kEventTable[static_cast<std::size_t>(event)].name;
}

const PerfAvailability&
perf_availability()
{
    std::call_once(g_probe_once, probe);
    return g_availability;
}

bool
perf_active()
{
    if (g_mode.load(std::memory_order_relaxed) == PerfMode::kOff) {
        return false;
    }
    return perf_availability().available;
}

// ---------------------------------------------------------------------------
// PerfSample

double
PerfSample::ipc() const
{
    if (!has(PerfEvent::kCycles) || !has(PerfEvent::kInstructions)) {
        return 0.0;
    }
    return safe_ratio(value(PerfEvent::kInstructions),
                      value(PerfEvent::kCycles));
}

double
PerfSample::llc_miss_rate() const
{
    if (!has(PerfEvent::kCacheReferences) || !has(PerfEvent::kCacheMisses)) {
        return 0.0;
    }
    return std::clamp(safe_ratio(value(PerfEvent::kCacheMisses),
                                 value(PerfEvent::kCacheReferences)),
                      0.0, 1.0);
}

double
PerfSample::branch_miss_rate() const
{
    if (!has(PerfEvent::kBranches) || !has(PerfEvent::kBranchMisses)) {
        return 0.0;
    }
    return std::clamp(safe_ratio(value(PerfEvent::kBranchMisses),
                                 value(PerfEvent::kBranches)),
                      0.0, 1.0);
}

double
PerfSample::frontend_stall_fraction() const
{
    if (!has(PerfEvent::kStalledFrontend) || !has(PerfEvent::kCycles)) {
        return 0.0;
    }
    return std::clamp(safe_ratio(value(PerfEvent::kStalledFrontend),
                                 value(PerfEvent::kCycles)),
                      0.0, 1.0);
}

double
PerfSample::backend_stall_fraction() const
{
    if (!has(PerfEvent::kStalledBackend) || !has(PerfEvent::kCycles)) {
        return 0.0;
    }
    return std::clamp(safe_ratio(value(PerfEvent::kStalledBackend),
                                 value(PerfEvent::kCycles)),
                      0.0, 1.0);
}

double
PerfSample::memory_op_fraction() const
{
    if (!has(PerfEvent::kInstructions) ||
        (!has(PerfEvent::kL1dLoads) && !has(PerfEvent::kL1dStores))) {
        return 0.0;
    }
    const double accesses =
        value(PerfEvent::kL1dLoads) + value(PerfEvent::kL1dStores);
    return std::clamp(
        safe_ratio(accesses, value(PerfEvent::kInstructions)), 0.0, 1.0);
}

double
PerfSample::branch_op_fraction() const
{
    if (!has(PerfEvent::kInstructions) || !has(PerfEvent::kBranches)) {
        return 0.0;
    }
    return std::clamp(safe_ratio(value(PerfEvent::kBranches),
                                 value(PerfEvent::kInstructions)),
                      0.0, 1.0);
}

PerfSample&
PerfSample::operator+=(const PerfSample& other)
{
    if (!other.valid) {
        return *this;
    }
    for (std::size_t i = 0; i < kNumPerfEvents; ++i) {
        if (!other.present[i]) {
            continue;
        }
        values[i] += other.values[i];
        present[i] = true;
    }
    time_enabled_seconds += other.time_enabled_seconds;
    time_running_seconds += other.time_running_seconds;
    valid = true;
    return *this;
}

PerfSample
PerfSample::operator-(const PerfSample& other) const
{
    PerfSample out = *this;
    if (!other.valid) {
        return out;
    }
    for (std::size_t i = 0; i < kNumPerfEvents; ++i) {
        if (!other.present[i]) {
            continue;
        }
        out.values[i] = std::max(0.0, out.values[i] - other.values[i]);
        out.present[i] = true;
    }
    out.time_enabled_seconds =
        std::max(0.0, out.time_enabled_seconds - other.time_enabled_seconds);
    out.time_running_seconds =
        std::max(0.0, out.time_running_seconds - other.time_running_seconds);
    out.valid = valid || other.valid;
    return out;
}

std::vector<std::pair<std::string, double>>
perf_span_args(const PerfSample& sample)
{
    std::vector<std::pair<std::string, double>> args;
    if (!sample.valid) {
        return args;
    }
    for (std::size_t i = 0; i < kNumPerfEvents; ++i) {
        if (sample.present[i]) {
            args.emplace_back(kEventTable[i].name, sample.values[i]);
        }
    }
    if (sample.has(PerfEvent::kCycles) &&
        sample.has(PerfEvent::kInstructions)) {
        args.emplace_back("ipc", sample.ipc());
    }
    if (sample.has(PerfEvent::kCacheReferences) &&
        sample.has(PerfEvent::kCacheMisses)) {
        args.emplace_back("llc_miss_rate", sample.llc_miss_rate());
    }
    if (sample.has(PerfEvent::kBranches) &&
        sample.has(PerfEvent::kBranchMisses)) {
        args.emplace_back("branch_miss_rate", sample.branch_miss_rate());
    }
    if (sample.has(PerfEvent::kStalledFrontend) &&
        sample.has(PerfEvent::kCycles)) {
        args.emplace_back("frontend_stall_fraction",
                          sample.frontend_stall_fraction());
    }
    if (sample.has(PerfEvent::kStalledBackend) &&
        sample.has(PerfEvent::kCycles)) {
        args.emplace_back("backend_stall_fraction",
                          sample.backend_stall_fraction());
    }
    return args;
}

// ---------------------------------------------------------------------------
// PerfScope

PerfScope::PerfScope() : PerfScope(std::string_view{})
{
}

PerfScope::PerfScope(std::string_view phase) : phase_(phase)
{
    if (!perf_active()) {
        return;
    }
    ThreadCounters& counters = thread_counters();
    if (!counters.any_open || counters.depth > 0) {
        return;
    }
    counters.depth = 1;
    read_all(counters, begin_);
    open_ = true;
}

PerfScope::~PerfScope()
{
    close();
}

PerfSample
PerfScope::sample() const
{
    if (!open_ || closed_) {
        return PerfSample{};
    }
    std::array<std::uint64_t, 3 * kNumPerfEvents> end{};
    read_all(thread_counters(), end);
    return scale_delta(begin_, end);
}

PerfSample
PerfScope::close()
{
    if (!open_ || closed_) {
        return PerfSample{};
    }
    closed_ = true;
    ThreadCounters& counters = thread_counters();
    std::array<std::uint64_t, 3 * kNumPerfEvents> end{};
    read_all(counters, end);
    counters.depth = 0;
    const PerfSample sample = scale_delta(begin_, end);
    if (!phase_.empty()) {
        record_phase_sample(phase_, sample);
    }
    return sample;
}

// ---------------------------------------------------------------------------
// PerfRankScopes

/// Per-rank state. `state` is written by the rank's thread in ensure()
/// (release) and read by the coordinator in close() (acquire); the fds
/// it points at were populated before the store, so the acquire load
/// makes them — and `begin` — visible. The coordinator only runs
/// close() after the team join, so no rank is still measuring.
struct PerfRankScopes::Slot
{
    std::atomic<ThreadCounters*> state{nullptr};
    std::array<std::uint64_t, 3 * kNumPerfEvents> begin{};
};

PerfRankScopes::PerfRankScopes(std::string_view phase, unsigned max_ranks)
    : phase_(phase), slots_(max_ranks)
{
}

PerfRankScopes::~PerfRankScopes()
{
    close();
}

void
PerfRankScopes::ensure(unsigned rank)
{
    if (rank >= slots_.size()) {
        return;
    }
    Slot& slot = slots_[rank];
    if (slot.state.load(std::memory_order_relaxed) != nullptr) {
        return;
    }
    if (!perf_active()) {
        return;
    }
    ThreadCounters& counters = thread_counters();
    if (!counters.any_open || counters.depth > 0) {
        return;
    }
    counters.depth = 1;
    read_all(counters, slot.begin);
    slot.state.store(&counters, std::memory_order_release);
}

PerfSample
PerfRankScopes::close()
{
    if (closed_) {
        return PerfSample{};
    }
    closed_ = true;
    PerfSample total;
    for (Slot& slot : slots_) {
        ThreadCounters* counters =
            slot.state.load(std::memory_order_acquire);
        if (counters == nullptr) {
            continue;
        }
        std::array<std::uint64_t, 3 * kNumPerfEvents> end{};
        read_all(*counters, end);
        counters->depth = 0;
        total += scale_delta(slot.begin, end);
    }
    if (total.valid && !phase_.empty()) {
        record_phase_sample(phase_, total);
    }
    return total;
}

// ---------------------------------------------------------------------------
// Phase aggregates

PerfSample
perf_phase_total(std::string_view phase)
{
    const std::lock_guard<std::mutex> lock(g_phase_mutex);
    for (const auto& entry : g_phase_totals) {
        if (entry.first == phase) {
            return entry.second;
        }
    }
    return PerfSample{};
}

std::vector<std::pair<std::string, PerfSample>>
perf_phase_totals()
{
    const std::lock_guard<std::mutex> lock(g_phase_mutex);
    return g_phase_totals;
}

void
perf_reset_phase_totals()
{
    const std::lock_guard<std::mutex> lock(g_phase_mutex);
    g_phase_totals.clear();
}

} // namespace tgl::obs
