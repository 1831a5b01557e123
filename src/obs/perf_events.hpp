/// @file
/// Measured hardware counters via perf_event_open(2).
///
/// This is the measured-counter backend behind the obs layer: the same
/// phases that already carry wall-clock spans and software counters can
/// attach retired-instruction / cycle / cache / branch / stall readings
/// taken from the kernel PMU interface. It replaces nothing — the
/// software models in profiling/ stay as the portable fallback — but
/// where the host grants access, every `perf.<phase>.<event>` metric
/// and span arg is a real measurement.
///
/// Design points:
///
///  - **Per-thread counting.** perf counters attach to the opening
///    thread (pid=0, cpu=-1). A persistent thread pool rules out
///    `inherit` (it only covers children forked after open), so each
///    worker opens its own counter set lazily the first time a scope
///    runs on it, and the set is cached thread-locally for the process
///    lifetime. Scopes are then just two read(2) batches.
///
///  - **Independent fds, not a kernel group.** A PMU with fewer
///    hardware counters than our event list multiplexes independent
///    events individually; one oversized kernel group would never be
///    scheduled at all. Each event therefore carries its own
///    time_enabled/time_running pair and is scaled as
///    `delta * (d_time_enabled / d_time_running)`; an event whose
///    d_time_running is zero is reported absent, not zero.
///
///  - **Graceful degradation, never fatal.** The first use probes the
///    syscall once (std::call_once). EPERM/EACCES under
///    perf_event_paranoid, ENOSYS in seccomp'd containers, and
///    ENOENT/ENODEV on PMU-less hosts all yield
///    `perf_availability() == {false, reason}`; the reason is logged
///    exactly once and every scope becomes a no-op. The env override
///    `TGL_PERF_DISABLE=1` forces that path (CI determinism).
///
///  - **No double counting.** Scopes nest (a caller's scope around an
///    engine phase, both on the main thread when threads==1); a
///    thread-local depth guard makes inner scopes no-ops so each
///    retired instruction is attributed to exactly one phase.
///
/// Typical use:
///
/// @code
///   tgl::obs::set_perf_mode(tgl::obs::PerfMode::kOn);
///   { tgl::obs::PerfScope scope("walk"); run_walk(); }
///   // Registry::global() now holds perf.walk.cycles, ...
///   tgl::obs::PerfSample total = tgl::obs::perf_phase_total("walk");
/// @endcode
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tgl::obs {

// ---------------------------------------------------------------------------
// Mode

/// Library-wide switch. kOff (default) never issues a syscall; kOn
/// probes lazily and degrades to no-ops when counters are unavailable.
enum class PerfMode
{
    kOff,
    kOn,
};

/// Parse "on" / "off"; nullopt on anything else.
std::optional<PerfMode> parse_perf_mode(std::string_view text);

/// Set / read the process-wide mode. Threads-safe; takes effect for
/// scopes opened afterwards.
void set_perf_mode(PerfMode mode);
PerfMode perf_mode();

// ---------------------------------------------------------------------------
// Events

/// The standard event set. Hardware events cover the Fig. 9/11
/// methodology (instruction mix and stall attribution); task-clock is a
/// software event that works even where the PMU is hidden (VMs,
/// containers), so the syscall path stays exercisable everywhere;
/// the L1D cache events measure the paper's memory-op share.
enum class PerfEvent : unsigned
{
    kCycles = 0,
    kInstructions,
    kBranches,
    kBranchMisses,
    kCacheReferences, ///< last-level cache references
    kCacheMisses,     ///< last-level cache misses
    kStalledFrontend,
    kStalledBackend,
    kTaskClock, ///< software event, nanoseconds on-cpu
    kL1dLoads,
    kL1dStores,
    kCount,
};

inline constexpr std::size_t kNumPerfEvents =
    static_cast<std::size_t>(PerfEvent::kCount);

/// Stable snake_case name used in metrics ("perf.<phase>.<name>") and
/// span args.
const char* perf_event_name(PerfEvent event);

// ---------------------------------------------------------------------------
// Availability

/// Result of the one-time probe. `reason` is empty when available.
struct PerfAvailability
{
    bool available = false;
    std::string reason;
};

/// Probe (once) and report. Calling this runs the probe even under
/// PerfMode::kOff — scopes themselves never probe while off.
const PerfAvailability& perf_availability();

/// True when mode != kOff and the probe succeeded. This is the gate
/// every scope checks; it probes on first call when mode != kOff.
bool perf_active();

// ---------------------------------------------------------------------------
// Samples

/// A scaled counter reading (scope delta or phase aggregate). Events
/// the host could not schedule have present[] == false; derived ratios
/// return 0 when their inputs are absent rather than NaN.
struct PerfSample
{
    bool valid = false; ///< false == counters were unavailable / off
    std::array<double, kNumPerfEvents> values{};
    std::array<bool, kNumPerfEvents> present{};
    double time_enabled_seconds = 0.0;
    double time_running_seconds = 0.0;

    bool has(PerfEvent event) const
    {
        return present[static_cast<std::size_t>(event)];
    }
    double value(PerfEvent event) const
    {
        return values[static_cast<std::size_t>(event)];
    }

    /// Instructions per cycle; 0 when either event is absent.
    double ipc() const;
    /// cache_misses / cache_references (LLC), in [0, 1].
    double llc_miss_rate() const;
    /// branch_misses / branches, in [0, 1].
    double branch_miss_rate() const;
    /// stalled_frontend / cycles, clamped to [0, 1].
    double frontend_stall_fraction() const;
    /// stalled_backend / cycles, clamped to [0, 1].
    double backend_stall_fraction() const;
    /// (l1d_loads + l1d_stores) / instructions — the measured
    /// counterpart of the Fig. 9 memory-op share.
    double memory_op_fraction() const;
    /// branches / instructions — the measured Fig. 9 branch share.
    double branch_op_fraction() const;

    PerfSample& operator+=(const PerfSample& other);
    PerfSample operator-(const PerfSample& other) const;
};

/// Render a sample as Chrome-trace span args: one entry per present
/// event plus the derived ratios whose inputs are present (ipc,
/// llc_miss_rate, branch_miss_rate, stall fractions). Empty when
/// !sample.valid.
std::vector<std::pair<std::string, double>>
perf_span_args(const PerfSample& sample);

// ---------------------------------------------------------------------------
// Scopes

/// RAII measurement of the standard event set on the current thread.
/// When constructed with a phase name, close() (or the destructor)
/// adds the scaled deltas to Registry::global() as
/// `perf.<phase>.<event>` counters and to the process-wide phase
/// aggregate read by perf_phase_total(). Inactive (all methods no-ops,
/// sample() invalid) when counters are off/unavailable or when another
/// PerfScope is already open on this thread.
class PerfScope
{
  public:
    /// Measure without recording anywhere (caller reads sample()).
    PerfScope();
    /// Measure and record into phase @p phase on close.
    explicit PerfScope(std::string_view phase);
    ~PerfScope();
    PerfScope(const PerfScope&) = delete;
    PerfScope& operator=(const PerfScope&) = delete;

    /// True when this scope owns live counters.
    bool active() const { return open_; }

    /// Scaled deltas since construction; scope stays open.
    PerfSample sample() const;

    /// Read final deltas, record (when a phase was given), and
    /// release the thread's depth guard. Idempotent; returns the final
    /// sample (invalid when the scope was never active).
    PerfSample close();

  private:
    std::string phase_;
    std::array<std::uint64_t, 3 * kNumPerfEvents> begin_{};
    bool open_ = false;
    bool closed_ = false;
};

/// Counter scopes for one parallel_for_ranked team: the coordinating
/// thread constructs it, each worker calls ensure(rank) inside the
/// loop body (first call opens/reads on the worker's own thread;
/// later calls are two relaxed loads), and after the join the
/// coordinator calls close(), which reads every rank's deltas
/// cross-thread, records them under @p phase, and returns the
/// aggregate. Safe to use while counters are off — everything no-ops.
class PerfRankScopes
{
  public:
    PerfRankScopes(std::string_view phase, unsigned max_ranks);
    ~PerfRankScopes();
    PerfRankScopes(const PerfRankScopes&) = delete;
    PerfRankScopes& operator=(const PerfRankScopes&) = delete;

    /// Called on the rank's own thread; idempotent per rank.
    void ensure(unsigned rank);

    /// Coordinator-side: finish all ranks, record, return aggregate.
    /// Must happen after every worker's last ensure()-covered work
    /// (i.e. after the parallel_for join). Idempotent.
    PerfSample close();

  private:
    struct Slot;
    std::string phase_;
    std::vector<Slot> slots_;
    bool closed_ = false;
};

// ---------------------------------------------------------------------------
// Phase aggregates

/// Process-wide running total for @p phase (sum of every closed scope
/// recorded under that name). Invalid sample when nothing recorded.
PerfSample perf_phase_total(std::string_view phase);

/// All phases with recorded totals, in first-recorded order.
std::vector<std::pair<std::string, PerfSample>> perf_phase_totals();

/// Clear the aggregates (pairs with Registry::reset() between runs).
void perf_reset_phase_totals();

} // namespace tgl::obs
