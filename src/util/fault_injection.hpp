/// @file
/// Multi-site failpoint registry for chaos testing and crash-path tests.
///
/// Production code marks interesting failure boundaries with
/// fault_point("site"); the call is a single relaxed atomic load unless
/// at least one site is armed. Sites are armed either programmatically
/// (FailpointRegistry::configure) or at process start from the
/// TGL_FAILPOINTS environment variable.
///
/// Spec grammar (';'-separated entries):
///
///     site=action[:param][@N]
///
///     actions   error             throw FaultInjected (terminal)
///               error:transient   throw TransientError (retryable)
///               delay:<N>ms       sleep N milliseconds (interruptible)
///               corrupt           return kCorrupt — the call site
///                                 flips bytes in its own artifact
///     triggers  @N                fire on the Nth hit, then deactivate
///               :p=<float>        fire each hit with probability p
///                                 (seeded RNG, deterministic)
///
/// Example: "artifact_io.write=error@3;pipeline.after-walk=delay:50ms;
///           checkpoint.load=corrupt:p=0.1"
///
/// Every armed site exports a `failpoint.<site>.hits` counter through
/// the obs metrics registry, so chaos runs can assert which faults a
/// schedule actually exercised.
///
/// FailAfterOStream complements the registry on the I/O side: a stream
/// whose buffer accepts a byte budget and then fails every write — a
/// deterministic stand-in for ENOSPC/quota failures, used to prove the
/// save paths actually report stream errors instead of dropping them.
#pragma once

#include "util/error.hpp"

#include <cstdint>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

namespace tgl::util {

/// Exception thrown by an armed fault point. Derives from Error so
/// generic handlers recover, but is distinct so tests can tell an
/// injected fault from a real failure.
class FaultInjected : public Error
{
  public:
    explicit FaultInjected(const std::string& what) : Error(what) {}
};

/// What a fault_point call site should do after returning. Error and
/// delay actions are handled inside fault_point itself (throw / sleep);
/// corruption cannot be — only the call site knows which artifact to
/// damage — so it is returned as a verdict instead.
enum class FailpointAction : std::uint8_t {
    kNone,    ///< site not armed or trigger did not fire
    kCorrupt, ///< damage the artifact about to be read/written
};

/// Trigger point. A single relaxed atomic load when nothing is armed;
/// otherwise consults the registry and may throw FaultInjected /
/// TransientError, sleep, or return kCorrupt.
FailpointAction fault_point(const char* site);

/// Process-global registry of armed failpoints.
class FailpointRegistry
{
  public:
    /// Replace the armed set with @p spec (grammar above). An empty
    /// spec disarms everything. @p seed drives probabilistic triggers
    /// and is remembered for reproducibility. Throws Error on a
    /// malformed spec, leaving the previous configuration armed.
    static void configure(const std::string& spec, std::uint64_t seed = 0);

    /// Arm from TGL_FAILPOINTS / TGL_FAILPOINTS_SEED if set; no-op
    /// otherwise. Called once from tool main()s, never from the
    /// library, so tests stay hermetic.
    static void configure_from_env();

    /// Disarm every site.
    static void clear();

    /// True if any site is currently armed.
    static bool active();

    /// Hits recorded against @p site since it was (re)armed; 0 for
    /// unknown sites.
    static std::uint64_t hits(const std::string& site);

    /// Names of all armed sites, sorted (diagnostics / tests).
    static std::vector<std::string> armed_sites();

    /// Bumped on every configure()/clear(). In-flight delay actions
    /// poll it and cut their sleep short when the configuration that
    /// scheduled them is gone, so disarming ends a simulated stall.
    static std::uint64_t generation();
};

/// streambuf decorator that forwards up to @p limit bytes to the
/// wrapped buffer, then reports failure on every subsequent write.
class FailAfterStreambuf : public std::streambuf
{
  public:
    FailAfterStreambuf(std::streambuf* inner, std::size_t limit)
        : inner_(inner), remaining_(limit)
    {
    }

  protected:
    int_type overflow(int_type ch) override;
    std::streamsize xsputn(const char* data,
                           std::streamsize count) override;

  private:
    std::streambuf* inner_;
    std::size_t remaining_;
};

/// Output stream that starts failing after @p limit bytes (writes up to
/// the limit are forwarded to @p target).
class FailAfterOStream : public std::ostream
{
  public:
    FailAfterOStream(std::ostream& target, std::size_t limit)
        : std::ostream(nullptr), buffer_(target.rdbuf(), limit)
    {
        rdbuf(&buffer_);
    }

  private:
    FailAfterStreambuf buffer_;
};

} // namespace tgl::util
