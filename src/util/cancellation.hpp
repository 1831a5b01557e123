/// @file
/// Process-wide cooperative cancellation.
///
/// One global flag, set by SIGINT/SIGTERM handlers or programmatically.
/// Long-running phases poll it at safe points — phase boundaries and
/// epoch loops — and throw Cancelled, which unwinds through the
/// pipeline leaving every already-flushed checkpoint intact. An
/// injected failpoint delay polls it too and ends its sleep early. The
/// artifact write paths deliberately do NOT poll, so an interrupt never
/// strands a half-written artifact: the in-flight store finishes (it is
/// atomic temp+rename anyway) and the run stops at the next boundary.
#pragma once

#include "util/error.hpp"

namespace tgl::util {

/// Request cooperative cancellation with a human-readable reason.
/// Async-signal-UNSAFE (allocates); signal handlers must use
/// install_signal_handlers() below, which only flips atomics.
void request_cancellation(const char* reason);

/// True once cancellation has been requested (by call or by signal).
bool cancellation_requested();

/// Reason for the pending cancellation ("" when none is pending).
std::string cancellation_reason();

/// Clear a pending request (tests; and the CLI between subcommands).
void reset_cancellation();

/// Throw Cancelled if a request is pending. @p where names the safe
/// point for the error message ("walk phase", "sgns epoch loop", ...).
void check_cancellation(const char* where);

/// Install SIGINT/SIGTERM handlers that request cancellation. The
/// handler body is async-signal-safe (stores one sig_atomic_t). Safe
/// to call more than once. Returns false if installation failed.
bool install_signal_handlers();

} // namespace tgl::util
