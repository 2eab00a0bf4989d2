// Structured errors for the failure model.
//
// Everything the solver core or the CLI can fail with is classified into
// an ErrorKind so downstream harnesses (the batch driver today, the
// daemon tomorrow) can tell transient failures — worth retrying — from
// permanent ones, and map each to a distinct exit code.  Plain
// std::exception escaping a solve is classified at the catch site
// (bad_alloc => resource, anything else => internal).
#pragma once

#include <exception>
#include <new>
#include <stdexcept>
#include <string>

namespace lazymc {

enum class ErrorKind {
  /// Bad input: unparseable flags, unreadable/ill-formed graph files,
  /// malformed manifests or fault specs.  Never transient.
  kInput,
  /// Resource exhaustion (allocation failure, injected resource faults).
  /// Transient: a retry may succeed once pressure subsides.
  kResource,
  /// A bug surfaced: unexpected exception, failed result verification.
  /// Not transient — retrying reproduces it.
  kInternal,
  /// The run was cancelled by SIGINT/SIGTERM.  Not transient; the caller
  /// stops the sweep instead of retrying.
  kInterrupted,
  /// Load shedding: the daemon's admission queue is full (or it is
  /// draining), so the request was rejected *before* any work started.
  /// Transient by design — the structured rejection is what lets a
  /// client back off and retry instead of piling onto a saturated
  /// server.
  kOverloaded,
};

inline const char* error_kind_name(ErrorKind kind) {
  switch (kind) {
    case ErrorKind::kInput: return "input";
    case ErrorKind::kResource: return "resource";
    case ErrorKind::kInternal: return "internal";
    case ErrorKind::kInterrupted: return "interrupted";
    case ErrorKind::kOverloaded: return "overloaded";
  }
  return "?";
}

/// Whether a failure of this kind is worth retrying (--retries, or a
/// daemon client backing off a shed request).
inline bool error_kind_transient(ErrorKind kind) {
  return kind == ErrorKind::kResource || kind == ErrorKind::kOverloaded;
}

/// An exception carrying its classification (and the OS errno when one
/// was involved, e.g. a failed open).  Catch sites that see a plain
/// std::exception wrap it in one of these before it crosses a reporting
/// boundary.
class Error : public std::runtime_error {
 public:
  Error(ErrorKind kind, const std::string& what, int sys_errno = 0)
      : std::runtime_error(what), kind_(kind), errno_(sys_errno) {}

  ErrorKind kind() const { return kind_; }
  /// OS errno captured where the failure happened; 0 = not applicable.
  int sys_errno() const { return errno_; }
  bool transient() const { return error_kind_transient(kind_); }

 private:
  ErrorKind kind_;
  int errno_;
};

/// Rethrows the in-flight exception and returns it classified: a
/// structured Error passes through, allocation failure is transient
/// (resource), anything else is internal.  Call only inside a catch
/// block.
inline Error classify_current_exception() {
  try {
    throw;
  } catch (const Error& e) {
    return e;
  } catch (const std::bad_alloc&) {
    return Error(ErrorKind::kResource, "out of memory");
  } catch (const std::exception& e) {
    return Error(ErrorKind::kInternal, e.what());
  } catch (...) {
    return Error(ErrorKind::kInternal, "unknown exception");
  }
}

}  // namespace lazymc
