/// \file
/// bbsim -- error types shared by all subsystems, plus the project-wide
/// assertion macros (`BBSIM_ASSERT` / `BBSIM_AUDIT_CHECK`): every invariant
/// check in the library either throws through BBSIM_ASSERT (hard failure,
/// file:line in the message) or records through BBSIM_AUDIT_CHECK into an
/// audit sink (soft failure, collected by src/audit without aborting the
/// run).
#pragma once

#include <stdexcept>
#include <string>

namespace bbsim::util {

/// Base class for all bbsim errors. Every subsystem throws a subclass of
/// this so callers can catch the whole library with one handler.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Malformed user input: bad JSON, bad platform file, bad workflow file.
class ParseError : public Error {
 public:
  explicit ParseError(const std::string& what) : Error("parse error: " + what) {}
};

/// A lookup by name/id failed (unknown host, file, task, ...).
class NotFoundError : public Error {
 public:
  explicit NotFoundError(const std::string& what) : Error("not found: " + what) {}
};

/// An operation violates an invariant of the simulated system
/// (double-completion of a flow, negative file size, cycle in a DAG, ...).
class InvariantError : public Error {
 public:
  explicit InvariantError(const std::string& what) : Error("invariant violated: " + what) {}
};

/// A configuration is self-inconsistent (e.g. task needs more cores than
/// any host has, burst buffer capacity exceeded with eviction disabled).
class ConfigError : public Error {
 public:
  explicit ConfigError(const std::string& what) : Error("configuration error: " + what) {}
};

/// A run outgrew a fixed limit of the simulator itself (e.g. the event
/// engine's id space): the input is valid, but too large to simulate.
class LimitError : public Error {
 public:
  explicit LimitError(const std::string& what) : Error("limit exceeded: " + what) {}
};

}  // namespace bbsim::util

#define BBSIM_STRINGIZE_IMPL(x) #x
#define BBSIM_STRINGIZE(x) BBSIM_STRINGIZE_IMPL(x)

/// Hard invariant: throws util::InvariantError with file:line context when
/// `cond` is false. `msg` is any expression convertible to std::string via
/// concatenation (string literals and std::string both work).
///
///   BBSIM_ASSERT(spec.weight > 0, "flow weight must be > 0");
#define BBSIM_ASSERT(cond, msg)                                              \
  do {                                                                       \
    if (!(cond)) {                                                           \
      throw ::bbsim::util::InvariantError(                                   \
          std::string(__FILE__ ":" BBSIM_STRINGIZE(__LINE__) ": ") + (msg)); \
    }                                                                        \
  } while (false)

/// Soft invariant: when `cond` is false, records a violation into `sink`
/// (anything with a report(code, time, subject, message) member -- in
/// practice audit::Auditor) instead of throwing, so an auditing run can
/// keep going and report every violation at once. The message carries the
/// same file:line context as BBSIM_ASSERT.
///
///   BBSIM_AUDIT_CHECK(auditor, used <= cap, audit::Code::kCapacityExceeded,
///                     now, svc.name(), "occupancy above capacity");
#define BBSIM_AUDIT_CHECK(sink, cond, code, time, subject, msg)              \
  do {                                                                       \
    if (!(cond)) {                                                           \
      (sink).report(                                                         \
          (code), (time), (subject),                                         \
          std::string(__FILE__ ":" BBSIM_STRINGIZE(__LINE__) ": ") + (msg)); \
    }                                                                        \
  } while (false)
