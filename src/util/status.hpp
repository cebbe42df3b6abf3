#pragma once
/// \file status.hpp
/// `cals::Status` / `cals::Result<T>` — the recoverable-error layer.
///
/// The library distinguishes two failure families (DESIGN.md §9):
///  * **Internal invariant violations** — corrupted ids, impossible states —
///    stay on `CALS_CHECK`, which aborts. A wrong answer later is worse than
///    a loud stop now, and there is no sane way to "recover" corrupted state.
///  * **External failures** — malformed input files, infeasible designs,
///    exhausted budgets — are *expected* in a long-running service and flow
///    through `Status`: a code from a small taxonomy plus a human-readable
///    message and, for parse errors, file:line:column provenance.
///
/// `Result<T>` is the usual value-or-status sum type. Both are cheap to move
/// and `[[nodiscard]]` so an ignored failure is a compile-time warning.

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "util/check.hpp"

namespace cals {

enum class ErrorCode : std::uint8_t {
  kOk = 0,
  kParseError,      ///< malformed input text (BLIF/PLA/genlib/CLI)
  kInvalidNetwork,  ///< well-formed text describing an inconsistent netlist
  kInfeasible,      ///< no solution within the design's resources
  kBudgetExceeded,  ///< a phase ran past its wall-clock / iteration budget
  kInternal,        ///< unexpected condition surfaced as a value (e.g. a
                    ///< captured exception) rather than an abort
  kCancelled,         ///< cooperatively stopped by an explicit cancel
  kDeadlineExceeded,  ///< cooperatively stopped by an expired deadline
};

/// Stable lowercase name for logs and tests ("parse error", "infeasible", …).
const char* error_code_name(ErrorCode code);

class [[nodiscard]] Status {
 public:
  /// Default-constructed Status is OK (there is no static ok() factory —
  /// `Status()` is it).
  Status() = default;

  static Status error(ErrorCode code, std::string message) {
    CALS_CHECK_MSG(code != ErrorCode::kOk, "Status::error with kOk");
    Status s;
    s.code_ = code;
    s.message_ = std::move(message);
    return s;
  }
  static Status parse_error(std::string message, std::uint32_t line = 0,
                            std::uint32_t column = 0) {
    Status s = error(ErrorCode::kParseError, std::move(message));
    s.line_ = line;
    s.column_ = column;
    return s;
  }
  static Status invalid_network(std::string message) {
    return error(ErrorCode::kInvalidNetwork, std::move(message));
  }
  static Status infeasible(std::string message) {
    return error(ErrorCode::kInfeasible, std::move(message));
  }
  static Status budget_exceeded(std::string message) {
    return error(ErrorCode::kBudgetExceeded, std::move(message));
  }
  static Status internal(std::string message) {
    return error(ErrorCode::kInternal, std::move(message));
  }
  static Status cancelled(std::string message) {
    return error(ErrorCode::kCancelled, std::move(message));
  }
  static Status deadline_exceeded(std::string message) {
    return error(ErrorCode::kDeadlineExceeded, std::move(message));
  }

  bool ok() const { return code_ == ErrorCode::kOk; }
  ErrorCode code() const { return code_; }
  const std::string& message() const { return message_; }
  const std::string& file() const { return file_; }
  std::uint32_t line() const { return line_; }
  std::uint32_t column() const { return column_; }

  /// Attaches input provenance (the readers call this with the path; parse
  /// helpers with "<string>"). Returns *this so call sites can chain.
  Status& with_file(std::string path) {
    file_ = std::move(path);
    return *this;
  }
  Status& with_line(std::uint32_t line, std::uint32_t column = 0) {
    line_ = line;
    column_ = column;
    return *this;
  }

  /// "parse error: designs/a.blif:12:3: blif: cube arity mismatch" — code
  /// name, then file:line[:column] when known, then the message.
  std::string to_string() const;

 private:
  ErrorCode code_ = ErrorCode::kOk;
  std::string message_;
  std::string file_;
  std::uint32_t line_ = 0;    ///< 1-based; 0 = unknown / not a text input
  std::uint32_t column_ = 0;  ///< 1-based; 0 = unknown
};

/// Value-or-Status. Accessing `value()` on a failed Result is an internal
/// invariant violation (CALS_CHECK) — callers must test `ok()` first.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    CALS_CHECK_MSG(!status_.ok(), "Result constructed from OK status without a value");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  T& value() {
    CALS_CHECK_MSG(ok(), "Result::value() on error");
    return *value_;
  }
  const T& value() const {
    CALS_CHECK_MSG(ok(), "Result::value() on error");
    return *value_;
  }
  T& operator*() { return value(); }
  const T& operator*() const { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

  /// For trusted input (built-in constants, test fixtures): dies with the
  /// diagnostic on error, otherwise moves the value out.
  T value_or_die() && {
    if (!ok()) check_fail("Result::ok()", __FILE__, __LINE__, status_.to_string().c_str());
    return std::move(*value_);
  }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace cals
