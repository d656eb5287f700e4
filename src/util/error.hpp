#pragma once
/// \file error.hpp
/// The structured error surface shared by every fallible public entry
/// point: InvertedIndex::open(dir, {}), the run-file loaders behind
/// compact_index() and verify_index(), PipelineConfig::validate() and the
/// live-indexing layer all speak the same Error type, so callers write one
/// error-handling path regardless of which subsystem refused.
///
/// Expected<T> is the return vehicle: either a value or an Error, with
/// value() hard-failing (the historical abort-on-bad-input behaviour) when
/// the caller does not check first. There is deliberately no exception
/// anywhere — corrupt input is a structured refusal from the try_* loaders
/// and a loud abort from their aborting wrappers (RunFile::open, ...).

#include <string>
#include <utility>
#include <variant>

#include "util/check.hpp"

namespace hetindex {

/// What went wrong, machine-readably; the message carries the detail.
enum class ErrorCode {
  kNotFound,          ///< file/directory/index absent
  kCorrupt,           ///< checksum or structural validation failed
  kUnsupported,       ///< version/codec newer than this build understands
  kInvalidArgument,   ///< caller-supplied configuration is contradictory
  kIo,                ///< read/write/rename failed
  kOverloaded,        ///< admission control shed the request (queue saturated)
  kDeadlineExceeded,  ///< the request's deadline expired before execution
  kUnavailable,       ///< backend down (failed replica, no shard answered)
};

/// Stable lowercase identifier for logs and CLI output.
constexpr const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kNotFound: return "not_found";
    case ErrorCode::kCorrupt: return "corrupt";
    case ErrorCode::kUnsupported: return "unsupported";
    case ErrorCode::kInvalidArgument: return "invalid_argument";
    case ErrorCode::kIo: return "io";
    case ErrorCode::kOverloaded: return "overloaded";
    case ErrorCode::kDeadlineExceeded: return "deadline_exceeded";
    case ErrorCode::kUnavailable: return "unavailable";
  }
  return "unknown";
}

/// One structured failure: a code for dispatch, a message for humans.
/// `transient` marks faults worth a bounded retry (EINTR-class injected or
/// real interruptions); persistent conditions (ENOSPC, EIO) leave it false.
struct Error {
  ErrorCode code = ErrorCode::kInvalidArgument;
  std::string message;
  bool transient = false;

  [[nodiscard]] std::string to_string() const {
    return std::string(error_code_name(code)) + ": " + message;
  }
};

/// Minimal expected-alternative (std::expected is C++23; this library is
/// C++20). Holds either a T or an Error. Move-only Ts are supported — the
/// open() paths return move-only index handles.
template <typename T>
class Expected {
 public:
  Expected(T value) : state_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Expected(Error error) : state_(std::move(error)) {}  // NOLINT(google-explicit-constructor)

  [[nodiscard]] bool has_value() const { return std::holds_alternative<T>(state_); }
  explicit operator bool() const { return has_value(); }

  /// The value; hard-fails with the error message when absent, which is
  /// exactly the legacy abort-on-bad-input behaviour.
  [[nodiscard]] T& value() & {
    require_value();
    return std::get<T>(state_);
  }
  [[nodiscard]] const T& value() const& {
    require_value();
    return std::get<T>(state_);
  }
  [[nodiscard]] T&& value() && {
    require_value();
    return std::get<T>(std::move(state_));
  }

  [[nodiscard]] const Error& error() const {
    HET_CHECK_MSG(!has_value(), "Expected::error() called on a value");
    return std::get<Error>(state_);
  }

  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }
  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T&& operator*() && { return std::move(*this).value(); }

 private:
  void require_value() const {
    if (!has_value()) {
      check_failed("Expected::value()", __FILE__, __LINE__,
                   std::get<Error>(state_).message.c_str());
    }
  }

  std::variant<T, Error> state_;
};

/// Value type of fallible operations that return nothing on success.
using Unit = std::monostate;
/// `Status f();` — either success (Unit) or a structured Error. Construct
/// success as `return Unit{};`.
using Status = Expected<Unit>;

}  // namespace hetindex
