// Result<T>: a lightweight ok-or-error return type for operations that can
// fail in expected, recoverable ways — most importantly the timed socket
// and runtime operations added with the fault-injection layer, where a
// stalled peer must surface as a clean error instead of a process blocked
// forever.
//
// This is deliberately smaller than std::expected (C++23): an Error is a
// code plus a human-readable message, and value access on an error (or
// error access on a value) fails an SV_ASSERT rather than being UB.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <variant>

#include "common/check.h"

namespace sv {

enum class ErrorCode {
  kTimeout,  // the operation's deadline elapsed before it could complete
  kClosed,   // the peer/stream is closed; no further progress possible
  kFailed,   // any other expected failure (message carries the detail)
};

struct Error {
  ErrorCode code = ErrorCode::kFailed;
  std::string message;

  [[nodiscard]] static Error timeout(std::string msg) {
    return Error{ErrorCode::kTimeout, std::move(msg)};
  }
  [[nodiscard]] static Error closed(std::string msg) {
    return Error{ErrorCode::kClosed, std::move(msg)};
  }
  [[nodiscard]] static Error failed(std::string msg) {
    return Error{ErrorCode::kFailed, std::move(msg)};
  }
};

template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : v_(std::move(value)) {}  // NOLINT(google-explicit-*)
  Result(Error e) : v_(std::move(e)) {}      // NOLINT(google-explicit-*)

  [[nodiscard]] bool ok() const { return std::holds_alternative<T>(v_); }
  explicit operator bool() const { return ok(); }

  [[nodiscard]] T& value() {
    SV_ASSERT(ok(), "Result::value() on an error result");
    return std::get<T>(v_);
  }
  [[nodiscard]] const T& value() const {
    SV_ASSERT(ok(), "Result::value() on an error result");
    return std::get<T>(v_);
  }
  [[nodiscard]] const Error& error() const {
    SV_ASSERT(!ok(), "Result::error() on an ok result");
    return std::get<Error>(v_);
  }
  [[nodiscard]] ErrorCode code() const { return error().code; }
  [[nodiscard]] bool timed_out() const {
    return !ok() && error().code == ErrorCode::kTimeout;
  }

 private:
  std::variant<T, Error> v_;
};

/// Result<void>: success carries no value.
template <>
class [[nodiscard]] Result<void> {
 public:
  Result() = default;                    // ok
  Result(Error e) : err_(std::move(e)) {}  // NOLINT(google-explicit-*)

  [[nodiscard]] static Result<void> success() { return Result<void>(); }

  [[nodiscard]] bool ok() const { return !err_.has_value(); }
  explicit operator bool() const { return ok(); }

  [[nodiscard]] const Error& error() const {
    SV_ASSERT(!ok(), "Result::error() on an ok result");
    return *err_;
  }
  [[nodiscard]] ErrorCode code() const { return error().code; }
  [[nodiscard]] bool timed_out() const {
    return !ok() && err_->code == ErrorCode::kTimeout;
  }

 private:
  std::optional<Error> err_;
};

}  // namespace sv
