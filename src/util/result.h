// Result<T>: a value-or-Status holder, the library's equivalent of
// absl::StatusOr / arrow::Result.

#ifndef SQLLEDGER_UTIL_RESULT_H_
#define SQLLEDGER_UTIL_RESULT_H_

#include <cassert>
#include <optional>
#include <utility>

#include "util/status.h"

namespace sqlledger {

/// Holds either a T or a non-OK Status describing why the T is absent.
template <typename T>
class [[nodiscard]] Result {
 public:
  /// Implicit from value: `return my_value;`
  Result(T value) : value_(std::move(value)) {}  // NOLINT(runtime/explicit)
  /// Implicit from error status: `return Status::NotFound(...)`.
  Result(Status status) : status_(std::move(status)) {  // NOLINT
    assert(!status_.ok() && "Result constructed from OK status without value");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// Pre-condition: ok().
  T& value() & {
    assert(ok());
    return *value_;
  }
  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  Status status_;  // OK iff value_ holds a value
  std::optional<T> value_;
};

}  // namespace sqlledger

#endif  // SQLLEDGER_UTIL_RESULT_H_
