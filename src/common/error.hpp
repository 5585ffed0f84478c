// Error handling primitives for the DDStore library.
//
// Library-level failures (bad configuration, corrupt data, missing files)
// throw dds::Error.  Internal invariants use DDS_CHECK, which throws
// dds::InternalError with file/line context; invariant checks stay enabled
// in release builds because they guard simulation correctness, not hot loops.
#pragma once

#include <cstdio>
#include <stdexcept>
#include <string>
#include <utility>

namespace dds {

/// Base class for all errors thrown by the DDStore libraries.
class Error : public std::runtime_error {
 public:
  explicit Error(std::string what) : std::runtime_error(std::move(what)) {}
};

/// Thrown on invalid user-supplied configuration or arguments.
class ConfigError : public Error {
 public:
  explicit ConfigError(std::string what) : Error(std::move(what)) {}
};

/// Thrown on malformed or truncated serialized data.
class DataError : public Error {
 public:
  explicit DataError(std::string what) : Error(std::move(what)) {}
};

/// Thrown on filesystem-level failures (missing file, bad handle, ...).
class IoError : public Error {
 public:
  explicit IoError(std::string what) : Error(std::move(what)) {}
};

/// Thrown when an internal invariant is violated (a bug in this library).
class InternalError : public Error {
 public:
  explicit InternalError(std::string what) : Error(std::move(what)) {}
};

namespace detail {
[[noreturn]] inline void check_failed(const char* expr, const char* file,
                                      int line, const std::string& msg) {
  std::string what = "invariant violated: ";
  what += expr;
  what += " at ";
  what += file;
  what += ":";
  what += std::to_string(line);
  if (!msg.empty()) {
    what += " — ";
    what += msg;
  }
  throw InternalError(what);
}
}  // namespace detail

}  // namespace dds

/// Checks an internal invariant; throws dds::InternalError when violated.
#define DDS_CHECK(expr)                                              \
  do {                                                               \
    if (!(expr)) {                                                   \
      ::dds::detail::check_failed(#expr, __FILE__, __LINE__, "");    \
    }                                                                \
  } while (false)

/// Checks an internal invariant with a human-readable explanation.
#define DDS_CHECK_MSG(expr, msg)                                     \
  do {                                                               \
    if (!(expr)) {                                                   \
      ::dds::detail::check_failed(#expr, __FILE__, __LINE__, (msg)); \
    }                                                                \
  } while (false)
