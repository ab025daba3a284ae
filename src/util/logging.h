// Check macros for library internals. VAS_CHECK* are invariants: they
// fire in every build type and abort, because a broken invariant in a
// sampler or index means silently wrong query answers downstream.
// Diagnostics that do not abort go through obs/log.h.
#ifndef VAS_UTIL_LOGGING_H_
#define VAS_UTIL_LOGGING_H_

#include <string>

namespace vas::internal_logging {

/// Terminates the process after printing a formatted check failure.
[[noreturn]] void CheckFailed(const char* file, int line, const char* expr,
                              const std::string& extra);

}  // namespace vas::internal_logging

#define VAS_CHECK(expr)                                                     \
  do {                                                                      \
    if (!(expr)) {                                                          \
      ::vas::internal_logging::CheckFailed(__FILE__, __LINE__, #expr, "");  \
    }                                                                       \
  } while (false)

#define VAS_CHECK_MSG(expr, msg)                                            \
  do {                                                                      \
    if (!(expr)) {                                                          \
      ::vas::internal_logging::CheckFailed(__FILE__, __LINE__, #expr,       \
                                           (msg));                          \
    }                                                                       \
  } while (false)

#define VAS_DCHECK(expr) VAS_CHECK(expr)

#endif  // VAS_UTIL_LOGGING_H_
