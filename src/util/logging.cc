#include "util/logging.h"

#include <cstdio>
#include <cstdlib>

namespace vas::internal_logging {

void CheckFailed(const char* file, int line, const char* expr,
                 const std::string& extra) {
  std::fprintf(stderr, "[FATAL] %s:%d: check failed: %s%s%s\n", file, line,
               expr, extra.empty() ? "" : " — ", extra.c_str());
  std::abort();
}

}  // namespace vas::internal_logging
