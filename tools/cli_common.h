// The uniform Status error exit shared by the numdist command-line tools.
// Flags are parsed by common/flags.h; each tool keeps its own flag table.
#pragma once

#include <cstdio>

#include "common/status.h"

namespace numdist::tools {

/// Prints a Status to stderr and returns the conventional error exit code.
inline int Fail(const Status& status) {
  fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace numdist::tools
