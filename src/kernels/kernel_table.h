// Internal: the function table one kernel build fills in. Each build
// (scalar, AVX2) provides one immutable table; dispatch.cc selects
// which table the public entry points call through. Not installed API — only
// the kernels/ translation units include this.
#pragma once

#include <cstddef>
#include <cstdint>

#include "kernels/kernels.h"

namespace numdist::kernels {

struct KernelTable {
  double (*dot)(const double*, const double*, size_t);
  double (*sum)(const double*, size_t);
  void (*axpy)(double*, double, const double*, size_t);
  double (*mul_and_sum)(double*, const double*, size_t);
  void (*scale)(double*, double, size_t);
  void (*prefix_sum)(const double*, size_t, double*);
  void (*band_rows)(const BandRow*, const double*, size_t, size_t,
                    const double*, const double*, double, double, double*);
  void (*less_than)(const double*, double, uint8_t*, size_t);
  void (*grr_response_map)(const double*, const uint32_t*, uint32_t*, size_t,
                           double, double, uint32_t);
  uint32_t (*crc32c)(const void*, size_t, uint32_t);
};

/// The portable blocked-scalar build (always available).
const KernelTable* ScalarKernelTable();

/// The AVX2 build, or nullptr when this binary was compiled without it.
const KernelTable* Avx2KernelTable();

}  // namespace numdist::kernels
