// Portable scalar kernel build. Mirrors the AVX2 build operation-for-
// operation: reductions keep 16 striped accumulators combined in the exact
// tree order the vector horizontal add produces, elementwise kernels
// evaluate the same per-element expression. Compiled with
// -ffp-contract=off so the compiler cannot fuse a multiply-add here that
// the explicit mul/add intrinsics on the AVX2 side would keep separate —
// that is what makes the two builds bit-exact (kernels.h contract).
#include <array>

#include "kernels/kernel_table.h"

namespace numdist::kernels {

namespace {

// Combines 16 striped accumulators exactly like the AVX2 epilogue: the two
// vector adds pairing chains 4 apart, the 128-bit fold pairing lanes 2
// apart, then the final lane pair.
inline double CombineBlocked(const double s[16]) {
  double u[4];
  for (size_t j = 0; j < 4; ++j) {
    u[j] = (s[j] + s[j + 4]) + (s[j + 8] + s[j + 12]);
  }
  return (u[0] + u[2]) + (u[1] + u[3]);
}

double DotScalar(const double* a, const double* b, size_t n) {
  double s[16] = {0};
  const size_t n16 = n & ~size_t{15};
  for (size_t i = 0; i < n16; i += 16) {
    for (size_t l = 0; l < 16; ++l) s[l] += a[i + l] * b[i + l];
  }
  double tail = 0.0;
  for (size_t i = n16; i < n; ++i) tail += a[i] * b[i];
  return CombineBlocked(s) + tail;
}

double SumScalar(const double* x, size_t n) {
  double s[16] = {0};
  const size_t n16 = n & ~size_t{15};
  for (size_t i = 0; i < n16; i += 16) {
    for (size_t l = 0; l < 16; ++l) s[l] += x[i + l];
  }
  double tail = 0.0;
  for (size_t i = n16; i < n; ++i) tail += x[i];
  return CombineBlocked(s) + tail;
}

void AxpyScalar(double* y, double a, const double* x, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += a * x[i];
}

double MulAndSumScalar(double* y, const double* x, size_t n) {
  double s[16] = {0};
  const size_t n16 = n & ~size_t{15};
  for (size_t i = 0; i < n16; i += 16) {
    for (size_t l = 0; l < 16; ++l) {
      y[i + l] *= x[i + l];
      s[l] += y[i + l];
    }
  }
  double tail = 0.0;
  for (size_t i = n16; i < n; ++i) {
    y[i] *= x[i];
    tail += y[i];
  }
  return CombineBlocked(s) + tail;
}

void ScaleScalar(double* x, double a, size_t n) {
  for (size_t i = 0; i < n; ++i) x[i] *= a;
}

// Mirrors the AVX2 block: lanes shifted by one then by two positions
// (zeros shifted in) and added, then the running carry added to all four.
void PrefixSumScalar(const double* x, size_t n, double* out) {
  double carry = 0.0;
  out[0] = carry;
  const size_t n4 = n & ~size_t{3};
  for (size_t i = 0; i < n4; i += 4) {
    const double a0 = x[i] + 0.0;
    const double a1 = x[i + 1] + x[i];
    const double a2 = x[i + 2] + x[i + 1];
    const double a3 = x[i + 3] + x[i + 2];
    out[i + 1] = carry + (a0 + 0.0);
    out[i + 2] = carry + (a1 + 0.0);
    out[i + 3] = carry + (a2 + a0);
    out[i + 4] = carry + (a3 + a1);
    carry = out[i + 4];
  }
  for (size_t i = n4; i < n; ++i) {
    carry += x[i];
    out[i + 1] = carry;
  }
}

void BandRowsScalar(const BandRow* rows, const double* coef, size_t n_rows,
                    size_t k, const double* prefix, const double* x,
                    double background, double height, double* y) {
  const size_t groups = (k + 1) / 2;
  for (size_t j = 0; j < n_rows; ++j) {
    const BandRow r = rows[j];
    const double* c = coef + j * 4 * groups;
    // Lanes: left pair, right pair. The position past an odd k reads 0,
    // as the AVX2 build's zero-filled half load does.
    double lane[4] = {0.0, 0.0, 0.0, 0.0};
    for (size_t g = 0; g < groups; ++g) {
      const size_t t = 2 * g;
      const bool odd_in = t + 1 < k;
      lane[0] = lane[0] + c[4 * g] * x[r.left + t];
      lane[1] = lane[1] + c[4 * g + 1] * (odd_in ? x[r.left + t + 1] : 0.0);
      lane[2] = lane[2] + c[4 * g + 2] * x[r.right + t];
      lane[3] = lane[3] + c[4 * g + 3] * (odd_in ? x[r.right + t + 1] : 0.0);
    }
    const double edge = (lane[0] + lane[1]) + (lane[2] + lane[3]);
    y[j] = (background + height * (prefix[r.hi] - prefix[r.lo])) + edge;
  }
}

void LessThanScalar(const double* u, double threshold, uint8_t* out,
                    size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = u[i] < threshold ? 1 : 0;
}

void GrrResponseMapScalar(const double* u, const uint32_t* values,
                          uint32_t* out, size_t n, double p, double inv_rest,
                          uint32_t domain) {
  const double others = static_cast<double>(domain - 1);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t v = values[i];
    if (u[i] < p) {
      out[i] = v;
      continue;
    }
    const double t = (u[i] - p) * inv_rest;
    uint32_t r = static_cast<uint32_t>(t * others);
    if (r > domain - 2) r = domain - 2;
    out[i] = r >= v ? r + 1 : r;
  }
}

// 256-entry table for the reflected Castagnoli polynomial 0x82F63B78,
// generated at compile time.
constexpr std::array<uint32_t, 256> kCrc32cTable = [] {
  constexpr uint32_t kPoly = 0x82F63B78u;
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
    }
    table[i] = crc;
  }
  return table;
}();

// The reference CRC-32C: one table lookup per byte.
uint32_t Crc32cScalar(const void* data, size_t len, uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t crc = ~seed;
  for (size_t i = 0; i < len; ++i) {
    crc = (crc >> 8) ^ kCrc32cTable[(crc ^ p[i]) & 0xFFu];
  }
  return ~crc;
}

constexpr KernelTable kScalarTable = {
    DotScalar,       SumScalar,      AxpyScalar,
    MulAndSumScalar, ScaleScalar,    PrefixSumScalar,
    BandRowsScalar,  LessThanScalar, GrrResponseMapScalar,
    Crc32cScalar,
};

}  // namespace

const KernelTable* ScalarKernelTable() { return &kScalarTable; }

}  // namespace numdist::kernels
