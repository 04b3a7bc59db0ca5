// Runtime-dispatched SIMD numeric kernels for the report/EM hot paths.
//
// Every kernel has two implementations selected once per process: an AVX2
// build (own TU, -mavx2) and a portable scalar build. Both are BIT-EXACT
// by construction — this is the layer's hard contract, enforced by
// tests/kernels_test.cc:
//
//   * Reductions (Dot, Sum, MulAndSum) use a fixed lane-blocked summation
//     order: 16 independent accumulators striped over the input
//     (accumulator l sums elements 16k+l), combined by the fixed tree
//       u_j = (s_j + s_{j+4}) + (s_{j+8} + s_{j+12}),  j = 0..3
//       result = (u_0 + u_2) + (u_1 + u_3)
//     — exactly the vector-add + horizontal-add tree the AVX2 path (four
//     4-lane chains) produces — plus a sequential scalar tail for n % 16
//     leftovers. The scalar build performs the same operations on the
//     same values in the same order, so both paths round identically.
//   * Elementwise kernels (Axpy, Scale, LessThan, GrrResponseMap) are
//     data-parallel IEEE operations with no reassociation; vector and
//     scalar lanes compute the same expression per element. No FMA
//     contraction is used on any path (the kernel TUs are compiled with
//     -ffp-contract=off), so a fused multiply-add can never make one path
//     round differently from another.
//   * PrefixSum walks 4-element blocks: an in-block two-step shifted add
//     (the AVX2 lane shifts, zeros shifted in) plus the running carry,
//     then a sequential tail. BandRows computes each row independently:
//     its edge terms in four fixed lanes (two left, two right) reduced as
//     (l0 + l1) + (r0 + r1), then added to the interior term. The scalar
//     build performs both in exactly that order. Together they are both
//     SW observation operators (core/observation_model.h).
//   * Crc32c is integer arithmetic: the scalar build's table loop is the
//     reference, and the AVX2 build's SSE4.2 crc32 instruction computes
//     the same polynomial, so both tiers return the same checksum.
//
// Dispatch: resolved on first use. NUMDIST_FORCE_ISA={scalar,avx2} in the
// environment pins one build (used by CI to diff the tiers; avx2 on a
// binary/CPU that cannot run it falls back to scalar, and any other value
// is ignored). Otherwise AVX2 wins when the binary carries that TU and the
// CPU reports avx2, else scalar. ForceIsaForTest() overrides the choice
// in-process so one test binary can compare both paths directly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace numdist::kernels {

/// Instruction sets a kernel build can target.
enum class Isa {
  kScalar,  ///< portable blocked scalar build (always available)
  kAvx2,    ///< AVX2 build (x86-64 with the avx2 feature bit)
};

/// The ISA the process resolved (env override, CPU detection, compiled-in
/// availability). Stable after the first kernel call unless overridden.
Isa ActiveIsa();

/// Human-readable name ("scalar", "avx2") for logs and bench labels.
const char* IsaName(Isa isa);

/// True iff this binary carries the AVX2 kernel build and the CPU supports
/// it (ignores the environment override).
bool Avx2Available();

/// Test/bench-only: pins dispatch to `isa`. Pinning AVX2 where its build
/// or CPU support is missing falls back to scalar. Not thread-safe against
/// concurrent kernel calls; call before spawning workers.
void ForceIsaForTest(Isa isa);

/// Test/bench-only: undoes ForceIsaForTest and re-resolves from the
/// environment + CPU.
void ResetIsaForTest();

/// Blocked dot product sum_i a[i] * b[i] (fixed-order reduction).
double Dot(const double* a, const double* b, size_t n);

/// Blocked sum of x[0..n) (fixed-order reduction).
double Sum(const double* x, size_t n);

/// y[i] += a * x[i] for i in [0, n). Elementwise; no reduction.
void Axpy(double* y, double a, const double* x, size_t n);

/// y[i] *= x[i] for i in [0, n); returns the blocked sum of the products
/// (the EM M-step's multiply-and-total in one pass).
double MulAndSum(double* y, const double* x, size_t n);

/// x[i] *= a for i in [0, n).
void Scale(double* x, double a, size_t n);

/// Exclusive prefix sum: out[0] = 0 and out[k] = x[0] + ... + x[k-1] for k
/// in [1, n], so `out` holds n + 1 entries and out[n] is the total. The
/// additions follow the fixed blocked order in the header comment, so
/// every tier returns the same bits. `out` must not overlap `x`.
void PrefixSum(const double* x, size_t n, double* out);

/// One row of a banded operator (BandRows): the interior [lo, hi) of the
/// input, and where the row's left and right edge blocks start.
struct BandRow {
  uint32_t lo;
  uint32_t hi;
  uint32_t left;
  uint32_t right;
};

/// Banded rows over a prefix sum: for each j in [0, n_rows),
///   y[j] = (background + height * (prefix[hi] - prefix[lo])) + edge_j,
///   edge_j = sum over t < k of c[4(t/2) + t%2] * x[left + t]
///                            + c[4(t/2) + 2 + t%2] * x[right + t],
/// where (lo, hi, left, right) = rows[j] and c = coef + j * 4 * ceil(k/2):
/// each pair of edge positions is one 4-wide group (left pair, right
/// pair). `prefix` is PrefixSum of `x`. Every x[left + t] and x[right + t]
/// with t < k must be in bounds; the odd position past an odd k is not
/// read from x and adds its (finite) coefficient times 0. With k = 0 a row
/// is its interior term alone, and neither `coef` nor `x` is read. The
/// edge terms accumulate per lane in group order and reduce as
/// (l0 + l1) + (r0 + r1).
void BandRows(const BandRow* rows, const double* coef, size_t n_rows,
              size_t k, const double* prefix, const double* x,
              double background, double height, double* y);

/// out[i] = u[i] < threshold ? 1 : 0 (the vectorized Bernoulli compare
/// behind Rng::FillBernoulli and the OUE row encoder).
void LessThan(const double* u, double threshold, uint8_t* out, size_t n);

/// The GRR single-draw response map: for each i, out[i] = values[i] when
/// u[i] < p (report the truth), otherwise the residual uniform u' =
/// (u[i] - p) * inv_rest (in [0, 1)) is mapped onto the domain - 1 other
/// categories: r = min(trunc(u' * (domain - 1)), domain - 2), skip-adjusted
/// past values[i]. Requires domain >= 2 and inv_rest == 1 / (1 - p).
void GrrResponseMap(const double* u, const uint32_t* values, uint32_t* out,
                    size_t n, double p, double inv_rest, uint32_t domain);

/// CRC-32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78) of
/// `data`, continuing from `seed`: pass the previous call's return value
/// to checksum a record fed in pieces. The empty string checksums to 0.
/// The integrity check of every write-ahead log record (serve/wal.h,
/// docs/WIRE_FORMAT.md).
uint32_t Crc32c(const void* data, size_t len, uint32_t seed = 0);

inline uint32_t Crc32c(std::string_view data, uint32_t seed = 0) {
  return Crc32c(data.data(), data.size(), seed);
}

}  // namespace numdist::kernels
