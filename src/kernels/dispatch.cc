// Dispatch resolution: picks the kernel build once per process (environment
// override first, then CPU detection) and exposes the public entry points,
// each one indirect call into the selected table.
#include "kernels/kernels.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "kernels/kernel_table.h"

namespace numdist::kernels {

namespace {

bool CpuHasAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

// Clamps a requested tier to what the binary + CPU can actually run: AVX2
// falls back to scalar.
const KernelTable* TableFor(Isa isa) {
  if (isa == Isa::kAvx2 && Avx2Available()) return Avx2KernelTable();
  return ScalarKernelTable();
}

// NUMDIST_FORCE_ISA=scalar pins the scalar build. Otherwise AVX2 wins
// where it can run: pinning avx2 is that same choice, and unknown values
// are ignored.
const KernelTable* Resolve() {
  const char* v = std::getenv("NUMDIST_FORCE_ISA");
  const bool scalar = v != nullptr && std::strcmp(v, "scalar") == 0;
  return TableFor(scalar ? Isa::kScalar : Isa::kAvx2);
}

// Resolved once on first use; ForceIsaForTest/ResetIsaForTest may swap it
// (tests and benches only, before spawning workers).
std::atomic<const KernelTable*> g_active{nullptr};

inline const KernelTable* Active() {
  const KernelTable* table = g_active.load(std::memory_order_acquire);
  if (table == nullptr) {
    table = Resolve();
    g_active.store(table, std::memory_order_release);
  }
  return table;
}

}  // namespace

bool Avx2Available() { return Avx2KernelTable() != nullptr && CpuHasAvx2(); }

Isa ActiveIsa() {
  const KernelTable* table = Active();
  if (table == Avx2KernelTable()) return Isa::kAvx2;
  return Isa::kScalar;
}

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
  }
  return "unknown";
}

void ForceIsaForTest(Isa isa) {
  g_active.store(TableFor(isa), std::memory_order_release);
}

void ResetIsaForTest() {
  g_active.store(Resolve(), std::memory_order_release);
}

double Dot(const double* a, const double* b, size_t n) {
  return Active()->dot(a, b, n);
}

double Sum(const double* x, size_t n) { return Active()->sum(x, n); }

void Axpy(double* y, double a, const double* x, size_t n) {
  Active()->axpy(y, a, x, n);
}

double MulAndSum(double* y, const double* x, size_t n) {
  return Active()->mul_and_sum(y, x, n);
}

void Scale(double* x, double a, size_t n) { Active()->scale(x, a, n); }

void PrefixSum(const double* x, size_t n, double* out) {
  Active()->prefix_sum(x, n, out);
}

void BandRows(const BandRow* rows, const double* coef, size_t n_rows,
              size_t k, const double* prefix, const double* x,
              double background, double height, double* y) {
  Active()->band_rows(rows, coef, n_rows, k, prefix, x, background, height,
                      y);
}

void LessThan(const double* u, double threshold, uint8_t* out, size_t n) {
  Active()->less_than(u, threshold, out, n);
}

void GrrResponseMap(const double* u, const uint32_t* values, uint32_t* out,
                    size_t n, double p, double inv_rest, uint32_t domain) {
  Active()->grr_response_map(u, values, out, n, p, inv_rest, domain);
}

uint32_t Crc32c(const void* data, size_t len, uint32_t seed) {
  return Active()->crc32c(data, len, seed);
}

}  // namespace numdist::kernels
