// AVX-512 kernel build. Compiled with -mavx512f/-mavx512bw/-mavx512dq/
// -mavx512vl (and -ffp-contract=off) in this translation unit only.
//
// The bit-exactness contract (kernels.h) pins the 16-stripe reduction
// order, so this build keeps exactly TWO 8-lane accumulator chains: chain A
// holds stripes 0..7, chain B stripes 8..15. Lane j of lo256(A) + hi256(A)
// is s_j + s_{j+4} and lane j of lo256(B) + hi256(B) is s_{j+8} + s_{j+12},
// so adding the two 256-bit halves of each chain reproduces, per lane, the
// AVX2 combine u_j = (s_j + s_{j+4}) + (s_{j+8} + s_{j+12}); the shared
// 128-bit fold then yields (u_0 + u_2) + (u_1 + u_3). Every per-lane add
// sequence matches the scalar and AVX2 builds operation for operation —
// widening to more chains would change the reduction tree and break the
// contract. Multiplies and adds stay separate intrinsics: no FMA.
#include "kernels/kernel_table.h"

#if defined(NUMDIST_KERNELS_AVX512) && \
    (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

#include <cstring>

namespace numdist::kernels {

namespace {

// Folds the AVX2-shaped combine vector u (lane j = u_j) into
// (u_0 + u_2) + (u_1 + u_3) — identical to the AVX2 epilogue.
inline double Fold256(__m256d u) {
  const __m128d lo = _mm256_castpd256_pd128(u);
  const __m128d hi = _mm256_extractf128_pd(u, 1);
  const __m128d fold = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_add_sd(fold, _mm_unpackhi_pd(fold, fold)));
}

// Combines the two 8-lane chains (A = stripes 0..7, B = stripes 8..15):
// halves of each chain pair stripes 4 apart, the cross-chain add pairs 8
// apart — u_j = (s_j + s_{j+4}) + (s_{j+8} + s_{j+12}), then the fold.
inline double HorizontalSum512(__m512d ca, __m512d cb) {
  const __m256d a =
      _mm256_add_pd(_mm512_castpd512_pd256(ca), _mm512_extractf64x4_pd(ca, 1));
  const __m256d b =
      _mm256_add_pd(_mm512_castpd512_pd256(cb), _mm512_extractf64x4_pd(cb, 1));
  return Fold256(_mm256_add_pd(a, b));
}

double DotAvx512(const double* a, const double* b, size_t n) {
  __m512d ca = _mm512_setzero_pd();
  __m512d cb = _mm512_setzero_pd();
  const size_t n16 = n & ~size_t{15};
  for (size_t i = 0; i < n16; i += 16) {
    ca = _mm512_add_pd(
        ca, _mm512_mul_pd(_mm512_loadu_pd(a + i), _mm512_loadu_pd(b + i)));
    cb = _mm512_add_pd(cb, _mm512_mul_pd(_mm512_loadu_pd(a + i + 8),
                                         _mm512_loadu_pd(b + i + 8)));
  }
  double tail = 0.0;
  for (size_t i = n16; i < n; ++i) tail += a[i] * b[i];
  return HorizontalSum512(ca, cb) + tail;
}

double SumAvx512(const double* x, size_t n) {
  __m512d ca = _mm512_setzero_pd();
  __m512d cb = _mm512_setzero_pd();
  const size_t n16 = n & ~size_t{15};
  for (size_t i = 0; i < n16; i += 16) {
    ca = _mm512_add_pd(ca, _mm512_loadu_pd(x + i));
    cb = _mm512_add_pd(cb, _mm512_loadu_pd(x + i + 8));
  }
  double tail = 0.0;
  for (size_t i = n16; i < n; ++i) tail += x[i];
  return HorizontalSum512(ca, cb) + tail;
}

void AxpyAvx512(double* y, double a, const double* x, size_t n) {
  const __m512d av = _mm512_set1_pd(a);
  const size_t n16 = n & ~size_t{15};
  for (size_t i = 0; i < n16; i += 16) {
    _mm512_storeu_pd(
        y + i, _mm512_add_pd(_mm512_loadu_pd(y + i),
                             _mm512_mul_pd(av, _mm512_loadu_pd(x + i))));
    _mm512_storeu_pd(
        y + i + 8,
        _mm512_add_pd(_mm512_loadu_pd(y + i + 8),
                      _mm512_mul_pd(av, _mm512_loadu_pd(x + i + 8))));
  }
  for (size_t i = n16; i < n; ++i) y[i] += a * x[i];
}

double MulAndSumAvx512(double* y, const double* x, size_t n) {
  __m512d ca = _mm512_setzero_pd();
  __m512d cb = _mm512_setzero_pd();
  const size_t n16 = n & ~size_t{15};
  for (size_t i = 0; i < n16; i += 16) {
    const __m512d pa =
        _mm512_mul_pd(_mm512_loadu_pd(y + i), _mm512_loadu_pd(x + i));
    const __m512d pb =
        _mm512_mul_pd(_mm512_loadu_pd(y + i + 8), _mm512_loadu_pd(x + i + 8));
    _mm512_storeu_pd(y + i, pa);
    _mm512_storeu_pd(y + i + 8, pb);
    ca = _mm512_add_pd(ca, pa);
    cb = _mm512_add_pd(cb, pb);
  }
  double tail = 0.0;
  for (size_t i = n16; i < n; ++i) {
    y[i] *= x[i];
    tail += y[i];
  }
  return HorizontalSum512(ca, cb) + tail;
}

void ScaleAvx512(double* x, double a, size_t n) {
  const __m512d av = _mm512_set1_pd(a);
  const size_t n8 = n & ~size_t{7};
  for (size_t i = 0; i < n8; i += 8) {
    _mm512_storeu_pd(x + i, _mm512_mul_pd(av, _mm512_loadu_pd(x + i)));
  }
  for (size_t i = n8; i < n; ++i) x[i] *= a;
}

void WindowCombineAvx512(double* y, size_t n, size_t lag, double background,
                         double height) {
  const __m512d bg = _mm512_set1_pd(background);
  const __m512d h = _mm512_set1_pd(height);
  size_t j = n;
  // Descending 8-wide; same in-place argument as the AVX2 build: each step
  // stores [j-8, j), every later step reads strictly below that, and this
  // step's lagged reads [j-8-lag, j-lag) lie strictly below every index
  // already stored ([j, n)). Needs the lagged block in bounds: j-8-lag >= 0.
  while (j >= 8 && j >= lag + 8) {
    const __m512d cur = _mm512_loadu_pd(y + j - 8);
    const __m512d lagged = _mm512_loadu_pd(y + j - 8 - lag);
    _mm512_storeu_pd(
        y + j - 8,
        _mm512_add_pd(bg, _mm512_mul_pd(h, _mm512_sub_pd(cur, lagged))));
    j -= 8;
  }
  while (j-- > 0) {
    const double lagged = j >= lag ? y[j - lag] : 0.0;
    y[j] = background + height * (y[j] - lagged);
  }
}

void LessThanAvx512(const double* u, double threshold, uint8_t* out,
                    size_t n) {
  const __m512d t = _mm512_set1_pd(threshold);
  const size_t n8 = n & ~size_t{7};
  for (size_t i = 0; i < n8; i += 8) {
    const __mmask8 m =
        _mm512_cmp_pd_mask(_mm512_loadu_pd(u + i), t, _CMP_LT_OQ);
    // Mask bit b set -> byte b = 1; masked-zero set1 expands it directly.
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + i),
                     _mm_maskz_set1_epi8(m, 1));
  }
  for (size_t i = n8; i < n; ++i) out[i] = u[i] < threshold ? 1 : 0;
}

void GrrResponseMapAvx512(const double* u, const uint32_t* values,
                          uint32_t* out, size_t n, double p, double inv_rest,
                          uint32_t domain) {
  const __m512d pv = _mm512_set1_pd(p);
  const __m512d inv = _mm512_set1_pd(inv_rest);
  const __m512d others = _mm512_set1_pd(static_cast<double>(domain - 1));
  const __m256i cap = _mm256_set1_epi32(static_cast<int>(domain - 2));
  const __m256i one = _mm256_set1_epi32(1);
  const size_t n8 = n & ~size_t{7};
  for (size_t i = 0; i < n8; i += 8) {
    const __m512d uu = _mm512_loadu_pd(u + i);
    // Truthful lanes: u < p. The rejected computation also runs on truthful
    // lanes (t is negative there) but its result is blended away.
    const __mmask8 keep = _mm512_cmp_pd_mask(uu, pv, _CMP_LT_OQ);
    const __m512d t = _mm512_mul_pd(_mm512_sub_pd(uu, pv), inv);
    __m256i r = _mm512_cvttpd_epi32(_mm512_mul_pd(t, others));
    r = _mm256_min_epi32(r, cap);  // clamp the u -> 1.0 rounding edge
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i));
    // Skip-adjust past the truthful value: r >= v  <=>  r + 1 > v.
    const __m256i ge = _mm256_cmpgt_epi32(_mm256_add_epi32(r, one), v);
    const __m256i adjusted = _mm256_sub_epi32(r, ge);  // ge lanes are -1
    const __m256i result = _mm256_mask_blend_epi32(keep, adjusted, v);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), result);
  }
  const double others_s = static_cast<double>(domain - 1);
  for (size_t i = n8; i < n; ++i) {
    const uint32_t v = values[i];
    if (u[i] < p) {
      out[i] = v;
      continue;
    }
    const double t = (u[i] - p) * inv_rest;
    uint32_t r = static_cast<uint32_t>(t * others_s);
    if (r > domain - 2) r = domain - 2;
    out[i] = r >= v ? r + 1 : r;
  }
}

// SSE4.2 crc32 (which every AVX-512 CPU has, and the TU's flags enable),
// eight bytes per instruction, then byte steps for the tail.
uint32_t Crc32cAvx512(const void* data, size_t len, uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t crc = ~seed;
  for (; len >= 8; p += 8, len -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  auto crc32 = static_cast<uint32_t>(crc);
  for (; len > 0; ++p, --len) crc32 = _mm_crc32_u8(crc32, *p);
  return ~crc32;
}

constexpr KernelTable kAvx512Table = {
    DotAvx512,         SumAvx512,           AxpyAvx512,
    MulAndSumAvx512,   ScaleAvx512,         WindowCombineAvx512,
    LessThanAvx512,    GrrResponseMapAvx512, Crc32cAvx512,
};

}  // namespace

const KernelTable* Avx512KernelTable() { return &kAvx512Table; }

}  // namespace numdist::kernels

#else  // !NUMDIST_KERNELS_AVX512

namespace numdist::kernels {
const KernelTable* Avx512KernelTable() { return nullptr; }
}  // namespace numdist::kernels

#endif
