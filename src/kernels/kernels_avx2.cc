// AVX2 kernel build. Compiled with -mavx2 (and -ffp-contract=off) in this
// translation unit only; the rest of the library never needs AVX2 to run.
// Reductions use four 4-lane accumulator chains (16 doubles per step —
// deep enough to hide the vaddpd latency) combined by a fixed tree of
// vector adds and one horizontal fold — the blocked order the scalar build
// mirrors exactly (see kernels.h for the bit-exactness contract).
// Multiplies and adds are separate intrinsics on purpose: no FMA, so the
// scalar build needs no libm fma to match.
#include "kernels/kernel_table.h"

#if defined(NUMDIST_KERNELS_AVX2) && (defined(__x86_64__) || defined(__i386__))

#include <immintrin.h>

#include <cstring>

namespace numdist::kernels {

namespace {

// Combines the four 4-lane accumulator chains (chain c holds stripes
// 4c..4c+3) with the fixed tree the scalar build mirrors: chains paired 4
// stripes apart, then the 128-bit fold pairing lanes 2 apart, then the
// final lane pair — u_j = (s_j + s_{j+4}) + (s_{j+8} + s_{j+12}), result =
// (u_0 + u_2) + (u_1 + u_3).
inline double HorizontalSum(__m256d c0, __m256d c1, __m256d c2, __m256d c3) {
  const __m256d s = _mm256_add_pd(_mm256_add_pd(c0, c1), _mm256_add_pd(c2, c3));
  const __m128d lo = _mm256_castpd256_pd128(s);
  const __m128d hi = _mm256_extractf128_pd(s, 1);
  const __m128d fold = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_add_sd(fold, _mm_unpackhi_pd(fold, fold)));
}

double DotAvx2(const double* a, const double* b, size_t n) {
  __m256d c0 = _mm256_setzero_pd();
  __m256d c1 = _mm256_setzero_pd();
  __m256d c2 = _mm256_setzero_pd();
  __m256d c3 = _mm256_setzero_pd();
  const size_t n16 = n & ~size_t{15};
  for (size_t i = 0; i < n16; i += 16) {
    c0 = _mm256_add_pd(
        c0, _mm256_mul_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
    c1 = _mm256_add_pd(c1, _mm256_mul_pd(_mm256_loadu_pd(a + i + 4),
                                         _mm256_loadu_pd(b + i + 4)));
    c2 = _mm256_add_pd(c2, _mm256_mul_pd(_mm256_loadu_pd(a + i + 8),
                                         _mm256_loadu_pd(b + i + 8)));
    c3 = _mm256_add_pd(c3, _mm256_mul_pd(_mm256_loadu_pd(a + i + 12),
                                         _mm256_loadu_pd(b + i + 12)));
  }
  double tail = 0.0;
  for (size_t i = n16; i < n; ++i) tail += a[i] * b[i];
  return HorizontalSum(c0, c1, c2, c3) + tail;
}

double SumAvx2(const double* x, size_t n) {
  __m256d c0 = _mm256_setzero_pd();
  __m256d c1 = _mm256_setzero_pd();
  __m256d c2 = _mm256_setzero_pd();
  __m256d c3 = _mm256_setzero_pd();
  const size_t n16 = n & ~size_t{15};
  for (size_t i = 0; i < n16; i += 16) {
    c0 = _mm256_add_pd(c0, _mm256_loadu_pd(x + i));
    c1 = _mm256_add_pd(c1, _mm256_loadu_pd(x + i + 4));
    c2 = _mm256_add_pd(c2, _mm256_loadu_pd(x + i + 8));
    c3 = _mm256_add_pd(c3, _mm256_loadu_pd(x + i + 12));
  }
  double tail = 0.0;
  for (size_t i = n16; i < n; ++i) tail += x[i];
  return HorizontalSum(c0, c1, c2, c3) + tail;
}

void AxpyAvx2(double* y, double a, const double* x, size_t n) {
  const __m256d av = _mm256_set1_pd(a);
  const size_t n16 = n & ~size_t{15};
  for (size_t i = 0; i < n16; i += 16) {
    _mm256_storeu_pd(
        y + i, _mm256_add_pd(_mm256_loadu_pd(y + i),
                             _mm256_mul_pd(av, _mm256_loadu_pd(x + i))));
    _mm256_storeu_pd(
        y + i + 4,
        _mm256_add_pd(_mm256_loadu_pd(y + i + 4),
                      _mm256_mul_pd(av, _mm256_loadu_pd(x + i + 4))));
    _mm256_storeu_pd(
        y + i + 8,
        _mm256_add_pd(_mm256_loadu_pd(y + i + 8),
                      _mm256_mul_pd(av, _mm256_loadu_pd(x + i + 8))));
    _mm256_storeu_pd(
        y + i + 12,
        _mm256_add_pd(_mm256_loadu_pd(y + i + 12),
                      _mm256_mul_pd(av, _mm256_loadu_pd(x + i + 12))));
  }
  for (size_t i = n16; i < n; ++i) y[i] += a * x[i];
}

double MulAndSumAvx2(double* y, const double* x, size_t n) {
  __m256d c0 = _mm256_setzero_pd();
  __m256d c1 = _mm256_setzero_pd();
  __m256d c2 = _mm256_setzero_pd();
  __m256d c3 = _mm256_setzero_pd();
  const size_t n16 = n & ~size_t{15};
  for (size_t i = 0; i < n16; i += 16) {
    const __m256d p0 =
        _mm256_mul_pd(_mm256_loadu_pd(y + i), _mm256_loadu_pd(x + i));
    const __m256d p1 =
        _mm256_mul_pd(_mm256_loadu_pd(y + i + 4), _mm256_loadu_pd(x + i + 4));
    const __m256d p2 =
        _mm256_mul_pd(_mm256_loadu_pd(y + i + 8), _mm256_loadu_pd(x + i + 8));
    const __m256d p3 = _mm256_mul_pd(_mm256_loadu_pd(y + i + 12),
                                     _mm256_loadu_pd(x + i + 12));
    _mm256_storeu_pd(y + i, p0);
    _mm256_storeu_pd(y + i + 4, p1);
    _mm256_storeu_pd(y + i + 8, p2);
    _mm256_storeu_pd(y + i + 12, p3);
    c0 = _mm256_add_pd(c0, p0);
    c1 = _mm256_add_pd(c1, p1);
    c2 = _mm256_add_pd(c2, p2);
    c3 = _mm256_add_pd(c3, p3);
  }
  double tail = 0.0;
  for (size_t i = n16; i < n; ++i) {
    y[i] *= x[i];
    tail += y[i];
  }
  return HorizontalSum(c0, c1, c2, c3) + tail;
}

void ScaleAvx2(double* x, double a, size_t n) {
  const __m256d av = _mm256_set1_pd(a);
  const size_t n8 = n & ~size_t{7};
  for (size_t i = 0; i < n8; i += 8) {
    _mm256_storeu_pd(x + i, _mm256_mul_pd(av, _mm256_loadu_pd(x + i)));
    _mm256_storeu_pd(x + i + 4, _mm256_mul_pd(av, _mm256_loadu_pd(x + i + 4)));
  }
  for (size_t i = n8; i < n; ++i) x[i] *= a;
}

void PrefixSumAvx2(const double* x, size_t n, double* out) {
  out[0] = 0.0;
  __m256d carry = _mm256_setzero_pd();  // the running total, in every lane
  const size_t n4 = n & ~size_t{3};
  for (size_t i = 0; i < n4; i += 4) {
    const __m256d v = _mm256_loadu_pd(x + i);
    // [0, 0, v0, v1], then the shift by one lane: [0, v0, v1, v2].
    const __m256d v_by2 = _mm256_permute2f128_pd(v, v, 0x08);
    const __m256d a = _mm256_add_pd(v, _mm256_shuffle_pd(v_by2, v, 0x5));
    const __m256d b = _mm256_add_pd(a, _mm256_permute2f128_pd(a, a, 0x08));
    _mm256_storeu_pd(out + i + 1, _mm256_add_pd(carry, b));
    // carry + b3 is the block's last output; adding the broadcast b3 keeps
    // the loop-carried chain to one add per block.
    carry = _mm256_add_pd(carry, _mm256_permute4x64_pd(b, 0xFF));
  }
  double tail = _mm256_cvtsd_f64(carry);
  for (size_t i = n4; i < n; ++i) {
    tail += x[i];
    out[i + 1] = tail;
  }
}

// A row's edge lanes: each 4-wide group is an unaligned left pair and
// right pair of x (the half load of a group past k zero-fills its second
// lane), accumulated in group order.
inline __m256d BandEdgeLanes(const BandRow& r, const double* c, size_t full,
                             size_t groups, const double* x) {
  const double* xl = x + r.left;
  const double* xr = x + r.right;
  __m256d lane = _mm256_setzero_pd();
  for (size_t g = 0; g < full; ++g) {
    const __m256d xv = _mm256_insertf128_pd(
        _mm256_castpd128_pd256(_mm_loadu_pd(xl + 2 * g)),
        _mm_loadu_pd(xr + 2 * g), 1);
    lane = _mm256_add_pd(lane, _mm256_mul_pd(_mm256_loadu_pd(c + 4 * g), xv));
  }
  if (full < groups) {
    const __m256d xv = _mm256_insertf128_pd(
        _mm256_castpd128_pd256(_mm_load_sd(xl + 2 * full)),
        _mm_load_sd(xr + 2 * full), 1);
    lane = _mm256_add_pd(lane,
                         _mm256_mul_pd(_mm256_loadu_pd(c + 4 * full), xv));
  }
  return lane;
}

// Four rows per step: their edge lanes reduce together, two horizontal
// adds and one cross-half add giving each row (l0 + l1) + (r0 + r1), and
// the interior terms and stores go four wide. The remaining rows reduce
// one at a time in the same order.
void BandRowsAvx2(const BandRow* rows, const double* coef, size_t n_rows,
                  size_t k, const double* prefix, const double* x,
                  double background, double height, double* y) {
  const size_t groups = (k + 1) / 2;
  const size_t full = k / 2;
  const size_t stride = 4 * groups;
  const __m256d bg = _mm256_set1_pd(background);
  const __m256d h = _mm256_set1_pd(height);
  size_t j = 0;
  for (; j + 4 <= n_rows; j += 4) {
    const BandRow* r = rows + j;
    const double* c = coef + j * stride;
    const __m256d e0 = BandEdgeLanes(r[0], c, full, groups, x);
    const __m256d e1 = BandEdgeLanes(r[1], c + stride, full, groups, x);
    const __m256d e2 = BandEdgeLanes(r[2], c + 2 * stride, full, groups, x);
    const __m256d e3 = BandEdgeLanes(r[3], c + 3 * stride, full, groups, x);
    const __m256d t01 = _mm256_hadd_pd(e0, e1);
    const __m256d t23 = _mm256_hadd_pd(e2, e3);
    const __m256d edge =
        _mm256_add_pd(_mm256_permute2f128_pd(t01, t23, 0x20),
                      _mm256_permute2f128_pd(t01, t23, 0x31));
    const __m256d p_hi = _mm256_set_pd(prefix[r[3].hi], prefix[r[2].hi],
                                       prefix[r[1].hi], prefix[r[0].hi]);
    const __m256d p_lo = _mm256_set_pd(prefix[r[3].lo], prefix[r[2].lo],
                                       prefix[r[1].lo], prefix[r[0].lo]);
    const __m256d interior =
        _mm256_add_pd(bg, _mm256_mul_pd(h, _mm256_sub_pd(p_hi, p_lo)));
    _mm256_storeu_pd(y + j, _mm256_add_pd(interior, edge));
  }
  for (; j < n_rows; ++j) {
    const BandRow& r = rows[j];
    const __m256d lane = BandEdgeLanes(r, coef + j * stride, full, groups, x);
    const __m128d pairs = _mm_hadd_pd(_mm256_castpd256_pd128(lane),
                                      _mm256_extractf128_pd(lane, 1));
    const double edge =
        _mm_cvtsd_f64(_mm_add_sd(pairs, _mm_unpackhi_pd(pairs, pairs)));
    y[j] = (background + height * (prefix[r.hi] - prefix[r.lo])) + edge;
  }
}

void LessThanAvx2(const double* u, double threshold, uint8_t* out, size_t n) {
  const __m256d t = _mm256_set1_pd(threshold);
  // Bit b of the movemask is lane b's compare; expand the 4-bit mask to 4
  // bytes through a tiny table.
  alignas(16) static constexpr uint8_t kExpand[16][4] = {
      {0, 0, 0, 0}, {1, 0, 0, 0}, {0, 1, 0, 0}, {1, 1, 0, 0},
      {0, 0, 1, 0}, {1, 0, 1, 0}, {0, 1, 1, 0}, {1, 1, 1, 0},
      {0, 0, 0, 1}, {1, 0, 0, 1}, {0, 1, 0, 1}, {1, 1, 0, 1},
      {0, 0, 1, 1}, {1, 0, 1, 1}, {0, 1, 1, 1}, {1, 1, 1, 1}};
  const size_t n4 = n & ~size_t{3};
  for (size_t i = 0; i < n4; i += 4) {
    const int mask = _mm256_movemask_pd(
        _mm256_cmp_pd(_mm256_loadu_pd(u + i), t, _CMP_LT_OQ));
    __builtin_memcpy(out + i, kExpand[mask], 4);
  }
  for (size_t i = n4; i < n; ++i) out[i] = u[i] < threshold ? 1 : 0;
}

void GrrResponseMapAvx2(const double* u, const uint32_t* values, uint32_t* out,
                        size_t n, double p, double inv_rest, uint32_t domain) {
  const __m256d pv = _mm256_set1_pd(p);
  const __m256d inv = _mm256_set1_pd(inv_rest);
  const __m256d others = _mm256_set1_pd(static_cast<double>(domain - 1));
  const __m128i cap = _mm_set1_epi32(static_cast<int>(domain - 2));
  const __m128i one = _mm_set1_epi32(1);
  const size_t n4 = n & ~size_t{3};
  for (size_t i = 0; i < n4; i += 4) {
    const __m256d uu = _mm256_loadu_pd(u + i);
    // Truthful lanes: u < p. The rejected computation below also runs on
    // truthful lanes (t is negative there) but its result is blended away.
    const __m256d keep64 = _mm256_cmp_pd(uu, pv, _CMP_LT_OQ);
    const __m256d t = _mm256_mul_pd(_mm256_sub_pd(uu, pv), inv);
    __m128i r = _mm256_cvttpd_epi32(_mm256_mul_pd(t, others));
    r = _mm_min_epi32(r, cap);  // clamp the u -> 1.0 rounding edge
    const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(
        values + i));
    // Skip-adjust past the truthful value: r >= v  <=>  r + 1.
    const __m128i ge = _mm_cmpgt_epi32(_mm_add_epi32(r, one), v);
    const __m128i adjusted = _mm_sub_epi32(r, ge);  // ge lanes are -1
    // Narrow the 64-bit compare mask to 32-bit lanes for the blend.
    const __m128i keep_lo = _mm256_castsi256_si128(_mm256_castpd_si256(keep64));
    const __m128i keep_hi =
        _mm256_extracti128_si256(_mm256_castpd_si256(keep64), 1);
    const __m128i keep32 = _mm_castps_si128(
        _mm_shuffle_ps(_mm_castsi128_ps(keep_lo), _mm_castsi128_ps(keep_hi),
                       _MM_SHUFFLE(2, 0, 2, 0)));
    const __m128i result = _mm_blendv_epi8(adjusted, v, keep32);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i), result);
  }
  const double others_s = static_cast<double>(domain - 1);
  for (size_t i = n4; i < n; ++i) {
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

// SSE4.2 crc32 (which every AVX2 CPU has, and the TU's flags enable),
// eight bytes per instruction, then byte steps for the tail.
uint32_t Crc32cAvx2(const void* data, size_t len, uint32_t seed) {
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

constexpr KernelTable kAvx2Table = {
    DotAvx2,       SumAvx2,      AxpyAvx2,
    MulAndSumAvx2, ScaleAvx2,    PrefixSumAvx2,
    BandRowsAvx2,  LessThanAvx2, GrrResponseMapAvx2,
    Crc32cAvx2,
};

}  // namespace

const KernelTable* Avx2KernelTable() { return &kAvx2Table; }

}  // namespace numdist::kernels

#else  // !NUMDIST_KERNELS_AVX2

namespace numdist::kernels {
const KernelTable* Avx2KernelTable() { return nullptr; }
}  // namespace numdist::kernels

#endif
