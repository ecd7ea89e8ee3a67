#include "common/simd.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

// x86 vector paths: AVX2 bodies are compiled with a function-level
// target attribute so this translation unit builds (and the binary
// runs) without -march flags. Every other CPU runs the scalar loops.
#if (defined(__x86_64__) || defined(_M_X64)) && \
    (defined(__GNUC__) || defined(__clang__))
#define GIR_SIMD_HAVE_AVX2_TARGET 1
#define GIR_TARGET_AVX2 __attribute__((target("avx2")))
#include <immintrin.h>
#else
#define GIR_SIMD_HAVE_AVX2_TARGET 0
#endif

namespace gir {
namespace simd {

namespace {

Tier Detect() {
#if GIR_SIMD_HAVE_AVX2_TARGET
  if (__builtin_cpu_supports("avx2")) return Tier::kAvx2;
#endif
  return Tier::kScalar;
}

Tier ClampToDetected(Tier t) {
  return static_cast<int>(t) <= static_cast<int>(DetectedTier())
             ? t
             : DetectedTier();
}

Tier TierFromEnv() {
  const char* env = std::getenv("GIR_SIMD");
  if (env == nullptr || std::strcmp(env, "auto") == 0 ||
      std::strcmp(env, "") == 0) {
    return DetectedTier();
  }
  if (std::strcmp(env, "scalar") == 0) return Tier::kScalar;
  if (std::strcmp(env, "avx2") == 0) return ClampToDetected(Tier::kAvx2);
  // A misspelt or retired tier would otherwise run whatever the CPU
  // detects, silently testing or timing the wrong kernels.
  std::fprintf(stderr,
               "GIR_SIMD=%s is not a dispatch tier; accepted values: "
               "scalar, avx2, auto (or unset)\n",
               env);
  std::exit(2);
}

std::atomic<int>& ActiveTierStorage() {
  static std::atomic<int> tier{static_cast<int>(TierFromEnv())};
  return tier;
}

// Reads GIR_SIMD while the program starts, so an unknown value stops
// it before it does any work rather than at the first kernel call.
[[maybe_unused]] const bool kTierReadAtStartup =
    (ActiveTierStorage(), true);

}  // namespace

Tier DetectedTier() {
  static const Tier detected = Detect();
  return detected;
}

Tier ActiveTier() {
  return static_cast<Tier>(
      ActiveTierStorage().load(std::memory_order_relaxed));
}

Tier ForceTier(Tier t) {
  Tier effective = ClampToDetected(t);
  ActiveTierStorage().store(static_cast<int>(effective),
                            std::memory_order_relaxed);
  return effective;
}

const char* TierName(Tier t) {
  switch (t) {
    case Tier::kScalar:
      return "scalar";
    case Tier::kAvx2:
      return "avx2";
  }
  return "unknown";
}

// ----- Axpy -----

namespace {

void AxpyScalar(double w, const double* x, double* acc, size_t n) {
  for (size_t i = 0; i < n; ++i) acc[i] += w * x[i];
}

#if GIR_SIMD_HAVE_AVX2_TARGET
GIR_TARGET_AVX2 void AxpyAvx2(double w, const double* x, double* acc,
                              size_t n) {
  const __m256d vw = _mm256_set1_pd(w);
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    __m256d a0 = _mm256_loadu_pd(acc + i);
    __m256d a1 = _mm256_loadu_pd(acc + i + 4);
    __m256d a2 = _mm256_loadu_pd(acc + i + 8);
    __m256d a3 = _mm256_loadu_pd(acc + i + 12);
    a0 = _mm256_add_pd(a0, _mm256_mul_pd(vw, _mm256_loadu_pd(x + i)));
    a1 = _mm256_add_pd(a1, _mm256_mul_pd(vw, _mm256_loadu_pd(x + i + 4)));
    a2 = _mm256_add_pd(a2, _mm256_mul_pd(vw, _mm256_loadu_pd(x + i + 8)));
    a3 = _mm256_add_pd(a3, _mm256_mul_pd(vw, _mm256_loadu_pd(x + i + 12)));
    _mm256_storeu_pd(acc + i, a0);
    _mm256_storeu_pd(acc + i + 4, a1);
    _mm256_storeu_pd(acc + i + 8, a2);
    _mm256_storeu_pd(acc + i + 12, a3);
  }
  for (; i + 4 <= n; i += 4) {
    __m256d a = _mm256_loadu_pd(acc + i);
    a = _mm256_add_pd(a, _mm256_mul_pd(vw, _mm256_loadu_pd(x + i)));
    _mm256_storeu_pd(acc + i, a);
  }
  for (; i < n; ++i) acc[i] += w * x[i];
}
#endif

}  // namespace

void Axpy(double w, const double* x, double* acc, size_t n) {
  switch (ActiveTier()) {
#if GIR_SIMD_HAVE_AVX2_TARGET
    case Tier::kAvx2:
      AxpyAvx2(w, x, acc, n);
      return;
#endif
    default:
      AxpyScalar(w, x, acc, n);
      return;
  }
}

// ----- Square -----

namespace {

void SquareScalar(const double* x, double* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = x[i] * x[i];
}

#if GIR_SIMD_HAVE_AVX2_TARGET
GIR_TARGET_AVX2 void SquareAvx2(const double* x, double* out, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d v = _mm256_loadu_pd(x + i);
    _mm256_storeu_pd(out + i, _mm256_mul_pd(v, v));
  }
  for (; i < n; ++i) out[i] = x[i] * x[i];
}
#endif

}  // namespace

void Square(const double* x, double* out, size_t n) {
  switch (ActiveTier()) {
#if GIR_SIMD_HAVE_AVX2_TARGET
    case Tier::kAvx2:
      SquareAvx2(x, out, n);
      return;
#endif
    default:
      SquareScalar(x, out, n);
      return;
  }
}

// ----- Sqrt -----

namespace {

void SqrtScalar(const double* x, double* out, size_t n) {
  for (size_t i = 0; i < n; ++i) out[i] = std::sqrt(x[i]);
}

#if GIR_SIMD_HAVE_AVX2_TARGET
GIR_TARGET_AVX2 void SqrtAvx2(const double* x, double* out, size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm256_storeu_pd(out + i, _mm256_sqrt_pd(_mm256_loadu_pd(x + i)));
  }
  for (; i < n; ++i) out[i] = std::sqrt(x[i]);
}
#endif

}  // namespace

void Sqrt(const double* x, double* out, size_t n) {
  switch (ActiveTier()) {
#if GIR_SIMD_HAVE_AVX2_TARGET
    case Tier::kAvx2:
      SqrtAvx2(x, out, n);
      return;
#endif
    default:
      SqrtScalar(x, out, n);
      return;
  }
}

// ----- PowIter -----

namespace {

void PowIterScalar(const double* x, int e, double* out, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    double r = x[i];
    for (int t = 1; t < e; ++t) r *= x[i];
    out[i] = r;
  }
}

#if GIR_SIMD_HAVE_AVX2_TARGET
GIR_TARGET_AVX2 void PowIterAvx2(const double* x, int e, double* out,
                                 size_t n) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d v = _mm256_loadu_pd(x + i);
    __m256d r = v;
    for (int t = 1; t < e; ++t) r = _mm256_mul_pd(r, v);
    _mm256_storeu_pd(out + i, r);
  }
  for (; i < n; ++i) {
    double r = x[i];
    for (int t = 1; t < e; ++t) r *= x[i];
    out[i] = r;
  }
}
#endif

}  // namespace

void PowIter(const double* x, int e, double* out, size_t n) {
  switch (ActiveTier()) {
#if GIR_SIMD_HAVE_AVX2_TARGET
    case Tier::kAvx2:
      PowIterAvx2(x, e, out, n);
      return;
#endif
    default:
      PowIterScalar(x, e, out, n);
      return;
  }
}

// ----- MaxDotPlaneMulti -----

namespace {

void MaxDotPlaneMultiScalar(const double* w, size_t m, const double* hi,
                            double* acc, size_t stride, size_t n) {
  for (size_t r = 0; r < m; ++r) {
    const double wr = w[r];
    double* row = acc + r * stride;
    for (size_t i = 0; i < n; ++i) row[i] += wr * hi[i];
  }
}

#if GIR_SIMD_HAVE_AVX2_TARGET
GIR_TARGET_AVX2 void MaxDotPlaneMultiAvx2(const double* w, size_t m,
                                          const double* hi, double* acc,
                                          size_t stride, size_t n) {
  size_t r = 0;
  for (; r + 2 <= m; r += 2) {
    const __m256d w0 = _mm256_set1_pd(w[r]);
    const __m256d w1 = _mm256_set1_pd(w[r + 1]);
    double* row0 = acc + r * stride;
    double* row1 = row0 + stride;
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const __m256d x = _mm256_loadu_pd(hi + i);
      _mm256_storeu_pd(row0 + i, _mm256_add_pd(_mm256_loadu_pd(row0 + i),
                                               _mm256_mul_pd(w0, x)));
      _mm256_storeu_pd(row1 + i, _mm256_add_pd(_mm256_loadu_pd(row1 + i),
                                               _mm256_mul_pd(w1, x)));
    }
    for (; i < n; ++i) {
      row0[i] += w[r] * hi[i];
      row1[i] += w[r + 1] * hi[i];
    }
  }
  for (; r < m; ++r) AxpyAvx2(w[r], hi, acc + r * stride, n);
}
#endif

}  // namespace

void MaxDotPlaneMulti(const double* w, size_t m, const double* hi, double* acc,
                      size_t stride, size_t n) {
  switch (ActiveTier()) {
#if GIR_SIMD_HAVE_AVX2_TARGET
    case Tier::kAvx2:
      MaxDotPlaneMultiAvx2(w, m, hi, acc, stride, n);
      return;
#endif
    default:
      MaxDotPlaneMultiScalar(w, m, hi, acc, stride, n);
      return;
  }
}

// ----- IntervalOverlapMask -----

namespace {

void OverlapScalar(const double* lo, const double* hi, double qlo, double qhi,
                   uint8_t* mask, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    mask[i] &= static_cast<uint8_t>(hi[i] >= qlo && lo[i] <= qhi);
  }
}

#if GIR_SIMD_HAVE_AVX2_TARGET
GIR_TARGET_AVX2 void OverlapAvx2(const double* lo, const double* hi,
                                 double qlo, double qhi, uint8_t* mask,
                                 size_t n) {
  const __m256d vlo = _mm256_set1_pd(qlo);
  const __m256d vhi = _mm256_set1_pd(qhi);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d ge = _mm256_cmp_pd(_mm256_loadu_pd(hi + i), vlo, _CMP_GE_OQ);
    __m256d le = _mm256_cmp_pd(_mm256_loadu_pd(lo + i), vhi, _CMP_LE_OQ);
    int bits = _mm256_movemask_pd(_mm256_and_pd(ge, le));
    mask[i] &= static_cast<uint8_t>(bits & 1);
    mask[i + 1] &= static_cast<uint8_t>((bits >> 1) & 1);
    mask[i + 2] &= static_cast<uint8_t>((bits >> 2) & 1);
    mask[i + 3] &= static_cast<uint8_t>((bits >> 3) & 1);
  }
  for (; i < n; ++i) {
    mask[i] &= static_cast<uint8_t>(hi[i] >= qlo && lo[i] <= qhi);
  }
}
#endif

}  // namespace

void IntervalOverlapMask(const double* lo, const double* hi, double qlo,
                         double qhi, uint8_t* mask, size_t n) {
  switch (ActiveTier()) {
#if GIR_SIMD_HAVE_AVX2_TARGET
    case Tier::kAvx2:
      OverlapAvx2(lo, hi, qlo, qhi, mask, n);
      return;
#endif
    default:
      OverlapScalar(lo, hi, qlo, qhi, mask, n);
      return;
  }
}

// ----- MarkAboveFacets -----

namespace {

void MarkAboveScalar(const double* normals, const double* offsets,
                     const int* pool, size_t pool_n, size_t dim, double eps,
                     const double* planes, size_t stride, uint8_t* mask,
                     size_t n) {
  for (size_t p = 0; p < pool_n; ++p) {
    const double* nf = normals + static_cast<size_t>(pool[p]) * dim;
    const double off = offsets[pool[p]];
    for (size_t i = 0; i < n; ++i) {
      double dot = 0.0;
      for (size_t j = 0; j < dim; ++j) dot += nf[j] * planes[j * stride + i];
      mask[i] |= static_cast<uint8_t>(dot - off > eps);
    }
  }
}

#if GIR_SIMD_HAVE_AVX2_TARGET
GIR_TARGET_AVX2 void MarkAboveAvx2(const double* normals,
                                   const double* offsets, const int* pool,
                                   size_t pool_n, size_t dim, double eps,
                                   const double* planes, size_t stride,
                                   uint8_t* mask, size_t n) {
  const __m256d veps = _mm256_set1_pd(eps);
  for (size_t p = 0; p < pool_n; ++p) {
    const double* nf = normals + static_cast<size_t>(pool[p]) * dim;
    const double off = offsets[pool[p]];
    const __m256d voff = _mm256_set1_pd(off);
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      __m256d dot = _mm256_setzero_pd();
      for (size_t j = 0; j < dim; ++j) {
        dot = _mm256_add_pd(
            dot, _mm256_mul_pd(_mm256_set1_pd(nf[j]),
                               _mm256_loadu_pd(planes + j * stride + i)));
      }
      const int bits = _mm256_movemask_pd(
          _mm256_cmp_pd(_mm256_sub_pd(dot, voff), veps, _CMP_GT_OQ));
      mask[i] |= static_cast<uint8_t>(bits & 1);
      mask[i + 1] |= static_cast<uint8_t>((bits >> 1) & 1);
      mask[i + 2] |= static_cast<uint8_t>((bits >> 2) & 1);
      mask[i + 3] |= static_cast<uint8_t>((bits >> 3) & 1);
    }
    for (; i < n; ++i) {
      double dot = 0.0;
      for (size_t j = 0; j < dim; ++j) dot += nf[j] * planes[j * stride + i];
      mask[i] |= static_cast<uint8_t>(dot - off > eps);
    }
  }
}
#endif

}  // namespace

void MarkAboveFacets(const double* normals, const double* offsets,
                     const int* pool, size_t pool_n, size_t dim, double eps,
                     const double* planes, size_t stride, uint8_t* mask,
                     size_t n) {
  switch (ActiveTier()) {
#if GIR_SIMD_HAVE_AVX2_TARGET
    case Tier::kAvx2:
      MarkAboveAvx2(normals, offsets, pool, pool_n, dim, eps, planes, stride,
                    mask, n);
      return;
#endif
    default:
      MarkAboveScalar(normals, offsets, pool, pool_n, dim, eps, planes,
                      stride, mask, n);
      return;
  }
}

// ----- MarkBoxesAboveFacets -----

namespace {

// One box against every facet, first hit wins: the scalar reference
// and every tier's tail.
bool BoxAboveAnyScalar(const double* normals, const double* offsets,
                       size_t facet_n, size_t dim, double eps,
                       const double* lo, const double* hi, size_t stride) {
  for (size_t f = 0; f < facet_n; ++f) {
    const double* nf = normals + f * dim;
    double bound = 0.0;
    for (size_t j = 0; j < dim; ++j) {
      bound += std::max(nf[j] * lo[j * stride], nf[j] * hi[j * stride]);
    }
    if (bound - offsets[f] > eps) return true;
  }
  return false;
}

void MarkBoxesScalar(const double* normals, const double* offsets,
                     size_t facet_n, size_t dim, double eps, const double* lo,
                     const double* hi, size_t stride, uint8_t* mask,
                     size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (mask[i] != 0) continue;
    mask[i] = static_cast<uint8_t>(BoxAboveAnyScalar(
        normals, offsets, facet_n, dim, eps, lo + i, hi + i, stride));
  }
}

#if GIR_SIMD_HAVE_AVX2_TARGET
GIR_TARGET_AVX2 void MarkBoxesAvx2(const double* normals,
                                   const double* offsets, size_t facet_n,
                                   size_t dim, double eps, const double* lo,
                                   const double* hi, size_t stride,
                                   uint8_t* mask, size_t n) {
  const __m256d veps = _mm256_set1_pd(eps);
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    int done = (mask[i] != 0) | ((mask[i + 1] != 0) << 1) |
               ((mask[i + 2] != 0) << 2) | ((mask[i + 3] != 0) << 3);
    for (size_t f = 0; f < facet_n && done != 0xF; ++f) {
      const double* nf = normals + f * dim;
      __m256d bound = _mm256_setzero_pd();
      for (size_t j = 0; j < dim; ++j) {
        const __m256d w = _mm256_set1_pd(nf[j]);
        const __m256d a =
            _mm256_mul_pd(w, _mm256_loadu_pd(lo + j * stride + i));
        const __m256d b =
            _mm256_mul_pd(w, _mm256_loadu_pd(hi + j * stride + i));
        bound = _mm256_add_pd(bound, _mm256_max_pd(a, b));
      }
      const __m256d voff = _mm256_set1_pd(offsets[f]);
      done |= _mm256_movemask_pd(
          _mm256_cmp_pd(_mm256_sub_pd(bound, voff), veps, _CMP_GT_OQ));
    }
    mask[i] = static_cast<uint8_t>(done & 1);
    mask[i + 1] = static_cast<uint8_t>((done >> 1) & 1);
    mask[i + 2] = static_cast<uint8_t>((done >> 2) & 1);
    mask[i + 3] = static_cast<uint8_t>((done >> 3) & 1);
  }
  MarkBoxesScalar(normals, offsets, facet_n, dim, eps, lo + i, hi + i, stride,
                  mask + i, n - i);
}
#endif

}  // namespace

void MarkBoxesAboveFacets(const double* normals, const double* offsets,
                          size_t facet_n, size_t dim, double eps,
                          const double* lo, const double* hi, size_t stride,
                          uint8_t* mask, size_t n) {
  switch (ActiveTier()) {
#if GIR_SIMD_HAVE_AVX2_TARGET
    case Tier::kAvx2:
      MarkBoxesAvx2(normals, offsets, facet_n, dim, eps, lo, hi, stride, mask,
                    n);
      return;
#endif
    default:
      MarkBoxesScalar(normals, offsets, facet_n, dim, eps, lo, hi, stride,
                      mask, n);
      return;
  }
}

// ----- dominance -----

namespace {

bool DominatesScalar(const double* p, const double* q, size_t dim) {
  bool all_ge = true;
  bool any_gt = false;
  for (size_t j = 0; j < dim; ++j) {
    all_ge &= p[j] >= q[j];
    any_gt |= p[j] > q[j];
  }
  return all_ge && any_gt;
}

#if GIR_SIMD_HAVE_AVX2_TARGET
GIR_TARGET_AVX2 bool DominatesAvx2(const double* p, const double* q,
                                   size_t dim) {
  size_t j = 0;
  int ge_bits = 0xF;
  int gt_bits = 0;
  for (; j + 4 <= dim; j += 4) {
    __m256d vp = _mm256_loadu_pd(p + j);
    __m256d vq = _mm256_loadu_pd(q + j);
    ge_bits &= _mm256_movemask_pd(_mm256_cmp_pd(vp, vq, _CMP_GE_OQ));
    gt_bits |= _mm256_movemask_pd(_mm256_cmp_pd(vp, vq, _CMP_GT_OQ));
  }
  bool all_ge = ge_bits == 0xF;
  bool any_gt = gt_bits != 0;
  for (; j < dim; ++j) {
    all_ge &= p[j] >= q[j];
    any_gt |= p[j] > q[j];
  }
  return all_ge && any_gt;
}

GIR_TARGET_AVX2 size_t FindDominatorAvx2(const double* rows, size_t count,
                                         const double* p, size_t dim) {
  for (size_t m = 0; m < count; ++m) {
    if (DominatesAvx2(rows + m * dim, p, dim)) return m;
  }
  return count;
}
#endif

size_t FindDominatorScalar(const double* rows, size_t count, const double* p,
                           size_t dim) {
  for (size_t m = 0; m < count; ++m) {
    if (DominatesScalar(rows + m * dim, p, dim)) return m;
  }
  return count;
}

}  // namespace

bool DominatesRow(const double* p, const double* q, size_t dim) {
  switch (ActiveTier()) {
#if GIR_SIMD_HAVE_AVX2_TARGET
    case Tier::kAvx2:
      return DominatesAvx2(p, q, dim);
#endif
    default:
      return DominatesScalar(p, q, dim);
  }
}

size_t FindDominatorInRows(const double* rows, size_t count, const double* p,
                           size_t dim) {
  switch (ActiveTier()) {
#if GIR_SIMD_HAVE_AVX2_TARGET
    case Tier::kAvx2:
      return FindDominatorAvx2(rows, count, p, dim);
#endif
    default:
      return FindDominatorScalar(rows, count, p, dim);
  }
}

}  // namespace simd
}  // namespace gir
