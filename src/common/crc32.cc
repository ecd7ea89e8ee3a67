#include "common/crc32.h"

#include <cstring>

#include "common/simd.h"

#if (defined(__x86_64__) || defined(_M_X64)) && \
    (defined(__GNUC__) || defined(__clang__))
#define GIR_CRC32_CLMUL 1
#include <immintrin.h>
#else
#define GIR_CRC32_CLMUL 0
#endif

namespace gir {

namespace {

// Slicing-by-8 tables for the reflected IEEE polynomial 0xEDB88320,
// built once on first use (thread-safe since C++11 magic statics).
// t[0] is the classic byte-at-a-time table; t[k][b] extends it by k
// zero bytes, which lets the loop fold 8 input bytes per step. This is
// the scalar tier, and it finishes the folding kernel's short tail.
struct Crc32Tables {
  uint32_t t[8][256];
};

const Crc32Tables& Tables() {
  static const auto tables = [] {
    Crc32Tables out;
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      out.t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = out.t[0][i];
      for (int k = 1; k < 8; ++k) {
        c = out.t[0][c & 0xFFu] ^ (c >> 8);
        out.t[k][i] = c;
      }
    }
    return out;
  }();
  return tables;
}

// Advances the (pre-inverted) CRC register `c` over n bytes.
uint32_t TableUpdate(uint32_t c, const uint8_t* p, size_t n) {
  const Crc32Tables& tb = Tables();
  // 8 bytes per step; the two word loads are little-endian, matching
  // the reflected polynomial's bit order on every supported target.
  while (n >= 8) {
    uint32_t lo;
    uint32_t hi;
    std::memcpy(&lo, p, sizeof(lo));
    std::memcpy(&hi, p + 4, sizeof(hi));
    lo ^= c;
    c = tb.t[7][lo & 0xFFu] ^ tb.t[6][(lo >> 8) & 0xFFu] ^
        tb.t[5][(lo >> 16) & 0xFFu] ^ tb.t[4][lo >> 24] ^
        tb.t[3][hi & 0xFFu] ^ tb.t[2][(hi >> 8) & 0xFFu] ^
        tb.t[1][(hi >> 16) & 0xFFu] ^ tb.t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    c = tb.t[0][(c ^ *p++) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

#if GIR_CRC32_CLMUL

// Bytes from which the folding kernel runs: it consumes whole 16-byte
// blocks and needs four of them to seed its lanes.
constexpr size_t kFoldMinBytes = 64;

bool CpuHasClmul() {
  static const bool has = __builtin_cpu_supports("pclmul");
  return has;
}

#define GIR_TARGET_CLMUL __attribute__((target("pclmul,sse2")))

GIR_TARGET_CLMUL inline __m128i Load16(const uint8_t* q) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
}

// One lane's fold over the next block: x.lo * k.lo ^ x.hi * k.hi ^ next,
// where k holds the two constants (powers of x mod P) of the distance
// the lane moves forward.
GIR_TARGET_CLMUL inline __m128i Fold(__m128i x, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

// Carry-less-multiply folding (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009), in the
// bit-reflected domain of the IEEE polynomial: four 128-bit lanes fold
// 64 bytes a step, then fold into one lane, then 16 bytes a step, and a
// Barrett reduction takes the last 64 bits to the 32-bit remainder.
// Advances the pre-inverted register `c` over n bytes; n is a multiple
// of 16 and at least kFoldMinBytes. Loads are unaligned.
GIR_TARGET_CLMUL uint32_t FoldUpdate(uint32_t c, const uint8_t* p, size_t n) {
  // Fold constants (reflected, 33 bits each) for a 512-bit stride...
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  // ... for a 128-bit stride ...
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  // ... and for the 64-bit step of the final reduction.
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  // The reflected polynomial P' and the Barrett constant mu'.
  const __m128i poly_mu = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 =
      _mm_xor_si128(Load16(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = Load16(p + 16);
  __m128i x3 = Load16(p + 32);
  __m128i x4 = Load16(p + 48);
  p += 64;
  n -= 64;
  while (n >= 64) {
    // A checkpoint's image is far larger than the cache: reading 4 KB
    // ahead lifts the fold from ~6 to ~10 GB/s on one core. A prefetch
    // past the end of the buffer is a hint and never faults.
    _mm_prefetch(reinterpret_cast<const char*>(p) + 4096, _MM_HINT_T0);
    x1 = Fold(x1, k1k2, Load16(p));
    x2 = Fold(x2, k1k2, Load16(p + 16));
    x3 = Fold(x3, k1k2, Load16(p + 32));
    x4 = Fold(x4, k1k2, Load16(p + 48));
    p += 64;
    n -= 64;
  }
  x1 = Fold(x1, k3k4, x2);
  x1 = Fold(x1, k3k4, x3);
  x1 = Fold(x1, k3k4, x4);
  while (n >= 16) {
    x1 = Fold(x1, k3k4, Load16(p));
    p += 16;
    n -= 16;
  }

  // 128 -> 64 bits.
  __m128i t = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), t);
  t = _mm_srli_si128(x1, 4);
  x1 = _mm_and_si128(x1, low32);
  x1 = _mm_xor_si128(_mm_clmulepi64_si128(x1, k5, 0x00), t);

  // Barrett reduction, 64 -> 32 bits.
  t = _mm_and_si128(x1, low32);
  t = _mm_clmulepi64_si128(t, poly_mu, 0x10);
  t = _mm_and_si128(t, low32);
  t = _mm_clmulepi64_si128(t, poly_mu, 0x00);
  x1 = _mm_xor_si128(x1, t);
  return static_cast<uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(x1, 4)));
}

#endif  // GIR_CRC32_CLMUL

}  // namespace

uint32_t Crc32(const void* data, size_t n, uint32_t seed) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint32_t c = seed ^ 0xFFFFFFFFu;
#if GIR_CRC32_CLMUL
  // The folding kernel rides on the SIMD dispatch: it runs only when the
  // active tier is AVX2 and the CPU has PCLMULQDQ; the scalar tier
  // (GIR_SIMD=scalar, or a CPU without AVX2) keeps the table loop.
  if (n >= kFoldMinBytes && simd::ActiveTier() == simd::Tier::kAvx2 &&
      CpuHasClmul()) {
    const size_t blocks = n & ~size_t{15};
    c = FoldUpdate(c, p, blocks);
    p += blocks;
    n -= blocks;
  }
#endif
  return TableUpdate(c, p, n) ^ 0xFFFFFFFFu;
}

}  // namespace gir
